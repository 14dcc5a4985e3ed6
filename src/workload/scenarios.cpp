#include "workload/scenarios.hpp"

#include "config/ceos_writer.hpp"
#include "config/device_config.hpp"

namespace mfv::workload {

namespace {

using config::DeviceConfig;
using net::Ipv4Address;

/// The management-plane blocks production configs carry: daemons,
/// management APIs, platform services. The emulated device accepts all of
/// them; the reference model recognizes none (experiment E2's unparsed
/// lines).
void add_management_padding(DeviceConfig& config) {
  auto block = [&](std::string name, std::vector<std::string> lines) {
    config.management_features.push_back({std::move(name), std::move(lines)});
  };
  block("daemon PowerManager",
        {"daemon PowerManager", "exec /usr/bin/power-manager", "no shutdown"});
  block("daemon LedPolicy", {"daemon LedPolicy", "exec /usr/bin/led-policy", "no shutdown"});
  block("daemon Thermostat",
        {"daemon Thermostat", "exec /usr/bin/thermostat --interval 30", "no shutdown"});
  block("daemon TerminAttr",
        {"daemon TerminAttr", "exec /usr/bin/TerminAttr -cvaddr=203.0.113.50:9910",
         "no shutdown"});
  block("management api gnmi",
        {"management api gnmi", "transport grpc default", "no shutdown"});
  block("management api http-commands",
        {"management api http-commands", "protocol https", "no shutdown"});
  block("management ssl profile default",
        {"management ssl profile default",
         "certificate mgmt.crt key mgmt.key"});
  block("management security",
        {"management security", "password minimum-length 12"});
  block("service routing protocols model multi-agent",
        {"service routing protocols model multi-agent"});
  block("spanning-tree mode mstp", {"spanning-tree mode mstp"});
  block("no aaa root", {"no aaa root"});
  block("ntp server", {"ntp server 203.0.113.10 iburst"});
  block("logging host", {"logging host 203.0.113.20"});
  block("snmp-server", {"snmp-server community netops ro"});
  block("queue-monitor length", {"queue-monitor length"});
  block("hardware speed-group", {"hardware speed-group 1 serdes 10g"});
  block("clock timezone", {"clock timezone UTC"});
  block("transceiver qsfp", {"transceiver qsfp default-mode 4x10g"});
  block("errdisable recovery", {"errdisable recovery interval 300"});
}

/// Extra telemetry daemons carried by edge roles (R1/R5 in the Fig. 2
/// network) — more of the same class of lines the model cannot parse.
void add_edge_telemetry_padding(DeviceConfig& config, bool with_netconf) {
  config.management_features.push_back(
      {"daemon SlaMonitor",
       {"daemon SlaMonitor", "exec /usr/bin/sla-monitor --probe icmp", "no shutdown"}});
  if (with_netconf)
    config.management_features.push_back(
        {"management api netconf", {"management api netconf", "transport ssh default"}});
}

/// A spare, administratively-down port (present in production configs for
/// future capacity). Parsed fine by both parsers — recognized lines.
void add_spare_port(DeviceConfig& config, int index) {
  config::InterfaceConfig& iface = config.interface("Ethernet" + std::to_string(index));
  iface.switchport = false;
  iface.shutdown = true;
  iface.description = "spare capacity";
}

/// Border export policy (prefix-list + route-map), attached outbound on an
/// eBGP session. Recognized by both the vendor parser and the model.
void add_border_export_policy(DeviceConfig& config, const std::string& own_loopback) {
  config::PrefixList list;
  list.name = "PL-EXPORT";
  list.entries.push_back(
      {10, true, *net::Ipv4Prefix::parse(own_loopback + "/32"), 0, 0});
  list.entries.push_back({20, true, *net::Ipv4Prefix::parse("192.0.2.0/24"), 0, 24});
  config.prefix_lists[list.name] = std::move(list);

  config::RouteMap map;
  map.name = "RM-EXPORT";
  config::RouteMapClause permit;
  permit.seq = 10;
  permit.permit = true;
  permit.match_prefix_list = "PL-EXPORT";
  permit.set_med = 50;
  map.clauses.push_back(permit);
  config::RouteMapClause deny;
  deny.seq = 20;
  deny.permit = false;
  map.clauses.push_back(deny);
  config.route_maps[map.name] = std::move(map);
}

config::InterfaceConfig& add_loopback(DeviceConfig& config, const std::string& address,
                                      bool isis) {
  config::InterfaceConfig& loopback = config.interface("Loopback0");
  loopback.address = net::InterfaceAddress::parse(address + "/32");
  loopback.switchport = false;
  if (isis) {
    loopback.isis_enabled = true;
    loopback.isis_instance = "default";
    loopback.isis_passive = true;
  }
  return loopback;
}

config::InterfaceConfig& add_ethernet(DeviceConfig& config, int index,
                                      const std::string& cidr, bool isis,
                                      bool mpls = false) {
  config::InterfaceConfig& iface = config.interface("Ethernet" + std::to_string(index));
  iface.address = net::InterfaceAddress::parse(cidr);
  iface.switchport = false;
  if (isis) {
    iface.isis_enabled = true;
    iface.isis_instance = "default";
  }
  iface.mpls_enabled = mpls;
  return iface;
}

void enable_isis(DeviceConfig& config, int system_index) {
  config.isis.enabled = true;
  config.isis.instance = "default";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "49.0001.0000.0000.%04d.00", system_index);
  config.isis.net = buffer;
  config.isis.level = config::IsisLevel::kLevel2;
  config.isis.af_ipv4_unicast = true;
}

void add_ibgp(DeviceConfig& config, const std::string& peer_loopback, bool next_hop_self) {
  config::BgpNeighborConfig neighbor;
  neighbor.peer = *Ipv4Address::parse(peer_loopback);
  neighbor.remote_as = config.bgp.local_as;
  neighbor.update_source = "Loopback0";
  neighbor.next_hop_self = next_hop_self;
  neighbor.send_community = true;
  config.bgp.neighbors.push_back(std::move(neighbor));
}

void add_ebgp(DeviceConfig& config, const std::string& peer_address, net::AsNumber remote_as,
              bool shutdown = false) {
  config::BgpNeighborConfig neighbor;
  neighbor.peer = *Ipv4Address::parse(peer_address);
  neighbor.remote_as = remote_as;
  neighbor.shutdown = shutdown;
  config.bgp.neighbors.push_back(std::move(neighbor));
}

void advertise_loopback(DeviceConfig& config, const std::string& loopback) {
  config.bgp.networks.push_back(
      {*net::Ipv4Prefix::parse(loopback + "/32"), std::nullopt});
}

emu::NodeSpec to_node(const DeviceConfig& config) {
  return {config.hostname, config::Vendor::kCeos, config::write_ceos(config)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Fig. 3

emu::Topology fig3_line_topology() {
  emu::Topology topology;
  for (int i = 1; i <= 3; ++i) {
    DeviceConfig config;
    config.hostname = "R" + std::to_string(i);
    enable_isis(config, i);
    std::string octet = std::to_string(i);
    add_loopback(config, "2.2.2." + octet, /*isis=*/true);
    // Link subnets 100.64.0.0/31 (R1-R2) and 100.64.0.2/31 (R2-R3) —
    // matching the Fig. 3 snippet's 100.64.0.1/31 on R1's Ethernet2.
    if (i == 1) add_ethernet(config, 2, "100.64.0.1/31", /*isis=*/true);
    if (i == 2) {
      add_ethernet(config, 1, "100.64.0.0/31", /*isis=*/true);
      add_ethernet(config, 2, "100.64.0.2/31", /*isis=*/true);
    }
    if (i == 3) add_ethernet(config, 1, "100.64.0.3/31", /*isis=*/true);
    // The paper's hand-written R1 config (Fig. 3) puts "ip address" before
    // "no switchport" — issue #1's trigger. R2/R3 use canonical order.
    config::CeosWriterOptions writer;
    writer.address_before_switchport = (i == 1);
    topology.nodes.push_back(
        {config.hostname, config::Vendor::kCeos, config::write_ceos(config, writer)});
  }
  topology.links.push_back({{"R1", "Ethernet2"}, {"R2", "Ethernet1"}, 1000});
  topology.links.push_back({{"R2", "Ethernet2"}, {"R3", "Ethernet1"}, 1000});
  return topology;
}

// ---------------------------------------------------------------------------
// Fig. 2

std::string fig2_loopback(int router_index) {
  return "10.0.0." + std::to_string(router_index);
}

emu::Topology fig2_topology(bool ebgp_session_down) {
  constexpr net::AsNumber kAs1 = 65001;
  constexpr net::AsNumber kAs2 = 65002;
  constexpr net::AsNumber kAs3 = 65003;

  emu::Topology topology;

  // R1 (AS1): single border router, no IGP.
  {
    DeviceConfig config;
    config.hostname = "R1";
    add_management_padding(config);
    add_edge_telemetry_padding(config, /*with_netconf=*/true);
    add_loopback(config, fig2_loopback(1), /*isis=*/false);
    add_ethernet(config, 1, "100.64.12.0/31", /*isis=*/false);
    add_spare_port(config, 9);
    config.bgp.enabled = true;
    config.bgp.local_as = kAs1;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(1));
    add_border_export_policy(config, fig2_loopback(1));
    add_ebgp(config, "100.64.12.1", kAs2);
    config.bgp.neighbors.back().route_map_out = "RM-EXPORT";
    advertise_loopback(config, fig2_loopback(1));
    // A customer aggregate originated at the AS1 edge.
    config::StaticRoute discard;
    discard.prefix = *net::Ipv4Prefix::parse("192.0.2.0/24");
    discard.null_route = true;
    config.static_routes.push_back(discard);
    config.bgp.networks.push_back({*net::Ipv4Prefix::parse("192.0.2.0/24"), std::nullopt});
    topology.nodes.push_back(to_node(config));
  }

  // R2 (AS2 border): eBGP to R1 and R3, iBGP to R5, IS-IS toward R5.
  {
    DeviceConfig config;
    config.hostname = "R2";
    add_management_padding(config);
    enable_isis(config, 2);
    add_loopback(config, fig2_loopback(2), /*isis=*/true);
    add_ethernet(config, 1, "100.64.12.1/31", /*isis=*/false, /*mpls=*/true);
    add_ethernet(config, 2, "100.64.23.0/31", /*isis=*/false, /*mpls=*/true);
    add_ethernet(config, 3, "100.64.25.0/31", /*isis=*/true, /*mpls=*/true);
    config.mpls.enabled = true;
    config.bgp.enabled = true;
    config.bgp.local_as = kAs2;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(2));
    add_ebgp(config, "100.64.12.0", kAs1);
    add_ebgp(config, "100.64.23.1", kAs3, /*shutdown=*/ebgp_session_down);
    add_ibgp(config, fig2_loopback(5), /*next_hop_self=*/true);
    advertise_loopback(config, fig2_loopback(2));
    topology.nodes.push_back(to_node(config));
  }

  // R3 (AS3 border): eBGP to R2, iBGP mesh to R4/R6, IS-IS inside AS3.
  {
    DeviceConfig config;
    config.hostname = "R3";
    add_management_padding(config);
    enable_isis(config, 3);
    add_loopback(config, fig2_loopback(3), /*isis=*/true);
    add_ethernet(config, 1, "100.64.23.1/31", /*isis=*/false, /*mpls=*/true);
    add_ethernet(config, 2, "100.64.34.0/31", /*isis=*/true, /*mpls=*/true);
    add_ethernet(config, 3, "100.64.36.0/31", /*isis=*/true, /*mpls=*/true);
    config.mpls.enabled = true;
    config.bgp.enabled = true;
    config.bgp.local_as = kAs3;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(3));
    add_ebgp(config, "100.64.23.0", kAs2, /*shutdown=*/ebgp_session_down);
    add_ibgp(config, fig2_loopback(4), /*next_hop_self=*/true);
    add_ibgp(config, fig2_loopback(6), /*next_hop_self=*/true);
    advertise_loopback(config, fig2_loopback(3));
    topology.nodes.push_back(to_node(config));
  }

  // R4 (AS3 core).
  {
    DeviceConfig config;
    config.hostname = "R4";
    add_management_padding(config);
    enable_isis(config, 4);
    add_loopback(config, fig2_loopback(4), /*isis=*/true);
    add_ethernet(config, 1, "100.64.34.1/31", /*isis=*/true, /*mpls=*/true);
    add_ethernet(config, 2, "100.64.46.0/31", /*isis=*/true, /*mpls=*/true);
    config.mpls.enabled = true;
    config.bgp.enabled = true;
    config.bgp.local_as = kAs3;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(4));
    add_ibgp(config, fig2_loopback(3), /*next_hop_self=*/false);
    add_ibgp(config, fig2_loopback(6), /*next_hop_self=*/false);
    advertise_loopback(config, fig2_loopback(4));
    topology.nodes.push_back(to_node(config));
  }

  // R5 (AS2 core).
  {
    DeviceConfig config;
    config.hostname = "R5";
    add_management_padding(config);
    add_edge_telemetry_padding(config, /*with_netconf=*/false);
    add_spare_port(config, 9);
    enable_isis(config, 5);
    add_loopback(config, fig2_loopback(5), /*isis=*/true);
    add_ethernet(config, 1, "100.64.25.1/31", /*isis=*/true, /*mpls=*/true);
    config.mpls.enabled = true;
    config.bgp.enabled = true;
    config.bgp.local_as = kAs2;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(5));
    add_ibgp(config, fig2_loopback(2), /*next_hop_self=*/false);
    advertise_loopback(config, fig2_loopback(5));
    topology.nodes.push_back(to_node(config));
  }

  // R6 (AS3 core).
  {
    DeviceConfig config;
    config.hostname = "R6";
    add_management_padding(config);
    enable_isis(config, 6);
    add_loopback(config, fig2_loopback(6), /*isis=*/true);
    add_ethernet(config, 1, "100.64.36.1/31", /*isis=*/true, /*mpls=*/true);
    add_ethernet(config, 2, "100.64.46.1/31", /*isis=*/true, /*mpls=*/true);
    config.mpls.enabled = true;
    config.bgp.enabled = true;
    config.bgp.local_as = kAs3;
    config.bgp.router_id = Ipv4Address::parse(fig2_loopback(6));
    add_ibgp(config, fig2_loopback(3), /*next_hop_self=*/false);
    add_ibgp(config, fig2_loopback(4), /*next_hop_self=*/false);
    advertise_loopback(config, fig2_loopback(6));
    topology.nodes.push_back(to_node(config));
  }

  topology.links.push_back({{"R1", "Ethernet1"}, {"R2", "Ethernet1"}, 1000});
  topology.links.push_back({{"R2", "Ethernet2"}, {"R3", "Ethernet1"}, 1000});
  topology.links.push_back({{"R2", "Ethernet3"}, {"R5", "Ethernet1"}, 1000});
  topology.links.push_back({{"R3", "Ethernet2"}, {"R4", "Ethernet1"}, 1000});
  topology.links.push_back({{"R3", "Ethernet3"}, {"R6", "Ethernet1"}, 1000});
  topology.links.push_back({{"R4", "Ethernet2"}, {"R6", "Ethernet2"}, 1000});
  return topology;
}

}  // namespace mfv::workload
