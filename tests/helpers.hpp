// Shared test helpers: compact builders for programmatic device configs
// and small emulated networks.
#pragma once

#include <string>

#include "aft/aft.hpp"
#include "config/device_config.hpp"
#include "emu/emulation.hpp"

namespace mfv::test {

/// A discard route for `prefix` in the default instance.
inline config::StaticRoute null_route(const net::Ipv4Prefix& prefix) {
  config::StaticRoute route;
  route.prefix = prefix;
  route.null_route = true;
  return route;
}

/// An up default-instance interface with address `cidr` and no filters.
inline aft::InterfaceState interface_state(const std::string& name, const std::string& cidr) {
  aft::InterfaceState state;
  state.name = name;
  state.address = net::InterfaceAddress::parse(cidr);
  return state;
}

inline config::DeviceConfig base_router(const std::string& name, int index,
                                        bool isis = true) {
  config::DeviceConfig config;
  config.hostname = name;
  if (isis) {
    config.isis.enabled = true;
    config.isis.instance = "default";
    char net[40];
    std::snprintf(net, sizeof(net), "49.0001.0000.0000.%04x.00", index);
    config.isis.net = net;
    config.isis.af_ipv4_unicast = true;
  }
  auto& loopback = config.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0." + std::to_string(index) + "/32");
  if (isis) {
    loopback.isis_enabled = true;
    loopback.isis_passive = true;
    loopback.isis_instance = "default";
  }
  return config;
}

inline config::InterfaceConfig& wire(config::DeviceConfig& config, int port,
                                     const std::string& cidr, bool isis = true,
                                     uint32_t metric = 10) {
  auto& iface = config.interface("Ethernet" + std::to_string(port));
  iface.switchport = false;
  iface.address = net::InterfaceAddress::parse(cidr);
  iface.isis_enabled = isis;
  iface.isis_instance = "default";
  iface.isis_metric = metric;
  return iface;
}

inline void ibgp(config::DeviceConfig& config, net::AsNumber as, const std::string& peer,
                 bool next_hop_self = false) {
  config.bgp.enabled = true;
  config.bgp.local_as = as;
  config::BgpNeighborConfig neighbor;
  neighbor.peer = *net::Ipv4Address::parse(peer);
  neighbor.remote_as = as;
  neighbor.update_source = "Loopback0";
  neighbor.next_hop_self = next_hop_self;
  neighbor.send_community = true;
  config.bgp.neighbors.push_back(std::move(neighbor));
}

inline void ebgp(config::DeviceConfig& config, net::AsNumber local_as,
                 const std::string& peer, net::AsNumber remote_as) {
  config.bgp.enabled = true;
  config.bgp.local_as = local_as;
  config::BgpNeighborConfig neighbor;
  neighbor.peer = *net::Ipv4Address::parse(peer);
  neighbor.remote_as = remote_as;
  config.bgp.neighbors.push_back(std::move(neighbor));
}

inline void link(emu::Emulation& emulation, const std::string& a, int port_a,
                 const std::string& b, int port_b) {
  emulation.add_link({a, "Ethernet" + std::to_string(port_a)},
                     {b, "Ethernet" + std::to_string(port_b)});
}

}  // namespace mfv::test
