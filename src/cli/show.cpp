#include "cli/show.hpp"

#include <algorithm>
#include <sstream>

#include "config/dialect.hpp"
#include "util/strings.hpp"

namespace mfv::cli {

namespace {

char protocol_letter(rib::Protocol protocol) {
  switch (protocol) {
    case rib::Protocol::kConnected: return 'C';
    case rib::Protocol::kLocal: return 'L';
    case rib::Protocol::kStatic: return 'S';
    case rib::Protocol::kGribi: return 'G';
    case rib::Protocol::kOspf: return 'O';
    case rib::Protocol::kIsis: return 'I';
    case rib::Protocol::kBgp: return 'B';
    case rib::Protocol::kIbgp: return 'B';
    case rib::Protocol::kTe: return 'T';
  }
  return '?';
}

}  // namespace

namespace {
std::string render_routes(const rib::Rib& rib, const std::string& vrf_name);
}

std::string show_ip_route(const vrouter::VirtualRouter& router) {
  return render_routes(router.routing_table(), "default");
}

std::string show_ip_route_vrf(const vrouter::VirtualRouter& router,
                              const std::string& vrf) {
  const rib::Rib* rib = router.vrf_routing_table(vrf);
  if (rib == nullptr) return "% VRF '" + vrf + "' has no routing table\n";
  return render_routes(*rib, vrf);
}

namespace {
std::string render_routes(const rib::Rib& rib, const std::string& vrf_name) {
  std::ostringstream out;
  out << "VRF: " << vrf_name << "\n"
      << "Codes: C - connected, S - static, G - gRIBI, O - OSPF, I - IS-IS,\n"
      << "       B - BGP, T - TE, L - local\n\n";
  rib.for_each_best(
      [&](const net::Ipv4Prefix& prefix, const std::vector<rib::RibRoute>& best) {
        bool first = true;
        for (const rib::RibRoute& route : best) {
          if (first) {
            out << " " << protocol_letter(route.protocol) << (route.protocol == rib::Protocol::kIbgp ? " I" : "  ")
                << " " << prefix.to_string() << " [" << int(route.admin_distance) << "/"
                << route.metric << "]";
            first = false;
          } else {
            out << "\n      " << prefix.to_string();
          }
          if (route.drop) out << " is directly connected, Null0";
          else if (route.next_hop && route.interface)
            out << " via " << route.next_hop->to_string() << ", " << *route.interface;
          else if (route.next_hop)
            out << " via " << route.next_hop->to_string();
          else if (route.interface)
            out << " is directly connected, " << *route.interface;
          if (route.push_label) out << ", label " << *route.push_label;
        }
        out << "\n";
      });
  return out.str();
}
}  // namespace

std::string show_isis_neighbors(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  out << "IS-IS Instance: " << (router.isis() != nullptr ? router.isis()->instance() : "-")
      << "\n";
  if (router.isis() == nullptr || !router.isis()->active()) {
    out << "IS-IS is not running\n";
    return out.str();
  }
  out << "  System Id       Interface     State  Address\n";
  for (const auto& [interface, adjacency] : router.isis()->adjacencies()) {
    out << "  " << adjacency.neighbor.to_string() << "  " << interface << "  "
        << (adjacency.state == proto::IsisAdjacency::State::kUp ? "UP   " : "INIT ") << " "
        << adjacency.neighbor_address.to_string() << "\n";
  }
  return out.str();
}

std::string show_isis_database(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  if (router.isis() == nullptr || !router.isis()->active()) {
    out << "IS-IS is not running\n";
    return out.str();
  }
  out << "IS-IS Instance: " << router.isis()->instance() << " Level-2 Link State Database\n";
  for (const proto::IsisLspPtr& lsp : router.isis()->database()) {
    out << "  LSPID " << lsp->origin.to_string() << ".00-00  Seq " << lsp->sequence << "\n";
    for (const auto& neighbor : lsp->neighbors)
      out << "    IS Neighbor    " << neighbor.system_id.to_string() << "  Metric "
          << neighbor.metric << "\n";
    for (const auto& prefix : lsp->prefixes)
      out << "    IP Reachability " << prefix.prefix.to_string() << "  Metric "
          << prefix.metric << "\n";
  }
  return out.str();
}

std::string show_ospf_neighbors(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  if (router.ospf() == nullptr || !router.ospf()->active()) {
    out << "OSPF is not running\n";
    return out.str();
  }
  out << "OSPF Process " << router.ospf()->process_id() << ", Router ID "
      << router.ospf()->router_id().to_string() << "\n"
      << "  Neighbor ID      Interface     State  Address\n";
  for (const auto& [interface, adjacency] : router.ospf()->adjacencies()) {
    out << "  " << adjacency.neighbor.to_string() << "  " << interface << "  "
        << (adjacency.state == proto::OspfAdjacency::State::kFull ? "FULL " : "INIT ")
        << " " << adjacency.neighbor_address.to_string() << "\n";
  }
  return out.str();
}

std::string show_ospf_database(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  if (router.ospf() == nullptr || !router.ospf()->active()) {
    out << "OSPF is not running\n";
    return out.str();
  }
  out << "OSPF Router Link States (Area 0)\n";
  for (const proto::OspfLsaPtr& lsa : router.ospf()->database()) {
    out << "  LSA " << lsa->origin.to_string() << "  Seq " << lsa->sequence << "\n";
    for (const auto& neighbor : lsa->neighbors)
      out << "    Neighbor " << neighbor.router_id.to_string() << "  Metric "
          << neighbor.metric << "\n";
    for (const auto& prefix : lsa->prefixes)
      out << "    Prefix " << prefix.prefix.to_string() << "  Metric " << prefix.metric
          << "\n";
  }
  return out.str();
}

std::string show_ip_bgp_summary(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  if (router.bgp() == nullptr || !router.bgp()->active()) {
    out << "BGP is not running\n";
    return out.str();
  }
  out << "BGP summary information for VRF default\n"
      << "Router identifier " << router.bgp()->router_id().to_string() << ", local AS number "
      << router.bgp()->local_as() << "\n"
      << "  Neighbor         AS      State        PfxRcd  PfxSent\n";
  for (const proto::BgpSession& session : router.bgp()->sessions()) {
    out << "  " << session.config.peer.to_string() << "  " << session.config.remote_as
        << "  " << proto::session_state_name(session.state);
    if (session.config.shutdown) out << " (Admin)";
    out << "  " << session.adj_rib_in->size() << "  " << session.adj_rib_out->size() << "\n";
  }
  return out.str();
}

std::string show_interfaces(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  for (const proto::InterfaceView& interface : router.interfaces()) {
    out << interface.name << " is " << (interface.up ? "up" : "down") << "\n";
    if (interface.address)
      out << "  Internet address is " << interface.address->to_string() << "\n";
    if (interface.isis_enabled)
      out << "  IS-IS enabled" << (interface.isis_passive ? " (passive)" : "") << ", metric "
          << interface.isis_metric << "\n";
    if (interface.mpls_enabled) out << "  MPLS enabled\n";
  }
  return out.str();
}

std::string show_mpls_tunnels(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  if (router.te() == nullptr || !router.te()->active()) {
    out << "MPLS is not running\n";
    return out.str();
  }
  out << "RSVP-TE tunnels:\n";
  for (const auto& [name, tunnel] : router.te()->tunnels()) {
    out << "  " << name << " -> " << tunnel.config.destination.to_string() << "  "
        << proto::tunnel_state_name(tunnel.state);
    if (tunnel.state == proto::TunnelState::kUp)
      out << "  label " << tunnel.push_label << " via " << tunnel.downstream.to_string();
    out << "\n";
  }
  out << "Label bindings:\n";
  for (const auto& [label, binding] : router.te()->label_bindings()) {
    out << "  in " << binding.in_label << " -> ";
    if (binding.out_label) out << "swap " << *binding.out_label;
    else out << "pop";
    out << "  (" << binding.session_name << ")\n";
  }
  return out.str();
}

std::string show_ip_access_lists(const vrouter::VirtualRouter& router) {
  std::ostringstream out;
  const config::DeviceConfig& config = router.configuration();
  if (config.acls.empty()) {
    out << "No access lists configured\n";
    return out.str();
  }
  for (const auto& [name, acl] : config.acls) {
    out << "Standard IP access list " << name << "\n";
    for (const auto& entry : acl.entries) {
      out << "  " << entry.seq << " " << (entry.permit ? "permit " : "deny ");
      if (entry.destination == net::Ipv4Prefix()) out << "any";
      else out << entry.destination.to_string();
      out << "\n";
    }
    // Attachment points.
    for (const auto& [ifname, iface] : config.interfaces) {
      if (iface.acl_in == name) out << "  applied: " << ifname << " in\n";
      if (iface.acl_out == name) out << "  applied: " << ifname << " out\n";
    }
  }
  return out.str();
}

std::string show_running_config(const vrouter::VirtualRouter& router) {
  return config::write_config(router.configuration());
}

util::Result<std::string> run_command(const vrouter::VirtualRouter& router,
                                      std::string_view command) {
  std::vector<std::string> words = util::split_whitespace(command);
  auto is = [&](std::initializer_list<std::string_view> expected) {
    if (words.size() != expected.size()) return false;
    size_t i = 0;
    for (std::string_view word : expected)
      if (words[i++] != word) return false;
    return true;
  };
  if (is({"show", "ip", "route"})) return show_ip_route(router);
  if (words.size() == 5 && words[0] == "show" && words[1] == "ip" &&
      words[2] == "route" && words[3] == "vrf")
    return show_ip_route_vrf(router, words[4]);
  if (is({"show", "isis", "neighbors"})) return show_isis_neighbors(router);
  if (is({"show", "isis", "database"})) return show_isis_database(router);
  if (is({"show", "ip", "ospf", "neighbor"})) return show_ospf_neighbors(router);
  if (is({"show", "ip", "ospf", "database"})) return show_ospf_database(router);
  if (is({"show", "ip", "bgp", "summary"})) return show_ip_bgp_summary(router);
  if (is({"show", "interfaces"})) return show_interfaces(router);
  if (is({"show", "mpls", "tunnels"})) return show_mpls_tunnels(router);
  if (is({"show", "ip", "access-lists"})) return show_ip_access_lists(router);
  if (is({"show", "running-config"})) return show_running_config(router);
  return util::invalid_argument("% Invalid input: '" + std::string(command) + "'");
}

}  // namespace mfv::cli
