#include "explore/canonical.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace mfv::explore {

namespace {

void append(std::string& out, std::string_view piece) { out.append(piece); }

void append_u64(std::string& out, uint64_t value) { out.append(std::to_string(value)); }

/// Renders one resolved next hop with no reference to its AFT index.
std::string next_hop_descriptor(const aft::NextHop& next_hop, uint64_t weight) {
  std::string desc;
  desc += next_hop.ip_address ? next_hop.ip_address->to_string() : "-";
  desc += '|';
  desc += next_hop.interface ? *next_hop.interface : "-";
  desc += '|';
  desc += next_hop.drop ? "drop" : "fwd";
  desc += '|';
  desc += aft::label_op_name(next_hop.label_op);
  desc += '|';
  desc += std::to_string(next_hop.label);
  desc += '|';
  desc += std::to_string(weight);
  return desc;
}

/// Resolves a group id into its sorted next-hop descriptor set.
void append_group(const aft::Aft& aft, uint64_t group_id, std::string& out) {
  const aft::NextHopGroup* group = aft.group(group_id);
  if (group == nullptr) {
    append(out, "<dangling>");
    return;
  }
  std::vector<std::string> descriptors;
  descriptors.reserve(group->next_hops.size());
  for (const auto& [index, weight] : group->next_hops) {
    const aft::NextHop* next_hop = aft.next_hop(index);
    descriptors.push_back(next_hop != nullptr ? next_hop_descriptor(*next_hop, weight)
                                              : "<dangling-nh>");
  }
  std::sort(descriptors.begin(), descriptors.end());
  for (const std::string& descriptor : descriptors) {
    append(out, "{");
    append(out, descriptor);
    append(out, "}");
  }
}

void append_one_aft(const aft::Aft& aft, std::string& out) {
  for (const aft::Ipv4Entry& entry : aft.ipv4_entries()) {
    append(out, "  v4 ");
    append(out, entry.prefix.to_string());
    append(out, " ");
    append(out, entry.origin_protocol);
    append(out, " m=");
    append_u64(out, entry.metric);
    append(out, " -> ");
    append_group(aft, entry.next_hop_group, out);
    append(out, "\n");
  }
  for (const aft::LabelEntry& entry : aft.label_entries()) {
    append(out, "  mpls ");
    append_u64(out, entry.label);
    append(out, " -> ");
    append_group(aft, entry.next_hop_group, out);
    append(out, "\n");
  }
}

std::string acl_descriptor(const std::optional<std::vector<aft::AclRule>>& rules) {
  if (!rules) return "-";
  // Rule order is semantic (first match wins) — serialize in order.
  std::string out = "[";
  for (const aft::AclRule& rule : *rules) {
    out += rule.permit ? "permit " : "deny ";
    out += rule.destination.to_string();
    out += ";";
  }
  out += "]";
  return out;
}

std::string render_rib_route(const rib::RibRoute& route) {
  std::string out = rib::protocol_name(route.protocol);
  out += '|';
  out += std::to_string(route.admin_distance);
  out += '|';
  out += std::to_string(route.metric);
  out += '|';
  out += route.next_hop ? route.next_hop->to_string() : "-";
  out += '|';
  out += route.interface ? *route.interface : "-";
  out += '|';
  out += route.drop ? "drop" : "fwd";
  out += '|';
  out += route.push_label ? std::to_string(*route.push_label) : "-";
  out += '|';
  out += route.source;
  return out;
}

void append_bgp_route(const proto::BgpRoute& route, std::string& out) {
  out += route.prefix.to_string();
  out += " nh=";
  out += route.attributes.next_hop.to_string();
  out += " lp=";
  out += std::to_string(route.attributes.local_pref);
  out += " med=";
  out += std::to_string(route.attributes.med);
  out += " origin=";
  out += std::to_string(static_cast<int>(route.attributes.origin));
  out += " path=";
  for (net::AsNumber as : route.attributes.as_path) {
    out += std::to_string(as);
    out += ',';
  }
  out += " comm=";
  for (uint32_t community : route.attributes.communities) {
    out += std::to_string(community);
    out += ',';
  }
}

}  // namespace

void append_canonical_aft(const aft::DeviceAft& device, std::string& out) {
  append(out, " aft default\n");
  append_one_aft(device.aft, out);
  for (const auto& [name, instance] : device.instances) {
    append(out, " aft vrf=");
    append(out, name);
    append(out, "\n");
    append_one_aft(instance, out);
  }
  for (const auto& [name, state] : device.interfaces) {
    append(out, " if ");
    append(out, name);
    append(out, " addr=");
    append(out, state.address ? state.address->to_string() : "-");
    append(out, state.oper_up ? " up" : " down");
    append(out, " vrf=");
    append(out, state.vrf);
    append(out, " in=");
    append(out, acl_descriptor(state.acl_in));
    append(out, " out=");
    append(out, acl_descriptor(state.acl_out));
    append(out, "\n");
  }
}

void append_canonical_rib(const rib::Rib& rib, std::string& out) {
  rib.for_each_best([&out](const net::Ipv4Prefix& prefix,
                           const std::vector<rib::RibRoute>& best) {
    append(out, " rib ");
    append(out, prefix.to_string());
    std::vector<std::string> rendered;
    rendered.reserve(best.size());
    for (const rib::RibRoute& route : best) rendered.push_back(render_rib_route(route));
    std::sort(rendered.begin(), rendered.end());
    for (const std::string& route : rendered) {
      append(out, " {");
      append(out, route);
      append(out, "}");
    }
    append(out, "\n");
  });
}

void append_canonical_bgp(const proto::BgpEngine& bgp, std::string& out) {
  // Sessions keyed by peer address: the sessions_ vector's declaration
  // order (and hence any session "numbering") is invisible. Peer
  // addresses are unique per engine (one session per neighbor statement).
  std::vector<const proto::BgpSession*> sessions;
  sessions.reserve(bgp.sessions().size());
  for (const proto::BgpSession& session : bgp.sessions()) sessions.push_back(&session);
  std::sort(sessions.begin(), sessions.end(),
            [](const proto::BgpSession* a, const proto::BgpSession* b) {
              return a->config.peer < b->config.peer;
            });
  for (const proto::BgpSession* session : sessions) {
    append(out, " bgp peer=");
    append(out, session->config.peer.to_string());
    append(out, session->is_ibgp ? " ibgp" : " ebgp");
    append(out, " state=");
    append(out, proto::session_state_name(session->state));
    append(out, "\n");
    for (const auto& [prefix, route] : *session->adj_rib_in) {
      append(out, "  in ");
      append_bgp_route(route, out);
      append(out, "\n");
    }
    for (const auto& [prefix, route] : *session->adj_rib_out) {
      append(out, "  out ");
      append_bgp_route(route, out);
      append(out, "\n");
    }
  }
  for (const auto& [prefix, route] : bgp.loc_rib()) {
    append(out, " locrib ");
    append_bgp_route(route, out);
    append(out, "\n");
  }
}

CanonicalState canonicalize(const emu::Emulation& emulation) {
  CanonicalState state;
  std::string& out = state.bytes;
  for (const net::NodeName& name : emulation.node_names()) {
    const vrouter::VirtualRouter* router = emulation.router(name);
    if (router == nullptr) continue;
    append(out, "node ");
    append(out, name);
    append(out, "\n");
    append_canonical_aft(router->device_aft(), out);
    append_canonical_rib(router->routing_table(), out);
    if (router->bgp() != nullptr) append_canonical_bgp(*router->bgp(), out);
  }
  state.hash = util::fnv1a(state.bytes);
  return state;
}

StateSet::Insert StateSet::insert(CanonicalState state) {
  return insert_with_hash(std::move(state.bytes), state.hash);
}

StateSet::Insert StateSet::insert_with_hash(std::string bytes, uint64_t hash) {
  std::vector<size_t>& bucket = by_hash_[hash];
  for (size_t id : bucket)
    if (states_[id].bytes == bytes) return Insert{id, false, false};
  bool collision = !bucket.empty();
  if (collision) ++collisions_;
  size_t id = states_.size();
  states_.push_back(CanonicalState{hash, std::move(bytes)});
  bucket.push_back(id);
  return Insert{id, true, collision};
}

bool StateSet::contains(const CanonicalState& state) const {
  auto it = by_hash_.find(state.hash);
  if (it == by_hash_.end()) return false;
  for (size_t id : it->second)
    if (states_[id].bytes == state.bytes) return true;
  return false;
}

}  // namespace mfv::explore
