#include "verify/forwarding_graph.hpp"

#include <algorithm>
#include <set>

namespace mfv::verify {

namespace {

/// Value of `key` in a table sorted by key, or nullptr.
template <typename T>
const T* find_sorted(const std::vector<std::pair<uint32_t, T>>& table, uint32_t key) {
  auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const std::pair<uint32_t, T>& row, uint32_t wanted) { return row.first < wanted; });
  return it != table.end() && it->first == key ? &it->second : nullptr;
}

/// Sorts a (key, value) table by key, keeping the first (or the last)
/// row pushed for each key.
template <typename T>
void sort_unique(std::vector<std::pair<uint32_t, T>>& table, bool last_wins) {
  std::stable_sort(table.begin(), table.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (kept > 0 && table[kept - 1].first == table[i].first) {
      if (last_wins) table[kept - 1] = table[i];
      continue;
    }
    table[kept++] = table[i];
  }
  table.resize(kept);
}

}  // namespace

ForwardingGraph::ForwardingGraph(gnmi::Snapshot snapshot) : snapshot_(std::move(snapshot)) {
  names_.reserve(snapshot_.devices.size());
  for (const auto& [node, device] : snapshot_.devices) names_.push_back(node);
  compiled_.resize(names_.size());

  // Address tables first: compiling a hop reads its next node's ingress
  // filters.
  NodeId id = 0;
  for (const auto& [node, device] : snapshot_.devices) {
    CompiledNode& compiled = compiled_[id];
    for (const auto& [name, interface] : device.interfaces) {
      if (!interface.oper_up || !interface.address) continue;
      uint32_t bits = interface.address->address.bits();
      // Ingress resolution sees every up interface holding the address...
      compiled.ingress.emplace_back(bits,
                                    interface.acl_in ? &*interface.acl_in : nullptr);
      // ...but non-default-instance (VRF) interfaces are invisible to the
      // default forwarding graph: their addresses are not reachable
      // through it.
      if (!interface.vrf.empty()) continue;
      owners_.emplace_back(bits, id);
      compiled.connected.push_back(interface.address->subnet);
    }
    sort_unique(compiled.ingress, /*last_wins=*/false);
    ++id;
  }
  sort_unique(owners_, /*last_wins=*/true);

  id = 0;
  for (const auto& [node, device] : snapshot_.devices) compile_node(id++, device);
}

void ForwardingGraph::compile_node(NodeId id, const aft::DeviceAft& device) {
  CompiledNode& node = compiled_[id];
  const aft::Aft& aft = device.aft;

  // Resolve every group's hops once; entries and label bindings sharing a
  // group share its span.
  std::vector<std::pair<uint64_t, std::pair<size_t, size_t>>> group_ranges;
  group_ranges.reserve(aft.groups().size());
  for (const aft::NextHopGroup& group : aft.groups()) {
    size_t begin = node.hops.size();
    for (const auto& [index, weight] : group.next_hops) {
      const aft::NextHop* source = aft.next_hop(index);
      if (source == nullptr) continue;  // dangling index
      Hop hop;
      hop.source = source;
      hop.drop = source->drop;
      hop.addressed = source->ip_address.has_value();
      hop.label_op = source->label_op;
      hop.label = source->label;
      if (source->interface) {
        auto it = device.interfaces.find(*source->interface);
        if (it != device.interfaces.end() && it->second.acl_out)
          hop.egress_acl = &*it->second.acl_out;
      }
      if (source->ip_address) {
        hop.next = owner(*source->ip_address);
        if (hop.next != kNoNode) hop.ingress_acl = ingress_acl(hop.next, *source->ip_address);
      }
      node.hops.push_back(hop);
    }
    group_ranges.push_back({group.id, {begin, node.hops.size()}});
  }
  auto group_hops = [&](uint64_t group_id) -> std::span<const Hop> {
    auto it = std::lower_bound(
        group_ranges.begin(), group_ranges.end(), group_id,
        [](const auto& row, uint64_t wanted) { return row.first < wanted; });
    if (it == group_ranges.end() || it->first != group_id) return {};
    return {node.hops.data() + it->second.first, it->second.second - it->second.first};
  };

  node.routes.reserve(aft.ipv4_entries().size());
  for (const aft::Ipv4Entry& entry : aft.ipv4_entries())
    node.routes.push_back({&entry, group_hops(entry.next_hop_group)});
  for (const aft::LabelEntry& entry : aft.label_entries())
    node.labels.emplace_back(entry.label, group_hops(entry.next_hop_group));

  // One stack sweep over the prefix-sorted entries (a pre-order walk of
  // the containment tree): the innermost open prefix answers until it
  // closes, then its parent resumes.
  node.lpm_starts.push_back(0);
  node.lpm_routes.push_back(nullptr);
  auto emit = [&](uint64_t start, const Route* route) {
    if (start > UINT32_MAX) return;  // past the end of the address space
    if (node.lpm_starts.back() == start) {
      node.lpm_routes.back() = route;
    } else if (node.lpm_routes.back() != route) {
      node.lpm_starts.push_back(static_cast<uint32_t>(start));
      node.lpm_routes.push_back(route);
    }
  };
  std::vector<std::pair<uint64_t, const Route*>> open;  // (last address, route)
  auto close_before = [&](uint64_t address) {
    while (!open.empty() && open.back().first < address) {
      uint64_t end = open.back().first + 1;
      open.pop_back();
      emit(end, open.empty() ? nullptr : open.back().second);
    }
  };
  const Route* route = node.routes.data();
  for (const aft::Ipv4Entry& entry : aft.ipv4_entries()) {
    close_before(entry.prefix.first_address().bits());
    emit(entry.prefix.first_address().bits(), route);
    open.emplace_back(entry.prefix.last_address().bits(), route++);
  }
  close_before(uint64_t{1} << 32);
}

std::optional<ForwardingGraph::NodeId> ForwardingGraph::id_of(
    const net::NodeName& node) const {
  auto it = std::lower_bound(names_.begin(), names_.end(), node);
  if (it == names_.end() || *it != node) return std::nullopt;
  return static_cast<NodeId>(it - names_.begin());
}

const ForwardingGraph::Route* ForwardingGraph::route(NodeId node,
                                                     net::Ipv4Address destination) const {
  const CompiledNode& compiled = compiled_[node];
  auto it = std::upper_bound(compiled.lpm_starts.begin(), compiled.lpm_starts.end(),
                             destination.bits());
  return compiled.lpm_routes[static_cast<size_t>(it - compiled.lpm_starts.begin()) - 1];
}

std::span<const ForwardingGraph::Hop> ForwardingGraph::label_hops(NodeId node,
                                                                  uint32_t label) const {
  const std::span<const Hop>* hops = find_sorted(compiled_[node].labels, label);
  return hops == nullptr ? std::span<const Hop>() : *hops;
}

ForwardingGraph::NodeId ForwardingGraph::owner(net::Ipv4Address address) const {
  const NodeId* owner = find_sorted(owners_, address.bits());
  return owner == nullptr ? kNoNode : *owner;
}

const ForwardingGraph::Acl* ForwardingGraph::ingress_acl(NodeId node,
                                                         net::Ipv4Address address) const {
  const Acl* const* acl = find_sorted(compiled_[node].ingress, address.bits());
  return acl == nullptr ? nullptr : *acl;
}

bool ForwardingGraph::on_connected_subnet(NodeId node, net::Ipv4Address address) const {
  for (const net::Ipv4Prefix& subnet : compiled_[node].connected)
    if (subnet.contains(address)) return true;
  return false;
}

std::vector<net::Ipv4Prefix> ForwardingGraph::relevant_prefixes() const {
  std::set<net::Ipv4Prefix> prefixes;
  for (const auto& [node, device] : snapshot_.devices) {
    for (const aft::Ipv4Entry& entry : device.aft.ipv4_entries()) prefixes.insert(entry.prefix);
    for (const auto& [name, interface] : device.interfaces) {
      if (interface.address && interface.vrf.empty()) {
        prefixes.insert(interface.address->subnet);
        prefixes.insert(net::Ipv4Prefix::host(interface.address->address));
      }
      // Packet-filter match boundaries shape forwarding too: without them
      // a class could straddle a permit/deny edge.
      if (interface.acl_in)
        for (const aft::AclRule& rule : *interface.acl_in)
          prefixes.insert(rule.destination);
      if (interface.acl_out)
        for (const aft::AclRule& rule : *interface.acl_out)
          prefixes.insert(rule.destination);
    }
  }
  return {prefixes.begin(), prefixes.end()};
}

}  // namespace mfv::verify
