// FibDelta: reduce the diff of two compiled dataplanes to the set of
// destination addresses it can affect. The dirty-set rules (and the
// argument that an address outside every dirty range traces identically
// on both snapshots) are documented in DESIGN.md §11.
#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_map>

#include "verify/incremental/incremental.hpp"

namespace mfv::verify {

namespace {

/// Behavioural view of one weighted next hop, deliberately dropping the
/// table index: a fork can renumber hop/group indices without changing
/// forwarding, and index-sensitive comparison would dirty the world.
using HopBehavior = std::tuple<uint64_t /*weight*/, std::optional<net::Ipv4Address>,
                               std::optional<net::InterfaceName>, bool /*drop*/,
                               aft::LabelOp, uint32_t /*label*/>;

std::vector<HopBehavior> resolved_hops(const aft::Aft& aft, uint64_t group_id) {
  std::vector<HopBehavior> hops;
  const aft::NextHopGroup* group = aft.group(group_id);
  if (group == nullptr) return hops;
  for (const auto& [index, weight] : group->next_hops) {
    const aft::NextHop* hop = aft.next_hop(index);
    // Dangling indices are skipped exactly like the ForwardingGraph compile.
    if (hop == nullptr) continue;
    hops.emplace_back(weight, hop->ip_address, hop->interface, hop->drop,
                      hop->label_op, hop->label);
  }
  return hops;
}

/// Memoizes resolved_hops per group id for one side of a device: FIB
/// entries overwhelmingly share a handful of groups, and resolving (two
/// vector allocations per entry pair) dominated diff time on wide
/// topologies.
class HopResolver {
 public:
  explicit HopResolver(const aft::Aft& aft) : aft_(aft) {}
  const std::vector<HopBehavior>& resolve(uint64_t group_id) {
    auto [it, inserted] = memo_.try_emplace(group_id);
    if (inserted) it->second = resolved_hops(aft_, group_id);
    return it->second;
  }

 private:
  const aft::Aft& aft_;
  std::unordered_map<uint64_t, std::vector<HopBehavior>> memo_;
};

/// Address-ownership map with the exact ForwardingGraph rule (default
/// instance, up, addressed; device/interface map order with last-wins
/// overwrite), so ownership deltas are judged by what the graph will see.
std::map<uint32_t, net::NodeName> owner_map(const gnmi::Snapshot& snapshot) {
  std::map<uint32_t, net::NodeName> owners;
  for (const auto& [node, device] : snapshot.devices)
    for (const auto& [name, interface] : device.interfaces)
      if (interface.oper_up && interface.address && interface.vrf.empty())
        owners[interface.address->address.bits()] = node;
  return owners;
}

bool partition_visible(const aft::InterfaceState& interface) {
  // Mirrors relevant_prefixes(): an addressed default-instance interface
  // contributes its subnet and host prefixes regardless of oper state.
  return interface.address.has_value() && interface.vrf.empty();
}

bool has_acls(const aft::InterfaceState& interface) {
  return interface.acl_in.has_value() || interface.acl_out.has_value();
}

class RangeCollector {
 public:
  void add(net::Ipv4Prefix prefix) {
    raw_.emplace_back(prefix.first_address().bits(), prefix.last_address().bits());
  }
  void add_interface_ranges(const aft::InterfaceState& interface) {
    if (!partition_visible(interface)) return;
    add(interface.address->subnet);
    add(net::Ipv4Prefix::host(interface.address->address));
  }

  /// Sorted, disjoint, merged intervals (adjacent ranges coalesce).
  std::vector<std::pair<uint32_t, uint32_t>> merged() && {
    std::sort(raw_.begin(), raw_.end());
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (const auto& [lo, hi] : raw_) {
      if (!out.empty() && lo <= out.back().second) {
        out.back().second = std::max(out.back().second, hi);
      } else if (!out.empty() && out.back().second != UINT32_MAX &&
                 lo == out.back().second + 1) {
        out.back().second = hi;
      } else {
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> raw_;
};

FibDelta inexpressible(std::string reason) {
  FibDelta delta;
  delta.expressible = false;
  delta.fallback_reason = std::move(reason);
  return delta;
}

}  // namespace

bool FibDelta::intersects(const std::vector<std::pair<uint32_t, uint32_t>>& ranges,
                          net::Ipv4Address first, net::Ipv4Address last) {
  // First range that could still cover `first` (ranges are sorted and
  // disjoint, so the candidate is the one with the smallest hi >= first).
  auto it = std::partition_point(
      ranges.begin(), ranges.end(),
      [&](const std::pair<uint32_t, uint32_t>& range) {
        return range.second < first.bits();
      });
  return it != ranges.end() && it->first <= last.bits();
}

FibDelta diff_fibs(const gnmi::Snapshot& base, const gnmi::Snapshot& candidate) {
  // Device add/remove changes the source set and the trace universe
  // itself; no address range captures that.
  {
    auto b = base.devices.begin();
    auto c = candidate.devices.begin();
    for (; b != base.devices.end() && c != candidate.devices.end(); ++b, ++c)
      if (b->first != c->first) return inexpressible("node-set-delta");
    if (b != base.devices.end() || c != candidate.devices.end())
      return inexpressible("node-set-delta");
  }

  FibDelta delta;
  RangeCollector ranges;
  std::map<uint32_t, net::NodeName> base_owners = owner_map(base);
  std::map<uint32_t, net::NodeName> candidate_owners = owner_map(candidate);
  std::set<uint32_t> ownership_changed;
  for (const auto& [bits, node] : base_owners) {
    auto it = candidate_owners.find(bits);
    if (it == candidate_owners.end() || it->second != node) ownership_changed.insert(bits);
  }
  for (const auto& [bits, node] : candidate_owners)
    if (!base_owners.count(bits)) ownership_changed.insert(bits);

  for (const auto& [node, base_device] : base.devices) {
    const auto& candidate_device = candidate.devices.at(node);
    // Every range is attributed to the node whose delta produced it (the
    // per-cell splice closure keys off this) and unioned globally.
    RangeCollector node_ranges;

    // --- interfaces ---------------------------------------------------
    std::set<net::InterfaceName> interface_names;
    for (const auto& [name, interface] : base_device.interfaces)
      interface_names.insert(name);
    for (const auto& [name, interface] : candidate_device.interfaces)
      interface_names.insert(name);
    for (const net::InterfaceName& name : interface_names) {
      auto b = base_device.interfaces.find(name);
      auto c = candidate_device.interfaces.find(name);
      const aft::InterfaceState* bs =
          b == base_device.interfaces.end() ? nullptr : &b->second;
      const aft::InterfaceState* cs =
          c == candidate_device.interfaces.end() ? nullptr : &c->second;
      // Packet-filter deltas move permit/deny boundaries, which the
      // dirty ranges don't model (filters match independently of the
      // forwarding prefixes we diff).
      std::optional<std::vector<aft::AclRule>> no_acl;
      const auto& b_in = bs ? bs->acl_in : no_acl;
      const auto& c_in = cs ? cs->acl_in : no_acl;
      const auto& b_out = bs ? bs->acl_out : no_acl;
      const auto& c_out = cs ? cs->acl_out : no_acl;
      if (b_in != c_in || b_out != c_out) return inexpressible("acl-delta");

      auto tuple_of = [](const aft::InterfaceState* state) {
        return state == nullptr
                   ? std::make_tuple(std::optional<net::InterfaceAddress>{}, false,
                                     std::string{})
                   : std::make_tuple(state->address, state->oper_up, state->vrf);
      };
      if (tuple_of(bs) == tuple_of(cs)) continue;
      // A moved/re-homed interface that carries filters can change which
      // InterfaceState resolves an ingress check — out of range scope.
      if ((bs && has_acls(*bs)) || (cs && has_acls(*cs)))
        return inexpressible("acl-delta");
      // Exact-address collision on the same device: ingress resolution
      // (interface_owning) is iteration-order sensitive, so a delta on
      // the shadowing interface can silently re-home a filter check to a
      // sibling that carries one — also out of range scope.
      auto shadows_filtered_sibling = [&](const aft::DeviceAft& device,
                                          const aft::InterfaceState* moved) {
        if (moved == nullptr || !moved->address) return false;
        for (const auto& [other_name, other] : device.interfaces)
          if (&other != moved && has_acls(other) && other.address &&
              other.address->address == moved->address->address)
            return true;
        return false;
      };
      if (shadows_filtered_sibling(base_device, bs) ||
          shadows_filtered_sibling(candidate_device, cs))
        return inexpressible("acl-delta");
      ++delta.nodes[node].interfaces;
      if (bs) {
        ranges.add_interface_ranges(*bs);
        node_ranges.add_interface_ranges(*bs);
      }
      if (cs) {
        ranges.add_interface_ranges(*cs);
        node_ranges.add_interface_ranges(*cs);
      }
    }

    // A device whose Aft still shares the base's copy-on-write storage
    // was never recompiled by the fork: its label table and FIB are
    // bit-identical, so the walks below can only find nothing — skip
    // them. Only safe with no ownership moves (those dirty entries whose
    // *contents* didn't change, and label hops to a moved address are
    // inexpressible either way).
    if (ownership_changed.empty() &&
        base_device.aft.shares_tables(candidate_device.aft)) {
      std::vector<std::pair<uint32_t, uint32_t>> merged =
          std::move(node_ranges).merged();
      if (!merged.empty()) delta.node_dirty_ranges.emplace(node, std::move(merged));
      continue;
    }
    HopResolver base_hops(base_device.aft);
    HopResolver candidate_hops(candidate_device.aft);

    // --- MPLS label tables --------------------------------------------
    // Labelled traffic is addressed by label, not destination IP: a label
    // delta (or a label hop whose target's ownership moved) can reroute
    // traffic destined anywhere a push exists, so no range bounds it.
    {
      std::set<uint32_t> labels;
      for (const auto& [label, entry] : base_device.aft.label_entries())
        labels.insert(label);
      for (const auto& [label, entry] : candidate_device.aft.label_entries())
        labels.insert(label);
      for (uint32_t label : labels) {
        const auto& b_entries = base_device.aft.label_entries();
        const auto& c_entries = candidate_device.aft.label_entries();
        auto b_it = b_entries.find(label);
        auto c_it = c_entries.find(label);
        if ((b_it == b_entries.end()) != (c_it == c_entries.end()))
          return inexpressible("label-delta");
        const std::vector<HopBehavior>& b_hops =
            base_hops.resolve(b_it->second.next_hop_group);
        const std::vector<HopBehavior>& c_hops =
            candidate_hops.resolve(c_it->second.next_hop_group);
        if (b_hops != c_hops) return inexpressible("label-delta");
        for (const HopBehavior& hop : c_hops) {
          const auto& address = std::get<1>(hop);
          if (address && ownership_changed.count(address->bits()))
            return inexpressible("label-delta");
        }
      }
    }

    // --- IPv4 FIB entries ---------------------------------------------
    const auto& base_entries = base_device.aft.ipv4_entries();
    const auto& candidate_entries = candidate_device.aft.ipv4_entries();
    auto b = base_entries.begin();
    auto c = candidate_entries.begin();
    auto dirty_entry = [&](const net::Ipv4Prefix& prefix) {
      ranges.add(prefix);
      node_ranges.add(prefix);
    };
    while (b != base_entries.end() || c != candidate_entries.end()) {
      if (c == candidate_entries.end() ||
          (b != base_entries.end() && b->first < c->first)) {
        ++delta.nodes[node].removed;
        ++delta.entries_removed;
        dirty_entry(b->first);
        ++b;
        continue;
      }
      if (b == base_entries.end() || c->first < b->first) {
        ++delta.nodes[node].added;
        ++delta.entries_added;
        dirty_entry(c->first);
        ++c;
        continue;
      }
      const std::vector<HopBehavior>& b_hops =
          base_hops.resolve(b->second.next_hop_group);
      const std::vector<HopBehavior>& c_hops =
          candidate_hops.resolve(c->second.next_hop_group);
      bool changed = b_hops != c_hops || b->second.metric != c->second.metric ||
                     b->second.origin_protocol != c->second.origin_protocol;
      if (!changed) {
        // Same entry, but a hop address whose ownership moved lands the
        // packet on a different device now: dirty the entry's coverage.
        for (const HopBehavior& hop : c_hops) {
          const auto& address = std::get<1>(hop);
          if (address && ownership_changed.count(address->bits())) {
            changed = true;
            break;
          }
        }
      }
      if (changed) {
        ++delta.nodes[node].changed;
        ++delta.entries_changed;
        dirty_entry(c->first);
      }
      ++b;
      ++c;
    }

    std::vector<std::pair<uint32_t, uint32_t>> merged = std::move(node_ranges).merged();
    if (!merged.empty()) delta.node_dirty_ranges.emplace(node, std::move(merged));
  }

  delta.dirty_ranges = std::move(ranges).merged();
  return delta;
}

}  // namespace mfv::verify
