#include "rib/rib.hpp"

#include <algorithm>
#include <iterator>
#include <ranges>
#include <set>

namespace mfv::rib {

std::string protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return "CONNECTED";
    case Protocol::kLocal: return "LOCAL";
    case Protocol::kStatic: return "STATIC";
    case Protocol::kGribi: return "GRIBI";
    case Protocol::kOspf: return "OSPF";
    case Protocol::kIsis: return "ISIS";
    case Protocol::kBgp: return "BGP";
    case Protocol::kIbgp: return "IBGP";
    case Protocol::kTe: return "TE";
  }
  return "UNKNOWN";
}

uint8_t default_admin_distance(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return 0;
    case Protocol::kLocal: return 0;
    case Protocol::kStatic: return 1;
    case Protocol::kGribi: return 5;
    case Protocol::kTe: return 2;
    case Protocol::kBgp: return 20;
    case Protocol::kOspf: return 110;
    case Protocol::kIsis: return 115;
    case Protocol::kIbgp: return 200;
  }
  return 255;
}

void Rib::prefix_added(const net::Ipv4Prefix& prefix) {
  // Keep a valid trie valid: one insert beats a full rebuild on the next
  // longest_match (SPF/BGP churn interleaves mutation with LPM lookups).
  if (trie_valid_) trie_.insert(prefix, true);
}

void Rib::prefix_removed(const net::Ipv4Prefix& prefix) {
  if (trie_valid_) trie_.erase(prefix);
}

void Rib::mark_dirty(const net::Ipv4Prefix& prefix) {
  if (all_dirty_) return;
  dirty_.push_back(prefix);
  // Churn between two compiles re-marks the same prefixes: compact, and
  // once the list outgrows the table, re-resolving everything is no
  // dearer than walking it.
  if (dirty_.size() > 2 * routes_.size() + 64) {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    if (dirty_.size() > routes_.size()) {
      all_dirty_ = true;
      dirty_.clear();
    }
  }
}

Rib::Dirty Rib::take_dirty() {
  Dirty dirty;
  dirty.all = all_dirty_;
  if (all_dirty_) {
    dirty.prefixes.reserve(routes_.size());
    for (const auto& [prefix, slot] : routes_) dirty.prefixes.push_back(prefix);
  } else {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    dirty.prefixes = std::move(dirty_);
  }
  dirty_ = {};
  all_dirty_ = false;
  return dirty;
}

bool Rib::add(RibRoute route) {
  auto it = routes_.find(route.prefix);
  if (it == routes_.end()) {
    prefix_added(route.prefix);
    it = routes_.emplace(route.prefix, std::vector<RibRoute>{}).first;
  }
  auto& slot = it->second;
  std::vector<RibRoute> before = select_best(slot);
  bool replaced = false;
  for (auto& existing : slot) {
    if (existing.same_slot(route)) {
      existing = route;
      replaced = true;
      break;
    }
  }
  if (!replaced) slot.push_back(std::move(route));
  if (select_best(slot) == before) return false;
  mark_dirty(it->first);
  return true;
}

bool Rib::remove(const RibRoute& route) {
  auto it = routes_.find(route.prefix);
  if (it == routes_.end()) return false;
  auto& slot = it->second;
  std::vector<RibRoute> before = select_best(slot);
  auto removed = std::remove_if(slot.begin(), slot.end(),
                                [&](const RibRoute& r) { return r.same_slot(route); });
  if (removed == slot.end()) return false;
  slot.erase(removed, slot.end());
  bool changed;
  if (slot.empty()) {
    changed = !before.empty();
    if (changed) mark_dirty(it->first);
    prefix_removed(it->first);
    routes_.erase(it);
  } else {
    changed = select_best(slot) != before;
    if (changed) mark_dirty(it->first);
  }
  return changed;
}

size_t Rib::clear_protocol(Protocol protocol, const std::string& source) {
  size_t removed = 0;
  for (auto it = routes_.begin(); it != routes_.end();) {
    auto& slot = it->second;
    size_t before = slot.size();
    slot.erase(std::remove_if(slot.begin(), slot.end(),
                              [&](const RibRoute& r) {
                                return r.protocol == protocol &&
                                       (source.empty() || r.source == source);
                              }),
               slot.end());
    removed += before - slot.size();
    if (slot.size() != before) mark_dirty(it->first);
    if (slot.empty()) {
      prefix_removed(it->first);
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

template <typename Match>
bool Rib::replace_in_slot(std::map<net::Ipv4Prefix, std::vector<RibRoute>>::iterator& it,
                          const Match& matches, std::vector<RibRoute>* want) {
  auto& slot = it->second;
  std::vector<const RibRoute*> current;
  for (const RibRoute& r : slot)
    if (matches(r)) current.push_back(&r);
  size_t want_size = want ? want->size() : 0;
  bool same = current.size() == want_size;
  if (same && want) {
    std::vector<bool> used(current.size(), false);
    for (const RibRoute& w : *want) {
      bool found = false;
      for (size_t i = 0; i < current.size(); ++i) {
        if (!used[i] && *current[i] == w) {
          used[i] = true;
          found = true;
          break;
        }
      }
      if (!found) {
        same = false;
        break;
      }
    }
  }
  if (same) {
    ++it;
    return false;
  }
  mark_dirty(it->first);
  slot.erase(std::remove_if(slot.begin(), slot.end(), matches), slot.end());
  if (want)
    for (RibRoute& w : *want) slot.push_back(std::move(w));
  if (slot.empty()) {
    prefix_removed(it->first);
    it = routes_.erase(it);
  } else {
    ++it;
  }
  return true;
}

bool Rib::replace_protocol(Protocol protocol, const std::string& source,
                           std::vector<RibRoute> fresh) {
  // Group incoming routes by prefix with add()'s same-slot semantics
  // (later route replaces an earlier one occupying the same slot).
  std::map<net::Ipv4Prefix, std::vector<RibRoute>> incoming;
  for (RibRoute& route : fresh) {
    auto& slot = incoming[route.prefix];
    bool replaced = false;
    for (RibRoute& existing : slot) {
      if (existing.same_slot(route)) {
        existing = std::move(route);
        replaced = true;
        break;
      }
    }
    if (!replaced) slot.push_back(std::move(route));
  }

  auto matches = [&](const RibRoute& r) {
    return r.protocol == protocol && (source.empty() || r.source == source);
  };
  bool changed = false;

  // Existing prefixes: replace this protocol's routes only where the set
  // actually differs.
  for (auto it = routes_.begin(); it != routes_.end();) {
    auto in = incoming.find(it->first);
    if (in == incoming.end()) {
      changed |= replace_in_slot(it, matches, nullptr);
    } else {
      changed |= replace_in_slot(it, matches, &in->second);
      incoming.erase(in);
    }
  }

  // Whatever remains in `incoming` targets brand-new prefixes.
  for (auto& [prefix, want] : incoming) {
    prefix_added(prefix);
    mark_dirty(prefix);
    auto& slot = routes_[prefix];
    for (RibRoute& w : want) slot.push_back(std::move(w));
    changed = true;
  }
  return changed;
}

bool Rib::replace_prefix(Protocol protocol, const std::string& source,
                         const net::Ipv4Prefix& prefix, std::vector<RibRoute> fresh) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) {
    if (fresh.empty()) return false;
    prefix_added(prefix);
    mark_dirty(prefix);
    routes_.emplace(prefix, std::move(fresh));
    return true;
  }
  auto matches = [&](const RibRoute& r) {
    return r.protocol == protocol && (source.empty() || r.source == source);
  };
  return replace_in_slot(it, matches, fresh.empty() ? nullptr : &fresh);
}

std::vector<RibRoute> Rib::select_best(const std::vector<RibRoute>& routes) const {
  if (routes.empty()) return {};
  uint8_t best_distance = 255;
  uint32_t best_metric = UINT32_MAX;
  for (const auto& route : routes) {
    if (route.admin_distance < best_distance ||
        (route.admin_distance == best_distance && route.metric < best_metric)) {
      best_distance = route.admin_distance;
      best_metric = route.metric;
    }
  }
  std::vector<RibRoute> best;
  for (const auto& route : routes)
    if (route.admin_distance == best_distance && route.metric == best_metric)
      best.push_back(route);
  return best;
}

std::vector<RibRoute> Rib::best(const net::Ipv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return {};
  return select_best(it->second);
}

std::vector<RibRoute> Rib::candidates(const net::Ipv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return {};
  return it->second;
}

void Rib::rebuild_trie() const {
  trie_.clear();
  for (const auto& [prefix, slot] : routes_) trie_.insert(prefix, true);
  trie_valid_ = true;
}

std::vector<RibRoute> Rib::longest_match(net::Ipv4Address destination) const {
  if (!trie_valid_) rebuild_trie();
  auto match = trie_.longest_match(destination);
  if (!match) return {};
  return best(match->first);
}

void Rib::for_each_best(
    const std::function<void(const net::Ipv4Prefix&, const std::vector<RibRoute>&)>& visit)
    const {
  for (const auto& [prefix, slot] : routes_) {
    auto best_set = select_best(slot);
    if (!best_set.empty()) visit(prefix, best_set);
  }
}

size_t Rib::route_count() const {
  size_t count = 0;
  for (const auto& [prefix, slot] : routes_) count += slot.size();
  return count;
}

namespace {

void resolve_into(const Rib& rib, const RibRoute& route, int depth,
                  std::vector<ResolvedNextHop>& out) {
  if (depth <= 0) return;  // resolution loop or chain too deep
  if (route.drop) {
    out.push_back(ResolvedNextHop{std::nullopt, "", true, route.push_label});
    return;
  }
  if (route.interface) {
    // Directly resolvable: either attached (connected subnet, no next-hop
    // address) or adjacent (IGP route carrying both).
    out.push_back(ResolvedNextHop{route.next_hop, *route.interface, false, route.push_label});
    return;
  }
  if (!route.next_hop) return;  // malformed: nothing to resolve through
  // Recursive: look up the next hop itself.
  for (const RibRoute& via : rib.longest_match(*route.next_hop)) {
    // Self-referential match (e.g. a BGP route resolving through itself)
    // must not recurse forever; the covering route must be different.
    if (via.prefix == route.prefix && via.protocol == route.protocol &&
        via.next_hop == route.next_hop)
      continue;
    if (via.interface && via.protocol == Protocol::kConnected) {
      // Attached subnet: the original next hop is directly adjacent.
      out.push_back(
          ResolvedNextHop{route.next_hop, *via.interface, false, route.push_label});
    } else {
      size_t before = out.size();
      resolve_into(rib, via, depth - 1, out);
      // Labels from the outer route win (TE-over-IGP); copy onto new hops.
      if (route.push_label) {
        for (size_t i = before; i < out.size(); ++i)
          if (!out[i].push_label) out[i].push_label = route.push_label;
      }
    }
  }
}

aft::NextHop aft_next_hop(const ResolvedNextHop& hop) {
  aft::NextHop nh;
  nh.ip_address = hop.next_hop;
  if (!hop.interface.empty()) nh.interface = hop.interface;
  nh.drop = hop.drop;
  if (hop.push_label) {
    nh.label_op = aft::LabelOp::kPush;
    nh.label = *hop.push_label;
  }
  return nh;
}

ResolvedNextHop resolved_next_hop(const aft::NextHop& nh) {
  return ResolvedNextHop{nh.ip_address, nh.interface.value_or(""), nh.drop,
                         nh.label_op == aft::LabelOp::kPush ? std::optional<uint32_t>(nh.label)
                                                            : std::nullopt};
}

/// The (next hop, pushed label) a recursive route resolves through, when
/// its resolution depends on nothing else: resolve_into's
/// self-referential guard can fire only when the route's own prefix
/// covers its next hop. Full-table workloads resolve thousands of BGP
/// prefixes through a handful of next hops, so memoizing on this key
/// collapses the dominant compile cost.
using NextHopKey = std::pair<net::Ipv4Address, std::optional<uint32_t>>;
std::optional<NextHopKey> memo_key(const RibRoute& route) {
  bool memoizable = route.next_hop && !route.interface && !route.drop &&
                    !route.prefix.contains(*route.next_hop);
  if (!memoizable) return std::nullopt;
  return std::make_pair(*route.next_hop, route.push_label);
}

bool is_recursive(const RibRoute& route) {
  return route.next_hop && !route.interface && !route.drop;
}

}  // namespace

std::vector<ResolvedNextHop> resolve(const Rib& rib, const RibRoute& route, int max_depth) {
  std::vector<ResolvedNextHop> out;
  resolve_into(rib, route, max_depth, out);
  // Deduplicate (multiple candidate paths can resolve identically).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// resolve(), memoized on memo_key for the length of one compile.
class MemoizedResolver {
 public:
  explicit MemoizedResolver(const Rib& rib) : rib_(rib) {}

  const std::vector<ResolvedNextHop>& operator()(const RibRoute& route) {
    auto key = memo_key(route);
    if (!key) return scratch_ = resolve(rib_, route);
    auto it = memo_.find(*key);
    if (it == memo_.end()) it = memo_.emplace(*key, resolve(rib_, route)).first;
    return it->second;
  }

 private:
  const Rib& rib_;
  std::map<NextHopKey, std::vector<ResolvedNextHop>> memo_;
  std::vector<ResolvedNextHop> scratch_;
};

}  // namespace

aft::Aft compile_fib(const Rib& rib) {
  aft::Aft fib;
  // Deduplicate next hops across entries.
  std::map<ResolvedNextHop, uint64_t> next_hop_index;
  std::map<std::vector<uint64_t>, uint64_t> group_index;
  MemoizedResolver resolve_route(rib);

  // Second-level memo: (next hop, label) straight to the group id (0 =
  // resolves to nothing). A full-feed table maps thousands of single-path
  // BGP prefixes through a handful of next hops; once one such prefix has
  // been compiled, its siblings skip the per-hop dedup entirely. Pure
  // shortcut: a hit means the identical resolved set was already interned,
  // so the slow path would have created no new next hops or groups — the
  // emitted Aft (indices included) is identical either way.
  std::map<NextHopKey, uint64_t> group_memo;

  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    std::optional<NextHopKey> fast_key;
    if (best.size() == 1) {
      fast_key = memo_key(best.front());
      if (fast_key) {
        auto it = group_memo.find(*fast_key);
        if (it != group_memo.end()) {
          if (it->second == 0) return;  // memoized as unresolvable
          aft::Ipv4Entry entry;
          entry.prefix = prefix;
          entry.next_hop_group = it->second;
          entry.origin_protocol = protocol_name(best.front().protocol);
          entry.metric = best.front().metric;
          fib.set_ipv4_entry(std::move(entry));
          return;
        }
      }
    }

    std::set<ResolvedNextHop> resolved;
    for (const RibRoute& route : best)
      for (const ResolvedNextHop& hop : resolve_route(route))
        resolved.insert(hop);
    if (resolved.empty()) {  // unresolvable: not programmed
      if (fast_key) group_memo.emplace(*fast_key, 0);
      return;
    }

    std::vector<uint64_t> indices;
    for (const ResolvedNextHop& hop : resolved) {
      auto it = next_hop_index.find(hop);
      if (it == next_hop_index.end())
        it = next_hop_index.emplace(hop, fib.add_next_hop(aft_next_hop(hop))).first;
      indices.push_back(it->second);
    }
    std::sort(indices.begin(), indices.end());

    auto group_it = group_index.find(indices);
    if (group_it == group_index.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> weighted;
      for (uint64_t index : indices) weighted.emplace_back(index, 1);
      group_it = group_index.emplace(indices, fib.add_group(std::move(weighted))).first;
    }
    if (fast_key) group_memo.emplace(*fast_key, group_it->second);

    aft::Ipv4Entry entry;
    entry.prefix = prefix;
    entry.next_hop_group = group_it->second;
    entry.origin_protocol = protocol_name(best.front().protocol);
    entry.metric = best.front().metric;
    fib.set_ipv4_entry(std::move(entry));
  });
  return fib;
}

FibPatcher::Result FibPatcher::patch(Rib& rib, aft::Aft& fib, const LabelHops& labels) {
  Rib::Dirty dirty = rib.take_dirty();
  const std::map<net::Ipv4Prefix, aft::Ipv4Entry>& entries = fib.ipv4_entries();
  const std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>>& recursive = *recursive_;

  // The prefixes to re-resolve, sorted.
  std::vector<net::Ipv4Prefix> work;
  if (dirty.all) {
    // Every RIB prefix, and every programmed prefix the RIB may have lost.
    auto programmed = std::views::keys(entries);
    work.reserve(dirty.prefixes.size() + entries.size());
    std::set_union(dirty.prefixes.begin(), dirty.prefixes.end(), programmed.begin(),
                   programmed.end(), std::back_inserter(work));
  } else {
    work = std::move(dirty.prefixes);
    // A recursive route resolves through whatever covers its next hop, so
    // a change covering that next hop re-resolves it, and so on up the
    // chain (BGP over a static over the IGP).
    std::set<net::Ipv4Prefix> dependents;
    std::vector<net::Ipv4Prefix> frontier;
    if (!recursive.empty()) frontier = work;
    while (!frontier.empty()) {
      net::Ipv4Prefix covering = frontier.back();
      frontier.pop_back();
      auto it = std::lower_bound(
          recursive.begin(), recursive.end(), covering.first_address(),
          [](const auto& entry, net::Ipv4Address address) { return entry.first < address; });
      for (; it != recursive.end() && it->first <= covering.last_address(); ++it)
        if (!std::binary_search(work.begin(), work.end(), it->second) &&
            dependents.insert(it->second).second)
          frontier.push_back(it->second);
    }
    size_t middle = work.size();
    work.insert(work.end(), dependents.begin(), dependents.end());
    std::inplace_merge(work.begin(), work.begin() + static_cast<ptrdiff_t>(middle), work.end());
  }
  if (work.empty() && labels.empty() && fib.label_entries().empty()) return {};

  // Next-hop sets, interned: equal keys <=> equal sets. Key 0 = nothing
  // to program.
  std::map<std::vector<ResolvedNextHop>, uint32_t> keys;
  std::vector<const std::vector<ResolvedNextHop>*> sets{nullptr};
  auto intern = [&](std::vector<ResolvedNextHop> hops) -> uint32_t {
    if (hops.empty()) return 0;
    auto [it, inserted] = keys.emplace(std::move(hops), static_cast<uint32_t>(sets.size()));
    if (inserted) sets.push_back(&it->first);
    return it->second;
  };
  // The current table's groups, keyed on first use.
  constexpr uint32_t kUnkeyed = UINT32_MAX;
  std::vector<uint32_t> group_keys;
  auto group_key = [&](uint64_t id) -> uint32_t {
    if (id >= group_keys.size()) group_keys.resize(id + 1, kUnkeyed);
    if (group_keys[id] == kUnkeyed) {
      std::vector<ResolvedNextHop> hops;
      if (const aft::NextHopGroup* group = fib.group(id))
        for (const auto& [index, weight] : group->next_hops)
          if (const aft::NextHop* nh = fib.next_hop(index)) hops.push_back(resolved_next_hop(*nh));
      std::sort(hops.begin(), hops.end());
      hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
      group_keys[id] = intern(std::move(hops));
    }
    return group_keys[id];
  };

  // Re-resolve the work list, with compile_fib's memos.
  struct Update {
    net::Ipv4Prefix prefix;
    uint32_t key = 0;
    Protocol protocol = Protocol::kConnected;
    uint32_t metric = 0;
  };
  std::vector<Update> updates;
  updates.reserve(work.size());
  std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>> fresh_recursive;
  MemoizedResolver resolve_route(rib);
  std::map<NextHopKey, uint32_t> key_memo;
  for (const net::Ipv4Prefix& prefix : work) {
    Update update{prefix};
    std::vector<RibRoute> best = rib.best(prefix);
    if (!best.empty()) {
      update.protocol = best.front().protocol;
      update.metric = best.front().metric;
      for (const RibRoute& route : best)
        if (is_recursive(route)) fresh_recursive.emplace_back(*route.next_hop, prefix);
      std::optional<NextHopKey> fast_key;
      if (best.size() == 1) fast_key = memo_key(best.front());
      auto hit = fast_key ? key_memo.find(*fast_key) : key_memo.end();
      if (hit != key_memo.end()) {
        update.key = hit->second;
      } else {
        std::vector<ResolvedNextHop> hops;
        for (const RibRoute& route : best)
          for (const ResolvedNextHop& hop : resolve_route(route)) hops.push_back(hop);
        std::sort(hops.begin(), hops.end());
        hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
        update.key = intern(std::move(hops));
        if (fast_key) key_memo.emplace(*fast_key, update.key);
      }
    }
    updates.push_back(update);
  }

  // Merge the updates into the table in prefix order, numbering groups by
  // first appearance as compile_fib does. Untouched entries are rewritten
  // only when their group's number moved.
  Result result;
  std::vector<uint64_t> group_ids;  // key -> new group id (0 = not yet seen)
  std::vector<uint32_t> group_order;  // new group id - 1 -> key
  auto number = [&](uint32_t key) -> uint64_t {
    if (key >= group_ids.size()) group_ids.resize(sets.size(), 0);
    if (group_ids[key] == 0) {
      group_order.push_back(key);
      group_ids[key] = group_order.size();
    }
    return group_ids[key];
  };
  std::vector<net::Ipv4Prefix> erase;
  std::vector<aft::Ipv4Entry> write;
  auto old_it = entries.begin();
  for (size_t u = 0; old_it != entries.end() || u < updates.size();) {
    if (u == updates.size() || (old_it != entries.end() && old_it->first < updates[u].prefix)) {
      const aft::Ipv4Entry& entry = (old_it++)->second;
      uint64_t id = number(group_key(entry.next_hop_group));
      if (id != entry.next_hop_group) {
        write.push_back(entry);
        write.back().next_hop_group = id;
      }
      continue;
    }
    const Update& update = updates[u++];
    const aft::Ipv4Entry* old = nullptr;
    if (old_it != entries.end() && old_it->first == update.prefix) old = &(old_it++)->second;
    if (update.key == 0) {
      if (old != nullptr) {
        erase.push_back(update.prefix);
        result.forwarding_changed = true;
      }
      continue;
    }
    aft::Ipv4Entry entry;
    entry.prefix = update.prefix;
    entry.next_hop_group = number(update.key);
    entry.origin_protocol = protocol_name(update.protocol);
    entry.metric = update.metric;
    if (old == nullptr || group_key(old->next_hop_group) != update.key)
      result.forwarding_changed = true;
    if (old == nullptr || !(*old == entry)) write.push_back(std::move(entry));
  }

  // Next hops by first appearance: the groups in id order, each in
  // resolved-hop order, is the order compile_fib meets them.
  std::map<uint64_t, aft::NextHop> next_hops;
  std::map<uint64_t, aft::NextHopGroup> groups;
  std::map<ResolvedNextHop, uint64_t> hop_index;
  for (uint32_t key : group_order) {
    aft::NextHopGroup group;
    group.id = groups.size() + 1;
    for (const ResolvedNextHop& hop : *sets[key]) {
      auto [it, inserted] = hop_index.emplace(hop, hop_index.size() + 1);
      if (inserted) {
        aft::NextHop nh = aft_next_hop(hop);
        nh.index = it->second;
        next_hops.emplace_hint(next_hops.end(), nh.index, std::move(nh));
      }
      group.next_hops.emplace_back(it->second, 1);
    }
    std::sort(group.next_hops.begin(), group.next_hops.end());
    groups.emplace_hint(groups.end(), group.id, std::move(group));
  }

  // Label entries follow, one next hop and one group each. Their
  // forwarding changed unless every label keeps its next hop.
  auto old_label_hop = [&](uint32_t label) -> const aft::NextHop* {
    auto entry = fib.label_entries().find(label);
    if (entry == fib.label_entries().end()) return nullptr;
    const aft::NextHopGroup* group = fib.group(entry->second.next_hop_group);
    if (group == nullptr || group->next_hops.size() != 1) return nullptr;
    return fib.next_hop(group->next_hops.front().first);
  };
  std::map<uint32_t, aft::LabelEntry> label_entries;
  bool labels_equal = labels.size() == fib.label_entries().size();
  for (const auto& [label, hop] : labels) {
    aft::NextHop nh = hop;
    nh.index = next_hops.size() + 1;
    aft::NextHopGroup group;
    group.id = groups.size() + 1;
    group.next_hops.emplace_back(nh.index, 1);
    label_entries[label] = aft::LabelEntry{label, group.id};
    if (const aft::NextHop* old = labels_equal ? old_label_hop(label) : nullptr) {
      aft::NextHop same_index = *old;
      same_index.index = nh.index;
      labels_equal = same_index == nh;
    } else {
      labels_equal = false;
    }
    next_hops.emplace(nh.index, std::move(nh));
    groups.emplace(group.id, std::move(group));
  }
  if (!labels_equal) result.forwarding_changed = true;

  result.changed = !erase.empty() || !write.empty() || next_hops != fib.next_hops() ||
                   groups != fib.groups() || label_entries != fib.label_entries();
  if (result.changed)
    fib.patch(erase, std::move(write), std::move(next_hops), std::move(groups),
              std::move(label_entries));

  // Re-index the recursive routes of every re-resolved prefix.
  std::sort(fresh_recursive.begin(), fresh_recursive.end());
  if (!dirty.all && !recursive.empty()) {
    std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>> kept;
    kept.reserve(recursive.size());
    for (const auto& entry : recursive)
      if (!std::binary_search(work.begin(), work.end(), entry.second)) kept.push_back(entry);
    std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>> merged;
    merged.reserve(kept.size() + fresh_recursive.size());
    std::merge(kept.begin(), kept.end(), fresh_recursive.begin(), fresh_recursive.end(),
               std::back_inserter(merged));
    fresh_recursive = std::move(merged);
  }
  if (fresh_recursive != recursive) recursive_ = std::move(fresh_recursive);
  return result;
}

}  // namespace mfv::rib
