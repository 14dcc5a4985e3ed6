#include "rib/rib.hpp"

#include <algorithm>
#include <bit>
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

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

}  // namespace

class Rib::Names {
 public:
  explicit Names(const std::vector<std::string>& table) : table_(table) {}

  /// The id of `name`. A name the table lacks gets the id it will have
  /// once apply() appends `added()`, so a write that changes nothing
  /// leaves the table alone.
  uint32_t id(const std::string& name) {
    auto known = std::find(table_.begin(), table_.end(), name);
    if (known != table_.end()) return static_cast<uint32_t>(known - table_.begin());
    auto added = std::find(added_.begin(), added_.end(), name);
    if (added == added_.end()) added = added_.insert(added_.end(), name);
    return static_cast<uint32_t>(table_.size() + static_cast<size_t>(added - added_.begin()));
  }

  const std::vector<std::string>& added() const { return added_; }

 private:
  const std::vector<std::string>& table_;
  std::vector<std::string> added_;
};

Rib::Record Rib::record_of(const RibRoute& route, Names& names) {
  Record record;
  record.metric = route.metric;
  record.protocol = route.protocol;
  record.admin_distance = route.admin_distance;
  record.source = names.id(route.source);
  if (route.next_hop) {
    record.flags |= kNextHop;
    record.next_hop = route.next_hop->bits();
  }
  if (route.interface) {
    record.flags |= kInterface;
    record.interface = names.id(*route.interface);
  }
  if (route.drop) record.flags |= kDrop;
  if (route.push_label) {
    record.flags |= kLabel;
    record.push_label = *route.push_label;
  }
  return record;
}

bool Rib::same_slot(const Record& a, const Record& b) {
  constexpr uint8_t kIdentity = kNextHop | kInterface;
  return a.protocol == b.protocol && a.source == b.source && a.next_hop == b.next_hop &&
         a.interface == b.interface && (a.flags & kIdentity) == (b.flags & kIdentity);
}

std::pair<uint8_t, uint32_t> Rib::best_key(const Record* begin, const Record* end) {
  std::pair<uint8_t, uint32_t> best{begin->admin_distance, begin->metric};
  for (const Record* record = begin; record != end; ++record)
    best = std::min(best, std::pair(record->admin_distance, record->metric));
  return best;
}

Rib::Records Rib::best_of(const Records& records) {
  Records best;
  if (records.empty()) return best;
  const auto key = best_key(records.data(), records.data() + records.size());
  for (const Record& record : records)
    if (std::pair(record.admin_distance, record.metric) == key) best.push_back(record);
  return best;
}

void Rib::mark_dirty(const net::Ipv4Prefix& prefix) {
  if (all_dirty_) return;
  dirty_.push_back(prefix);
  // Churn between two compiles re-marks the same prefixes: compact, and
  // once the list outgrows the table, re-resolving everything is no
  // dearer than walking it.
  if (dirty_.size() > 2 * prefix_count() + 64) {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    if (dirty_.size() > prefix_count()) {
      all_dirty_ = true;
      dirty_.clear();
    }
  }
}

Rib::Dirty Rib::take_dirty() {
  Dirty dirty;
  dirty.all = all_dirty_;
  if (all_dirty_) {
    dirty.prefixes.reserve(prefix_count());
    for (const Slot& slot : table_->slots) dirty.prefixes.push_back(slot.prefix);
  } else {
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    dirty.prefixes = std::move(dirty_);
  }
  dirty_ = {};
  all_dirty_ = false;
  return dirty;
}

size_t Rib::lower_bound(const net::Ipv4Prefix& prefix) const {
  const std::vector<Slot>& slots = table_->slots;
  return static_cast<size_t>(std::lower_bound(slots.begin(), slots.end(), prefix,
                                              [](const Slot& slot, const net::Ipv4Prefix& key) {
                                                return slot.prefix < key;
                                              }) -
                             slots.begin());
}

size_t Rib::find(const net::Ipv4Prefix& prefix) const {
  const size_t slot = lower_bound(prefix);
  return slot < prefix_count() && table_->slots[slot].prefix == prefix ? slot : kNone;
}

Rib::Records Rib::slot_records(size_t slot) const {
  const Table& table = *table_;
  auto begin = table.records.begin() + table.slots[slot].begin;
  return Records(begin, begin + table.slots[slot].count);
}

RibRoute Rib::route(const net::Ipv4Prefix& prefix, const Record& record) const {
  const std::vector<std::string>& names = table_->names;
  RibRoute route;
  route.prefix = prefix;
  route.protocol = record.protocol;
  route.admin_distance = record.admin_distance;
  route.metric = record.metric;
  if (record.flags & kNextHop) route.next_hop = net::Ipv4Address(record.next_hop);
  if (record.flags & kInterface) route.interface = names[record.interface];
  route.drop = (record.flags & kDrop) != 0;
  if (record.flags & kLabel) route.push_label = record.push_label;
  route.source = names[record.source];
  return route;
}

std::vector<RibRoute> Rib::best_routes(const Slot& slot) const {
  const Record* begin = table_->records.data() + slot.begin;
  const Record* end = begin + slot.count;
  const auto key = best_key(begin, end);
  std::vector<RibRoute> routes;
  for (const Record* record = begin; record != end; ++record)
    if (std::pair(record->admin_distance, record->metric) == key)
      routes.push_back(route(slot.prefix, *record));
  return routes;
}

template <typename Match>
std::optional<Rib::Records> Rib::replaced(size_t slot, const Match& matches,
                                          const Records& want) const {
  const Record* begin = table_->records.data() + table_->slots[slot].begin;
  const Record* end = begin + table_->slots[slot].count;
  const size_t matching = static_cast<size_t>(std::count_if(begin, end, matches));
  bool same = matching == want.size();
  if (same && !want.empty()) {
    std::vector<bool> used(static_cast<size_t>(end - begin), false);
    for (const Record& w : want) {
      size_t i = 0;
      while (i < used.size() && (used[i] || !matches(begin[i]) || !(begin[i] == w))) ++i;
      if (i == used.size()) {
        same = false;
        break;
      }
      used[i] = true;
    }
  }
  if (same) return std::nullopt;
  Records out;
  out.reserve(static_cast<size_t>(end - begin) - matching + want.size());
  std::copy_if(begin, end, std::back_inserter(out), [&](const Record& r) { return !matches(r); });
  out.insert(out.end(), want.begin(), want.end());
  return out;
}

void Rib::apply(std::vector<Edit> edits, Names& names) {
  if (edits.empty()) return;
  Table& table = table_.mutate();
  table.names.insert(table.names.end(), names.added().begin(), names.added().end());

  // Same-sized rewrites of existing slots stay in place.
  std::vector<size_t> positions;  // each edit's lower bound in the slots
  positions.reserve(edits.size());
  bool in_place = true;
  for (const Edit& edit : edits) {
    positions.push_back(lower_bound(edit.prefix));
    const size_t slot = positions.back();
    in_place = in_place && slot < table.slots.size() && table.slots[slot].prefix == edit.prefix &&
               table.slots[slot].count == edit.records.size();
  }
  if (in_place) {
    for (size_t e = 0; e < edits.size(); ++e)
      std::copy(edits[e].records.begin(), edits[e].records.end(),
                table.records.begin() + table.slots[positions[e]].begin);
    return;
  }

  // One merge: runs of untouched slots are copied whole between edits.
  std::vector<Slot> slots;
  Records records;
  slots.reserve(table.slots.size() + edits.size());
  size_t fresh = 0;
  for (const Edit& edit : edits) fresh += edit.records.size();
  records.reserve(table.records.size() + fresh);
  uint64_t lengths = 0;
  size_t next = 0;  // first old slot not yet copied or replaced
  auto copy_until = [&](size_t end) {
    if (next == end) return;
    const uint32_t from = table.slots[next].begin;
    const uint32_t to = table.slots[end - 1].begin + table.slots[end - 1].count;
    const uint32_t offset = static_cast<uint32_t>(records.size());
    for (size_t i = next; i < end; ++i) {
      Slot slot = table.slots[i];
      slot.begin = slot.begin - from + offset;
      slots.push_back(slot);
      lengths |= uint64_t{1} << slot.prefix.length();
    }
    records.insert(records.end(), table.records.begin() + from, table.records.begin() + to);
    next = end;
  };
  for (size_t e = 0; e < edits.size(); ++e) {
    const Edit& edit = edits[e];
    copy_until(positions[e]);
    if (next < table.slots.size() && table.slots[next].prefix == edit.prefix) ++next;
    if (edit.records.empty()) continue;
    slots.push_back({edit.prefix, static_cast<uint32_t>(records.size()),
                     static_cast<uint32_t>(edit.records.size())});
    lengths |= uint64_t{1} << edit.prefix.length();
    records.insert(records.end(), edit.records.begin(), edit.records.end());
  }
  copy_until(table.slots.size());
  table.slots = std::move(slots);
  table.records = std::move(records);
  table.lengths = lengths;
}

bool Rib::rewrite(const net::Ipv4Prefix& prefix, const Records& before, Records after,
                  Names& names) {
  if (after == before) return false;
  const bool changed = best_of(after) != best_of(before);
  if (changed) mark_dirty(prefix);
  apply({{prefix, std::move(after)}}, names);
  return changed;
}

bool Rib::add(RibRoute route) {
  Names names(table_->names);
  const Record record = record_of(route, names);
  const size_t slot = find(route.prefix);
  const Records before = slot == kNone ? Records{} : slot_records(slot);
  Records after = before;
  auto same = std::find_if(after.begin(), after.end(), [&](const Record& existing) {
    return same_slot(existing, record);
  });
  if (same != after.end())
    *same = record;
  else
    after.push_back(record);
  return rewrite(route.prefix, before, std::move(after), names);
}

bool Rib::remove(const RibRoute& route) {
  const size_t slot = find(route.prefix);
  if (slot == kNone) return false;
  Names names(table_->names);
  const Record record = record_of(route, names);
  const Records before = slot_records(slot);
  Records after;
  for (const Record& existing : before)
    if (!same_slot(existing, record)) after.push_back(existing);
  return rewrite(route.prefix, before, std::move(after), names);
}

size_t Rib::clear_protocol(Protocol protocol, const std::string& source) {
  const size_t before = route_count();
  replace_protocol(protocol, source, {});
  return before - route_count();
}

bool Rib::replace_protocol(Protocol protocol, const std::string& source,
                           std::vector<RibRoute> fresh) {
  Names names(table_->names);
  std::vector<std::pair<net::Ipv4Prefix, Record>> incoming;
  incoming.reserve(fresh.size());
  for (const RibRoute& route : fresh) incoming.emplace_back(route.prefix, record_of(route, names));
  std::stable_sort(incoming.begin(), incoming.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // add()'s same-slot semantics within each prefix: a later route takes
  // the place of an earlier one occupying the same slot.
  std::vector<std::pair<net::Ipv4Prefix, Record>> folded;
  size_t group = 0;  // where the current prefix starts in `folded`
  for (const auto& item : incoming) {
    if (folded.empty() || folded.back().first != item.first) group = folded.size();
    auto same = std::find_if(folded.begin() + static_cast<ptrdiff_t>(group), folded.end(),
                             [&](const auto& f) { return same_slot(f.second, item.second); });
    if (same != folded.end())
      same->second = item.second;
    else
      folded.push_back(item);
  }
  // Every prefix held or incoming.
  std::vector<net::Ipv4Prefix> scope;
  scope.reserve(prefix_count() + folded.size());
  for (const Slot& slot : table_->slots) scope.push_back(slot.prefix);
  for (const auto& item : folded) scope.push_back(item.first);
  std::inplace_merge(scope.begin(), scope.begin() + static_cast<ptrdiff_t>(prefix_count()),
                     scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  return replace(protocol, source, scope, folded, names);
}

bool Rib::replace_prefixes(Protocol protocol, const std::string& source,
                           const std::vector<net::Ipv4Prefix>& prefixes,
                           std::vector<RibRoute> fresh) {
  Names names(table_->names);
  std::vector<std::pair<net::Ipv4Prefix, Record>> incoming;
  incoming.reserve(fresh.size());
  for (const RibRoute& route : fresh) incoming.emplace_back(route.prefix, record_of(route, names));
  return replace(protocol, source, prefixes, incoming, names);
}

bool Rib::replace(Protocol protocol, const std::string& source,
                  const std::vector<net::Ipv4Prefix>& scope,
                  const std::vector<std::pair<net::Ipv4Prefix, Record>>& incoming, Names& names) {
  const uint32_t source_id = source.empty() ? 0 : names.id(source);
  auto matches = [&](const Record& record) {
    return record.protocol == protocol && (source.empty() || record.source == source_id);
  };
  std::vector<Edit> edits;
  size_t in = 0;
  for (const net::Ipv4Prefix& prefix : scope) {
    Records want;
    for (; in < incoming.size() && incoming[in].first == prefix; ++in)
      want.push_back(incoming[in].second);
    const size_t slot = find(prefix);
    if (slot == kNone) {
      if (!want.empty()) edits.push_back({prefix, std::move(want)});
    } else if (std::optional<Records> out = replaced(slot, matches, want)) {
      edits.push_back({prefix, std::move(*out)});
    }
  }
  for (const Edit& edit : edits) mark_dirty(edit.prefix);
  const bool changed = !edits.empty();
  apply(std::move(edits), names);
  return changed;
}

std::vector<RibRoute> Rib::best(const net::Ipv4Prefix& prefix) const {
  const size_t slot = find(prefix);
  if (slot == kNone) return {};
  return best_routes(table_->slots[slot]);
}

std::vector<RibRoute> Rib::candidates(const net::Ipv4Prefix& prefix) const {
  const size_t slot = find(prefix);
  if (slot == kNone) return {};
  const Slot& found = table_->slots[slot];
  std::vector<RibRoute> routes;
  routes.reserve(found.count);
  for (uint32_t i = 0; i < found.count; ++i)
    routes.push_back(route(found.prefix, table_->records[found.begin + i]));
  return routes;
}

std::vector<RibRoute> Rib::longest_match(net::Ipv4Address destination) const {
  // Probe the prefix lengths present, longest first.
  for (uint64_t lengths = table_->lengths; lengths != 0;) {
    const int length = 63 - std::countl_zero(lengths);
    lengths &= ~(uint64_t{1} << length);
    const size_t slot = find(net::Ipv4Prefix(destination, static_cast<uint8_t>(length)));
    if (slot != kNone) return best_routes(table_->slots[slot]);
  }
  return {};
}

void Rib::for_each_best(
    const std::function<void(const net::Ipv4Prefix&, const std::vector<RibRoute>&)>& visit)
    const {
  for (const Slot& slot : table_->slots) visit(slot.prefix, best_routes(slot));
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
  const std::vector<aft::Ipv4Entry>& entries = fib.ipv4_entries();
  const std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>>& recursive = *recursive_;

  // The prefixes to re-resolve, sorted.
  std::vector<net::Ipv4Prefix> work;
  if (dirty.all) {
    // Every RIB prefix, and every programmed prefix the RIB may have lost.
    auto programmed = std::views::transform(entries, &aft::Ipv4Entry::prefix);
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

  // Merge the updates into a new entry table in prefix order, numbering
  // groups by first appearance as compile_fib does. Untouched entries are
  // copied, renumbered when their group's number moved.
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
  std::vector<aft::Ipv4Entry> fresh_entries;
  fresh_entries.reserve(std::max(entries.size(), updates.size()));
  auto old_it = entries.begin();
  for (size_t u = 0; old_it != entries.end() || u < updates.size();) {
    if (u == updates.size() || (old_it != entries.end() && old_it->prefix < updates[u].prefix)) {
      const aft::Ipv4Entry& entry = *old_it++;
      fresh_entries.push_back(entry);
      fresh_entries.back().next_hop_group = number(group_key(entry.next_hop_group));
      if (fresh_entries.back().next_hop_group != entry.next_hop_group) result.changed = true;
      continue;
    }
    const Update& update = updates[u++];
    const aft::Ipv4Entry* old = nullptr;
    if (old_it != entries.end() && old_it->prefix == update.prefix) old = &*old_it++;
    if (update.key == 0) {
      if (old != nullptr) result.changed = result.forwarding_changed = true;
      continue;
    }
    aft::Ipv4Entry entry;
    entry.prefix = update.prefix;
    entry.next_hop_group = number(update.key);
    entry.origin_protocol = protocol_name(update.protocol);
    entry.metric = update.metric;
    if (old == nullptr || group_key(old->next_hop_group) != update.key)
      result.forwarding_changed = true;
    if (old == nullptr || !(*old == entry)) result.changed = true;
    fresh_entries.push_back(std::move(entry));
  }

  // Next hops by first appearance: the groups in id order, each in
  // resolved-hop order, is the order compile_fib meets them.
  std::vector<aft::NextHop> next_hops;
  std::vector<aft::NextHopGroup> groups;
  std::map<ResolvedNextHop, uint64_t> hop_index;
  for (uint32_t key : group_order) {
    aft::NextHopGroup group;
    group.id = groups.size() + 1;
    for (const ResolvedNextHop& hop : *sets[key]) {
      auto [it, inserted] = hop_index.emplace(hop, hop_index.size() + 1);
      if (inserted) {
        next_hops.push_back(aft_next_hop(hop));
        next_hops.back().index = it->second;
      }
      group.next_hops.emplace_back(it->second, 1);
    }
    std::sort(group.next_hops.begin(), group.next_hops.end());
    groups.push_back(std::move(group));
  }

  // Label entries follow, one next hop and one group each. Their
  // forwarding changed unless every label keeps its next hop.
  auto old_label_hop = [&](uint32_t label) -> const aft::NextHop* {
    const aft::LabelEntry* entry = fib.label_entry(label);
    if (entry == nullptr) return nullptr;
    const aft::NextHopGroup* group = fib.group(entry->next_hop_group);
    if (group == nullptr || group->next_hops.size() != 1) return nullptr;
    return fib.next_hop(group->next_hops.front().first);
  };
  std::vector<aft::LabelEntry> label_entries;
  bool labels_equal = labels.size() == fib.label_entries().size();
  for (const auto& [label, hop] : labels) {
    aft::NextHop nh = hop;
    nh.index = next_hops.size() + 1;
    aft::NextHopGroup group;
    group.id = groups.size() + 1;
    group.next_hops.emplace_back(nh.index, 1);
    label_entries.push_back(aft::LabelEntry{label, group.id});
    if (const aft::NextHop* old = labels_equal ? old_label_hop(label) : nullptr) {
      aft::NextHop same_index = *old;
      same_index.index = nh.index;
      labels_equal = same_index == nh;
    } else {
      labels_equal = false;
    }
    next_hops.push_back(std::move(nh));
    groups.push_back(std::move(group));
  }
  if (!labels_equal) result.forwarding_changed = true;

  result.changed = result.changed || next_hops != fib.next_hops() ||
                   groups != fib.groups() || label_entries != fib.label_entries();
  if (result.changed)
    fib.replace_tables(std::move(next_hops), std::move(groups), std::move(fresh_entries),
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
