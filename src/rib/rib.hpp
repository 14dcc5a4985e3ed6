// Routing Information Base shared by all protocol engines on a virtual
// router.
//
// Each protocol installs candidate routes; the RIB selects the best
// route(s) per prefix by (administrative distance, metric), keeping ties
// as an ECMP set. `compile_fib` then performs recursive next-hop
// resolution and emits the OpenConfig-shaped AFT that the gNMI layer
// exports — i.e. this file is where "converged control plane state"
// becomes "dataplane forwarding state".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "aft/aft.hpp"
#include "net/ipv4.hpp"
#include "net/types.hpp"
#include "util/cow.hpp"

namespace mfv::rib {

enum class Protocol : uint8_t {
  kConnected,
  kLocal,    // the interface's own /32
  kStatic,
  kGribi,   // programmatically injected (gRIBI-style API)
  kOspf,
  kIsis,
  kBgp,      // eBGP-learned
  kIbgp,     // iBGP-learned
  kTe,       // RSVP-TE tunnel route
};

std::string protocol_name(Protocol protocol);

/// Default administrative distances (EOS-like).
uint8_t default_admin_distance(Protocol protocol);

struct RibRoute {
  net::Ipv4Prefix prefix;
  Protocol protocol = Protocol::kConnected;
  uint8_t admin_distance = 0;
  uint32_t metric = 0;
  /// Next-hop address; may require recursive resolution (e.g. BGP routes
  /// whose next hop is a remote loopback reached via IS-IS).
  std::optional<net::Ipv4Address> next_hop;
  /// Egress interface; set for connected/IGP routes, absent for recursive.
  std::optional<net::InterfaceName> interface;
  bool drop = false;
  /// MPLS label pushed when forwarding via this route (TE tunnels).
  std::optional<uint32_t> push_label;
  /// Provenance for CLI output and targeted withdrawal (peer address,
  /// IGP instance, tunnel name...).
  std::string source;

  bool operator==(const RibRoute&) const = default;

  /// Identity for add/replace: two routes with equal key describe the same
  /// RIB slot and the newer one replaces the older.
  bool same_slot(const RibRoute& other) const {
    return prefix == other.prefix && protocol == other.protocol && source == other.source &&
           next_hop == other.next_hop && interface == other.interface;
  }
};

/// The routing table. Candidates live in one flat block: a prefix-sorted
/// index of slots over a slab of trivially copyable route records, with
/// interface and source names interned into a per-RIB name table. The
/// block is shared copy-on-write, so copying a RIB (forking a router)
/// copies one pointer, and the first write after the copy clones the
/// block. Each write call is one sorted merge into the block, however
/// many prefixes it touches. Within a slot, candidates keep the order the
/// writes below define; `candidates` returns them in that order.
class Rib {
 public:
  /// Inserts or replaces (by slot identity). Returns true if the best-route
  /// set for the prefix changed.
  bool add(RibRoute route);

  /// Removes the route occupying the same slot. Returns true if the
  /// best-route set changed.
  bool remove(const RibRoute& route);

  /// Drops every route of `protocol` (optionally only those from `source`).
  /// Returns the number removed.
  size_t clear_protocol(Protocol protocol, const std::string& source = "");

  /// Replaces every route of (`protocol`, `source`) with `fresh`, as if by
  /// clear_protocol followed by add() of each route in order — but slots
  /// whose route set is already identical are left untouched. Returns
  /// true only when something actually changed, giving SPF-style full
  /// reinstalls a precise signal for notify_rib_changed().
  bool replace_protocol(Protocol protocol, const std::string& source,
                        std::vector<RibRoute> fresh);

  /// replace_protocol restricted to `prefixes` (sorted, unique): `fresh`
  /// holds the new (`protocol`, `source`) routes of those prefixes in
  /// prefix order, free of same-slot duplicates within a prefix. Other
  /// prefixes are not visited, so an engine that knows which of its
  /// prefixes changed pays only for those.
  bool replace_prefixes(Protocol protocol, const std::string& source,
                        const std::vector<net::Ipv4Prefix>& prefixes,
                        std::vector<RibRoute> fresh);

  /// Prefixes whose best-route set may have changed since the last
  /// take_dirty(). Every mutation marks what it touched; a fresh RIB is
  /// all dirty. The FIB compile consumes the set, so it is empty whenever
  /// the FIB is up to date.
  struct Dirty {
    bool all = false;
    /// Sorted and unique. When `all`, every prefix in the RIB.
    std::vector<net::Ipv4Prefix> prefixes;
  };
  Dirty take_dirty();

  /// Best route set (ECMP) for an exact prefix; empty if none.
  std::vector<RibRoute> best(const net::Ipv4Prefix& prefix) const;

  /// All candidate routes for an exact prefix (for CLI display).
  std::vector<RibRoute> candidates(const net::Ipv4Prefix& prefix) const;

  /// Longest-prefix match returning the best set of the covering prefix.
  std::vector<RibRoute> longest_match(net::Ipv4Address destination) const;

  /// Visits the best set of every prefix.
  void for_each_best(
      const std::function<void(const net::Ipv4Prefix&, const std::vector<RibRoute>&)>& visit)
      const;

  size_t prefix_count() const { return table_->slots.size(); }
  size_t route_count() const { return table_->records.size(); }

 private:
  /// One candidate route; its prefix is its slot's.
  struct Record {
    uint32_t metric = 0;
    uint32_t next_hop = 0;    // address bits, when kNextHop
    uint32_t push_label = 0;  // when kLabel
    uint32_t interface = 0;   // name id, when kInterface
    uint32_t source = 0;      // name id
    Protocol protocol = Protocol::kConnected;
    uint8_t admin_distance = 0;
    uint8_t flags = 0;
    bool operator==(const Record&) const = default;
  };
  static_assert(std::is_trivially_copyable_v<Record>);
  using Records = std::vector<Record>;
  static constexpr uint8_t kNextHop = 1;
  static constexpr uint8_t kInterface = 2;
  static constexpr uint8_t kDrop = 4;
  static constexpr uint8_t kLabel = 8;

  /// A prefix and its candidates, records[begin, begin + count).
  struct Slot {
    net::Ipv4Prefix prefix;
    uint32_t begin = 0;
    uint32_t count = 0;
  };

  struct Table {
    std::vector<Slot> slots;      // sorted by prefix, never empty slots
    Records records;              // in slot order
    std::vector<std::string> names;
    uint64_t lengths = 0;  // bit L set when some slot has prefix length L
  };

  /// A slot's new content, for a merge. An empty `records` erases it.
  struct Edit {
    net::Ipv4Prefix prefix;
    Records records;
  };

  class Names;

  static Record record_of(const RibRoute& route, Names& names);
  /// RibRoute::same_slot on records of one prefix.
  static bool same_slot(const Record& a, const Record& b);
  /// The lowest (admin distance, metric) in a non-empty candidate list:
  /// the best set is every candidate with this key, in slot order.
  static std::pair<uint8_t, uint32_t> best_key(const Record* begin, const Record* end);
  static Records best_of(const Records& records);

  /// The first slot not ordered before `prefix`.
  size_t lower_bound(const net::Ipv4Prefix& prefix) const;
  /// The slot of `prefix`, or SIZE_MAX.
  size_t find(const net::Ipv4Prefix& prefix) const;
  Records slot_records(size_t slot) const;
  RibRoute route(const net::Ipv4Prefix& prefix, const Record& record) const;
  std::vector<RibRoute> best_routes(const Slot& slot) const;
  /// replace_protocol's per-slot step: the slot's new content when the
  /// routes `matches` accepts differ from `want` as a multiset.
  template <typename Match>
  std::optional<Records> replaced(size_t slot, const Match& matches, const Records& want) const;
  /// Writes one slot's new content; returns whether its best set changed.
  bool rewrite(const net::Ipv4Prefix& prefix, const Records& before, Records after,
               Names& names);
  /// replace_prefixes over `scope` (sorted, unique), with `incoming`
  /// grouped in scope order.
  bool replace(Protocol protocol, const std::string& source,
               const std::vector<net::Ipv4Prefix>& scope,
               const std::vector<std::pair<net::Ipv4Prefix, Record>>& incoming, Names& names);
  /// Applies `edits` (sorted by prefix, unique) in one merge, adding the
  /// names `names` interned beyond the table's.
  void apply(std::vector<Edit> edits, Names& names);
  void mark_dirty(const net::Ipv4Prefix& prefix);

  util::Cow<Table> table_;
  std::vector<net::Ipv4Prefix> dirty_;  // unsorted, may repeat
  bool all_dirty_ = true;
};

/// One fully resolved forwarding action.
struct ResolvedNextHop {
  std::optional<net::Ipv4Address> next_hop;  // adjacent address; absent if attached
  net::InterfaceName interface;
  bool drop = false;
  std::optional<uint32_t> push_label;

  auto operator<=>(const ResolvedNextHop&) const = default;
};

/// Recursively resolves a route's next hop(s) against the RIB until routes
/// with explicit egress interfaces are reached. Returns empty if the next
/// hop is unresolvable (route stays out of the FIB).
std::vector<ResolvedNextHop> resolve(const Rib& rib, const RibRoute& route, int max_depth = 16);

/// Compiles the RIB into an AFT: best routes, recursive resolution,
/// ECMP groups, deduplicated next hops.
aft::Aft compile_fib(const Rib& rib);

/// MPLS label entries to append after the ipv4 tables: incoming label and
/// its one next hop (index ignored), in increasing label order, each label
/// once.
using LabelHops = std::vector<std::pair<uint32_t, aft::NextHop>>;

/// The incremental counterpart of compile_fib: keeps one AFT equal to
/// compile_fib(rib) plus `labels` (each label gets its own next hop and
/// group after the ipv4 ones) while doing work in proportion to what
/// changed. It re-resolves the prefixes the RIB marked dirty and the
/// recursive routes whose next hop lies inside one of them, merges them
/// with the untouched entries into new tables in one walk, renumbering
/// next hops and groups in the first-appearance order compile_fib uses,
/// and hands the tables to the AFT whole (Aft::replace_tables). A fresh
/// RIB is all dirty, so the first call is a full compile.
class FibPatcher {
 public:
  struct Result {
    /// The table's content changed (including metrics and indices).
    bool changed = false;
    /// Some entry's set of forwarding actions changed, or an entry came
    /// or went: the change Aft::forwarding_equal would see.
    bool forwarding_changed = false;
  };

  /// Consumes `rib`'s dirty set. `fib` must be this patcher's output for
  /// the same RIB (or empty, with the RIB all dirty).
  Result patch(Rib& rib, aft::Aft& fib, const LabelHops& labels = {});

 private:
  /// (next hop, prefix) for each recursive best route in the table: the
  /// prefixes a change covering that next hop must re-resolve. Sorted;
  /// shared between forks until one side changes it.
  util::Cow<std::vector<std::pair<net::Ipv4Address, net::Ipv4Prefix>>> recursive_;
};

}  // namespace mfv::rib
