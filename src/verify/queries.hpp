// Verification queries over dataplane snapshots — the Pybatfish-style
// question layer of §4.2.
//
// All queries are exhaustive over the destination space: they enumerate the
// packet-class partition and resolve one representative per class through
// the memoized TraceCache engine, so "no differences found" is a statement
// about every possible destination address, not a sample.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "verify/packet_classes.hpp"
#include "verify/trace.hpp"

namespace mfv::obs {
class MetricsRegistry;
}

namespace mfv::verify {

class TraceCache;
struct IncrementalBase;
struct IncrementalStats;

struct QueryOptions {
  /// Sources to inject at; empty = every device.
  std::vector<net::NodeName> sources;
  /// Restrict the destination space (e.g. to loopback ranges); nullopt =
  /// the full IPv4 space.
  std::optional<net::Ipv4Prefix> scope;
  /// Worker threads for the query sweep: 0 = hardware concurrency. Every
  /// thread count runs the same memoized engine and gives byte-identical
  /// results (shard-indexed result slots; see util::parallel_for_shards).
  unsigned threads = 0;
  /// If non-empty, only rows whose disposition set intersects this filter
  /// are materialized (flow/class counters still cover every flow) — e.g.
  /// detect_loops() filters on kLoop so success rows are never built.
  DispositionSet row_filter;
  /// Long-lived memoization shared across queries (the service keeps one
  /// TraceCache per stored snapshot; api::Session keeps one per named
  /// snapshot). Must be built over the same ForwardingGraph the query runs
  /// on and must outlive the call. nullptr = a query-local cache.
  TraceCache* cache = nullptr;
  /// Candidate-side cache for differential queries (same contract).
  TraceCache* candidate_cache = nullptr;
  /// Ignored. The graph's compiled interval LPM tables made the per-query
  /// priming this used to request unnecessary; the field stays only
  /// because the benchmark harness still assigns it (mfvbench/layers.cpp)
  /// and goes together with that assignment.
  bool prime_lpm = true;
  /// Optional metrics sink. Sharded sweeps record per-shard wall time
  /// into the `verify_shard_latency_us` histogram, and query-local
  /// TraceCaches mirror their hit/miss counters into the registry.
  /// nullptr = no instrumentation (the hot loops pay one pointer test).
  obs::MetricsRegistry* metrics = nullptr;
  /// Base snapshot's captured pairwise answer (verify/incremental). When
  /// set, pairwise_reachability() diffs this graph against the base,
  /// re-traces only the (source, destination) cells the delta can
  /// actually affect and splices the rest from the base answer —
  /// byte-identical to the cold sweep, falling back to it whenever the
  /// delta is not expressible as a FIB diff. Every other query ignores
  /// it. Must outlive the call (the scenario runner keeps it alive for
  /// its sweeps).
  const IncrementalBase* incremental = nullptr;
  /// Fall back to cold re-verification once re-traced cells exceed this
  /// fraction of all cells (splicing would no longer pay for the diff).
  double incremental_max_dirty_fraction = 0.5;
  /// Optional out-param: dirty/splice/fallback accounting of the
  /// incremental engine (untouched when `incremental` is null).
  IncrementalStats* incremental_stats = nullptr;
};

// ---------------------------------------------------------------------------
// Reachability

struct ReachabilityRow {
  net::NodeName source;
  PacketClass destination;
  DispositionSet dispositions;
};

struct ReachabilityResult {
  std::vector<ReachabilityRow> rows;
  size_t classes = 0;
  size_t flows = 0;
};

/// Disposition of every (source, destination-class) flow.
ReachabilityResult reachability(const ForwardingGraph& graph,
                                const QueryOptions& options = {});

// ---------------------------------------------------------------------------
// Differential reachability (the paper's E1 query)

struct DifferentialRow {
  net::NodeName source;
  PacketClass destination;
  DispositionSet base;
  DispositionSet candidate;

  std::string to_string() const;
};

struct DifferentialResult {
  std::vector<DifferentialRow> rows;  // only flows whose dispositions differ
  size_t classes = 0;
  size_t flows = 0;

  bool empty() const { return rows.empty(); }
  /// Rows where the base succeeded and the candidate fails — regressions,
  /// the signal operators act on.
  std::vector<DifferentialRow> regressions() const;
};

/// Compares all flows between two snapshots (e.g. pre/post change, or
/// model-based vs. model-free dataplanes for identical configs — E3).
DifferentialResult differential_reachability(const ForwardingGraph& base,
                                             const ForwardingGraph& candidate,
                                             const QueryOptions& options = {});

// ---------------------------------------------------------------------------
// Routes question (Pybatfish `routes()`): tabular FIB view per node

struct RouteRow {
  net::NodeName node;
  net::Ipv4Prefix prefix;
  std::string protocol;
  uint32_t metric = 0;
  /// Rendered next hops ("10.0.0.1 via Ethernet1", "drop", ...).
  std::vector<std::string> next_hops;

  std::string to_string() const;
};

/// All FIB entries of `node` (or every node when empty), in prefix order.
std::vector<RouteRow> routes(const ForwardingGraph& graph,
                             const net::NodeName& node = "");

// ---------------------------------------------------------------------------
// Structural queries

/// (source, class) flows that traverse a forwarding loop.
ReachabilityResult detect_loops(const ForwardingGraph& graph,
                                const QueryOptions& options = {});

/// Loopback-style address of a device: first Loopback/lo interface address,
/// else its lowest interface address.
std::optional<net::Ipv4Address> device_loopback(const gnmi::Snapshot& snapshot,
                                                const net::NodeName& node);

struct PairwiseCell {
  net::NodeName source;
  net::NodeName destination;
  bool reachable = false;
};

struct PairwiseResult {
  std::vector<PairwiseCell> cells;
  size_t reachable_pairs = 0;
  size_t total_pairs = 0;

  bool full_mesh() const { return reachable_pairs == total_pairs && total_pairs > 0; }
};

/// Loopback-to-loopback reachability matrix ("full pair-wise reachability"
/// in §5's Fig. 3 experiment). Sharded by destination device; each
/// destination's trace table is memoized once and shared by all sources.
PairwiseResult pairwise_reachability(const ForwardingGraph& graph,
                                     const QueryOptions& options = {});

}  // namespace mfv::verify
