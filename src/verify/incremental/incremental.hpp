// Incremental re-verification: verify the diff, not the world.
//
// A scenario fork (link cut, route withdraw, config replace) changes a
// handful of FIB entries; cold verification nevertheless re-traces every
// (source, destination) pair. This subsystem answers one query, the
// loopback-to-loopback pairwise matrix, by comparing the two compiled
// forwarding graphs at each destination's loopback and splicing at cell
// granularity. A node is a seed for a destination when one step of the
// trace solver towards that loopback can differ between base and fork. A
// destination without seeds comes straight out of the base's captured
// pairwise answer, and inside a dirty destination only the sources whose
// flows can meet a seed (the backward closure of the seeds over base
// forwarding) are re-traced (splicer.cpp). The splice is provably
// byte-identical to cold re-verification (DESIGN.md §11); whenever the
// preconditions fail (the node set or a label table changed, or the
// re-trace set exceeds a configurable fraction) it falls back to the cold
// path and says why.
//
// Only the scenario runner splices: its forks share one base and differ
// from it by small deltas, so a splice there saves more tracing than
// finding the seeds costs. Every other caller verifies cold (DESIGN.md §11
// has the measurements behind that choice).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "verify/queries.hpp"

namespace mfv::verify {

/// Reverse forwarding adjacency of the base graph, by node id, built
/// lazily per destination node at that node's loopback the first time a
/// splice's closure needs it (thread-safe: one once_flag per destination)
/// and shared read-only by every later query forking from the same base.
/// Definition is splicer.cpp-internal.
struct SpliceAdjacency;

/// The base snapshot's pairwise answer in splice-ready form: reachability
/// bits and loopbacks by node id. Captured once per scenario runner;
/// shared read-only across every fork's pairwise query (thread-safe by
/// construction: immutable after capture, the memo fills under
/// once_flags).
struct IncrementalBase {
  /// Base forwarding graph; must outlive this struct.
  const ForwardingGraph* graph = nullptr;
  /// Loopback of each node, by node id (nullopt = no column).
  std::vector<std::optional<net::Ipv4Address>> loopbacks;
  /// Row-major node x node bits: reachable[s * node_count + d] is 1 when
  /// node s reaches node d's loopback.
  std::vector<uint8_t> reachable;
  /// Per-destination reverse adjacency memo (see SpliceAdjacency), always
  /// allocated by capture_incremental_base. Mutable so closure() can fill
  /// it behind a const base.
  mutable std::unique_ptr<SpliceAdjacency> adjacency;

  IncrementalBase();
  // Out-of-line: SpliceAdjacency is incomplete here.
  ~IncrementalBase();
  IncrementalBase(const IncrementalBase&) = delete;
  IncrementalBase& operator=(const IncrementalBase&) = delete;

  /// The captured answer as pairwise_reachability() returns it.
  PairwiseResult pairwise() const;
};

/// Computes the base's pairwise answer on `graph` for later splicing.
/// Uses options.cache when set; records no shard latency (the capture is
/// not a query).
std::unique_ptr<IncrementalBase> capture_incremental_base(
    const ForwardingGraph& graph, const QueryOptions& options = {});

/// What one incremental query did, for tests / metrics / bench reporting.
struct IncrementalStats {
  /// Destination columns considered (every candidate node).
  size_t destinations = 0;
  /// Destinations with at least one seed (a node whose trace step towards
  /// the loopback can differ between base and fork), plus those whose
  /// loopback moved.
  size_t dirty_destinations = 0;
  /// Cells (source x destination) served verbatim from the base answer —
  /// every cell of a clean destination, plus the closure-clean cells of
  /// dirty ones.
  size_t spliced = 0;
  /// Cells re-traced on the candidate graph: spliced + retraced covers
  /// every cell of the matrix.
  size_t retraced = 0;
  /// Devices whose flows can meet a seed for some dirty destination: the
  /// union of the per-destination backward closures (all nodes once a
  /// destination re-traces whole). Reported for observability.
  size_t dirty_nodes = 0;
  bool fell_back = false;
  /// Why the cold path ran instead: "no-base", "node-set-delta",
  /// "label-delta" or "dirty-fraction".
  std::string fallback_reason;

  void accumulate(const IncrementalStats& other) {
    destinations += other.destinations;
    dirty_destinations += other.dirty_destinations;
    spliced += other.spliced;
    retraced += other.retraced;
    dirty_nodes += other.dirty_nodes;
    if (other.fell_back) {
      fell_back = true;
      if (fallback_reason.empty()) fallback_reason = other.fallback_reason;
    }
  }
};

/// Incremental engine behind pairwise_reachability(): splice clean
/// destinations — and the closure-clean cells of dirty ones — from
/// options.incremental's answer, re-trace the rest, or fall back to the
/// cold path (options with incremental cleared) when the preconditions
/// fail. Results are byte-identical to the cold call either way. Stats
/// are written to options.incremental_stats and mirrored into
/// options.metrics (verify_incremental_* family).
PairwiseResult incremental_pairwise(const ForwardingGraph& graph,
                                    const QueryOptions& options);

}  // namespace mfv::verify
