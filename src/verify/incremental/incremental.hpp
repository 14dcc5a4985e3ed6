// Incremental re-verification: verify the diff, not the world.
//
// A scenario fork (link cut, route withdraw, config replace) changes a
// handful of FIB entries; cold verification nevertheless re-partitions the
// packet space and re-traces every (source, class) flow. This subsystem
// diffs the two compiled dataplanes (FibDelta), computes which destination
// addresses the delta can possibly affect — per node, not just globally —
// and splices at cell granularity: a clean class column comes straight out
// of the base snapshot's captured disposition matrix, and even inside a
// dirty column only the sources whose flows can meet a dirty node (the
// backward closure of the per-class dirty node set over base∪candidate
// forwarding) are re-traced; every other cell splices too
// (DispositionSplicer, splicer.cpp). The splice is provably byte-identical
// to cold re-verification (DESIGN.md §11); whenever the preconditions
// fail — the delta is not expressible as a FIB diff, or the re-trace set
// exceeds a configurable fraction — it falls back to the cold path and
// says why.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "verify/queries.hpp"

namespace mfv::verify {

/// Cached reverse forwarding adjacency of the base graph, by node id,
/// built lazily per base class the first time an incremental query's
/// closure touches it (thread-safe: one once_flag per class) and shared
/// read-only by every later query forking from the same base. Sound
/// because base forwarding at a class representative is uniform over the
/// containing base class — every FIB prefix and interface subnet/host
/// range is a partition boundary. Definition is splicer.cpp-internal.
struct SpliceAdjacency;

/// The base snapshot's verify result in splice-ready form: the full
/// sources x classes disposition matrix (no row filter) plus the exact
/// partition and scope it was computed under. Captured once per stored
/// snapshot; shared read-only across every incremental query that forks
/// from it (thread-safe by construction: immutable after capture).
struct IncrementalBase {
  /// Base forwarding graph; must outlive this struct (the snapshot store
  /// keeps both in one entry).
  const ForwardingGraph* graph = nullptr;
  /// Resolved source order of the capture (row order of `matrix`).
  std::vector<net::NodeName> sources;
  /// Source name -> row index, for splicing under a different source list.
  std::map<net::NodeName, size_t> source_index;
  std::optional<net::Ipv4Prefix> scope;
  /// Base packet-class partition (column order of `matrix`).
  std::vector<PacketClass> classes;
  /// Row-major: matrix[s * classes.size() + c].
  std::vector<DispositionSet> matrix;
  /// Per-base-class reverse adjacency memo (see SpliceAdjacency), always
  /// allocated by capture_incremental_base. Mutable so closure() can fill
  /// it behind a const base; the internal once_flags make concurrent
  /// fills safe.
  mutable std::unique_ptr<SpliceAdjacency> adjacency;

  IncrementalBase();
  // Out-of-line: SpliceAdjacency is incomplete here.
  ~IncrementalBase();
  IncrementalBase(const IncrementalBase&) = delete;
  IncrementalBase& operator=(const IncrementalBase&) = delete;
};

/// Computes the full disposition matrix of `graph` under `options`
/// (ignoring any row filter) for later splicing. Uses options.cache when
/// set, so the capture doubles as a full cache warm-up.
std::unique_ptr<IncrementalBase> capture_incremental_base(
    const ForwardingGraph& graph, const QueryOptions& options = {});

/// What one incremental query did, for tests / metrics / bench reporting.
struct IncrementalStats {
  /// Candidate-side columns considered (packet classes for reachability,
  /// destination devices for pairwise).
  size_t classes = 0;
  /// Columns intersecting the delta's dirty address ranges.
  size_t dirty_classes = 0;
  /// Cells (source x column) served verbatim from the base matrix —
  /// every cell of a clean column, plus the closure-clean cells of dirty
  /// columns.
  size_t spliced = 0;
  /// Cells re-traced on the candidate graph: spliced + retraced covers
  /// every cell of the sweep.
  size_t retraced = 0;
  /// Devices whose forwarding the delta can affect for some dirty
  /// column: the union of the per-column backward closures (plus every
  /// node of columns re-traced whole). Reported for observability.
  size_t dirty_nodes = 0;
  bool fell_back = false;
  /// Why the cold path ran instead ("acl-delta", "dirty-fraction", ...).
  std::string fallback_reason;

  void accumulate(const IncrementalStats& other) {
    classes += other.classes;
    dirty_classes += other.dirty_classes;
    spliced += other.spliced;
    retraced += other.retraced;
    dirty_nodes += other.dirty_nodes;
    if (other.fell_back) {
      fell_back = true;
      if (fallback_reason.empty()) fallback_reason = other.fallback_reason;
    }
  }
};

/// Per-node FIB entry delta counts.
struct NodeDelta {
  size_t added = 0;
  size_t removed = 0;
  size_t changed = 0;
  /// Interface-state deltas (oper_up / address / vrf visibility).
  size_t interfaces = 0;
};

/// The diff of two compiled dataplanes, reduced to the address space it
/// can affect. `dirty_ranges` over-approximates: every destination whose
/// forwarding behaviour could differ between the snapshots lies inside
/// some range (the dirty-set rules are spelled out in DESIGN.md §11); an
/// address outside every range provably traces identically on both.
struct FibDelta {
  /// False when the delta cannot be expressed as dirty address ranges
  /// (ACL changes move packet-filter boundaries, label-table changes
  /// affect traffic addressed anywhere, node add/remove changes the
  /// source set). fallback_reason says which rule fired.
  bool expressible = true;
  std::string fallback_reason;
  /// Nodes with any FIB or interface delta.
  std::map<net::NodeName, NodeDelta> nodes;
  /// Merged, sorted, disjoint inclusive [lo, hi] address-bit intervals.
  std::vector<std::pair<uint32_t, uint32_t>> dirty_ranges;
  /// The same intervals attributed to the node whose FIB or interface
  /// delta produced them; `dirty_ranges` is their union. A node absent
  /// here (or whose ranges miss a class) forwards every address of that
  /// class identically on both snapshots — the per-cell splice hinges on
  /// exactly this (DESIGN.md §11).
  std::map<net::NodeName, std::vector<std::pair<uint32_t, uint32_t>>> node_dirty_ranges;

  /// True if [first, last] intersects any dirty range.
  bool dirty(net::Ipv4Address first, net::Ipv4Address last) const {
    return intersects(dirty_ranges, first, last);
  }
  bool dirty(net::Ipv4Address address) const { return dirty(address, address); }
  /// True if [first, last] intersects one of the sorted, disjoint `ranges`
  /// (dirty_ranges, or one node's node_dirty_ranges).
  static bool intersects(const std::vector<std::pair<uint32_t, uint32_t>>& ranges,
                         net::Ipv4Address first, net::Ipv4Address last);

  size_t entries_added = 0;
  size_t entries_removed = 0;
  size_t entries_changed = 0;
};

/// Diffs two snapshots' compiled FIBs + interface state. Resolved next-hop
/// comparison is index-insensitive (a fork may renumber hop indices
/// without changing behaviour).
FibDelta diff_fibs(const gnmi::Snapshot& base, const gnmi::Snapshot& candidate);

/// Devices dirty traffic can transit: the nodes named by `delta` closed
/// over candidate-graph forwarding for the dirty class representatives
/// (rerouted traffic newly transiting an untouched node lands here).
std::vector<net::NodeName> close_dirty_nodes(
    const FibDelta& delta, const ForwardingGraph& candidate,
    const std::vector<PacketClass>& dirty_classes);

/// Incremental engines behind reachability() / pairwise_reachability():
/// splice clean columns — and the closure-clean cells of dirty columns —
/// from options.incremental's matrix, re-trace the rest, or fall back to
/// the cold path (options with incremental cleared) when the
/// preconditions fail. Results are byte-identical to the cold call either
/// way. Stats are written to options.incremental_stats and mirrored into
/// options.metrics (verify_incremental_* family).
ReachabilityResult incremental_reachability(const ForwardingGraph& graph,
                                            const QueryOptions& options);
PairwiseResult incremental_pairwise(const ForwardingGraph& graph,
                                    const QueryOptions& options);

}  // namespace mfv::verify
