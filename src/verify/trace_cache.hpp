// Per-snapshot memoization of trace continuations.
//
// Forwarding of a packet is a function of (current device, packet class)
// only — never of how the packet got there. A per-flow walk (trace_flow)
// ignores this and would re-walk the forwarding graph for every
// (source x class) pair, an O(S*C*pathlen) sweep. TraceCache instead
// computes, per class, the disposition set of *every* node in one
// depth-first pass over the forwarding graph (memoizing each node's
// continuation), then serves all S sources from that table: the S x C
// trace matrix becomes C dynamic-programming passes — an algorithmic win
// independent of threading. It is the only engine behind the sweep
// queries (queries.hpp).
//
// Its disposition sets match the per-flow walker (trace.cpp, behind
// traceroute) exactly, except where trace_flow's caps cut a walk short:
//   * path-enumeration truncation (TraceOptions.max_paths) can make
//     trace_flow *miss* dispositions on flows with > max_paths ECMP
//     branches; the cache always reports the untruncated union;
//   * a simple path longer than max_hops is reported as a loop by
//     trace_flow and by its true disposition here.
// Loop detection is node-based, like the walker's visited set: a flow
// revisiting a device in *any* label state is a loop. Continuations whose
// loop verdict depends on the path taken (a node revisited in a different
// MPLS label state without a state-graph cycle) are computed per entry
// path and never memoized, so the table stays context-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "verify/disposition.hpp"
#include "verify/forwarding_graph.hpp"

namespace mfv::verify {

/// One memoized continuation in a TraceCache class table (implementation
/// detail, shared with the per-class solver).
struct TraceMemoEntry {
  DispositionSet set;
  /// Node ids the state's subtree traverses, sorted. Loop detection is
  /// node-based, so a memoized result is valid for a caller only when
  /// none of these nodes are already on the caller's path — otherwise
  /// the per-flow walker would have declared a loop at that node and the
  /// continuation recorded here never runs (found by the
  /// serial-vs-threaded fuzz oracle; regression in tests/fuzz_corpus/).
  std::vector<uint32_t> footprint;
};

class TraceCache {
 public:
  /// `metrics`, when set, mirrors hits/misses/re-expansions into the
  /// trace_cache_* counter family; the local atomics stay authoritative
  /// for the accessors below either way.
  explicit TraceCache(const ForwardingGraph& graph,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Disposition set of the flow injected at `source` destined to
  /// `destination` (any address of a packet class, typically its
  /// representative). Computes the per-node table for that destination on
  /// first use. An unknown source (kNoNode, or a name outside the graph)
  /// reports NO_ROUTE, like trace_flow.
  DispositionSet dispositions(ForwardingGraph::NodeId source,
                              net::Ipv4Address destination);
  DispositionSet dispositions(const net::NodeName& source, net::Ipv4Address destination);

  /// Precomputes the table for `destination`'s class (idempotent).
  void warm(net::Ipv4Address destination);

  /// Partial solve: dispositions for `sources` only (returned in order),
  /// computing just those roots and the continuations they reach instead
  /// of the whole node table. The incremental splicer uses this when a
  /// dirty column needs a handful of re-traced cells — paying solve_all's
  /// O(nodes) there would erase the splice win. Memoized entries land in
  /// the same class table, so a later warm()/dispositions() completes the
  /// remaining roots without repeating work. Unknown sources (kNoNode)
  /// report NO_ROUTE, like dispositions().
  std::vector<DispositionSet> dispositions_for(
      const std::vector<ForwardingGraph::NodeId>& sources, net::Ipv4Address destination);

  /// Number of distinct destination classes resolved so far.
  size_t classes_cached() const;

  /// Observability for long-lived caches (the service's per-snapshot
  /// caches): a hit is a table_for() that found the class table already
  /// solved, a miss is one that ran the solver. hits/(hits+misses) is the
  /// memoization rate across every request served from this cache.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Memoized continuations found but re-expanded in context because a
  /// footprint node was already on the caller's path (see ClassSolver).
  uint64_t reexpansions() const {
    return reexpansions_.load(std::memory_order_relaxed);
  }

  /// Thread-safety: concurrent calls are safe for any mix of
  /// destinations; each class table is computed exactly once (callers
  /// sharding by class never contend).

 private:
  struct ClassTable {
    /// Guards memo and fully_solved: partial solves append under the
    /// lock, the full solve runs once under it, and after fully_solved
    /// flips the memo is immutable (lock-free reads are safe).
    std::mutex mutex;
    bool fully_solved = false;
    /// state key -> memoized continuation; populated for every node once
    /// fully_solved.
    std::unordered_map<uint64_t, TraceMemoEntry> memo;
  };

  ClassTable& slot_for(net::Ipv4Address destination);
  ClassTable& table_for(net::Ipv4Address destination);

  const ForwardingGraph& graph_;

  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, std::unique_ptr<ClassTable>> tables_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> reexpansions_{0};
  /// Optional registry mirrors (null when no registry was injected).
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* reexpansions_counter_ = nullptr;
};

}  // namespace mfv::verify
