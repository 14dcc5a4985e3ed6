// Pairwise splicer: capture the base's pairwise answer, then answer a
// fork's pairwise query by re-tracing only what the delta can actually
// touch and splicing everything else from the captured bits.
//
// Granularity is per cell, not per destination. A destination whose
// loopback is unchanged and misses every dirty range is spliced whole:
// an address outside the ranges traces identically on both snapshots
// (DESIGN.md §11). Inside a dirty destination, a cell (source,
// destination) still splices unless the source can meet a node that is
// dirty *for that loopback* along forwarding on either snapshot: the
// backward closure of the destination's dirty node set over base ∪
// candidate forwarding edges at the loopback (plus all label edges; label
// deltas are inexpressible, so the tables are identical). A node outside
// the closure provably forwards the loopback identically on both
// snapshots, hop by hop, so its disposition set is unchanged. Only
// closure sources re-trace, via TraceCache's partial solve — warming the
// full per-destination table would cost O(nodes) per dirty destination
// and erase the win. Every precondition failure routes to the cold path
// with a named reason, and the result is byte-identical to cold
// re-verification either way (enforced by tests and the incremental fuzz
// oracle).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>

#include "verify/incremental/incremental.hpp"
#include "verify/sweep.hpp"

namespace mfv::verify {

/// Reverse-edge memo shared by every incremental query forking from one
/// IncrementalBase (declared in incremental.hpp): one reverse adjacency
/// per destination node, built at that node's base loopback. A splice
/// only reuses it for a destination whose loopback is unchanged, so the
/// cached edges are exact. Entries fill lazily under per-destination
/// once_flags: a scenario sweep touches each dirty destination once and
/// every later scenario reuses the edges.
struct SpliceAdjacency {
  explicit SpliceAdjacency(size_t node_count) : built(node_count), columns(node_count) {}

  std::vector<std::once_flag> built;
  /// columns[destination][node id] -> upstream node ids (base graph).
  std::vector<std::vector<std::vector<uint32_t>>> columns;
  std::once_flag label_built;
  /// Label-forwarding reverse edges (identical on both snapshots — a
  /// label delta is inexpressible), address-independent, built once.
  std::vector<std::vector<uint32_t>> label_reverse;
};

IncrementalBase::IncrementalBase() = default;
IncrementalBase::~IncrementalBase() = default;

PairwiseResult IncrementalBase::pairwise() const {
  return sweep::pairwise_cells(graph->nodes(), loopbacks, reachable);
}

namespace {

void record(const QueryOptions& options, const IncrementalStats& stats) {
  if (options.incremental_stats != nullptr) *options.incremental_stats = stats;
  obs::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr) return;
  metrics->counter("verify_incremental_runs").add(1);
  metrics->counter("verify_incremental_dirty_destinations").add(stats.dirty_destinations);
  metrics->counter("verify_incremental_splice_hits").add(stats.spliced);
  metrics->counter("verify_incremental_retraced_cells").add(stats.retraced);
  if (stats.fell_back) {
    metrics->counter("verify_incremental_fallbacks").add(1);
    metrics->counter("verify_incremental_fallback_" + stats.fallback_reason).add(1);
  }
}

/// How one destination column of the matrix is answered.
enum class ColumnMode : uint8_t {
  kSplice,   // clean: every cell from the base answer
  kCell,     // dirty: closure cells re-trace, the rest splice
  kRetrace,  // the loopback moved: re-trace every cell
};

/// Per-query context for the per-cell closure, by node id (base and
/// candidate share ids — a node-set delta is inexpressible), over the
/// base's SpliceAdjacency memo. closure() fills the memo lazily under its
/// once_flags and otherwise allocates locally, so dirty destinations can
/// run it in parallel and concurrent queries can share one base.
class SpliceCloser {
 public:
  using NodeId = ForwardingGraph::NodeId;
  using Reverse = std::vector<std::vector<uint32_t>>;  // node id -> upstream ids

  SpliceCloser(const IncrementalBase& base, const ForwardingGraph& candidate,
               const FibDelta& delta)
      : base_(base),
        base_graph_(*base.graph),
        candidate_(candidate),
        memo_(*base.adjacency) {
    // Each dirty node's ranges, resolved to its id once per query.
    for (const auto& [node, ranges] : delta.node_dirty_ranges)
      if (std::optional<NodeId> id = candidate.id_of(node)) dirty_.emplace_back(*id, &ranges);
  }

  /// Nodes whose flows to `destination`'s loopback can meet a node dirty
  /// for that loopback on either snapshot: reverse reachability of that
  /// seed set over the base and candidate forwarding edges at the
  /// loopback, plus the label edges. A source outside the set traces the
  /// loopback identically on both snapshots (DESIGN.md §11). The loopback
  /// must be the same on both snapshots.
  ///
  /// The base side comes from the per-destination memo. The candidate
  /// side only walks the seed nodes: a node outside the seed set forwards
  /// the loopback identically on both snapshots (that is what its absence
  /// from node_dirty_ranges certifies), so its candidate edges are
  /// already in the base edge set — except when the loopback's
  /// *ownership* moved, which rewrites attached-hop edges of clean nodes
  /// too; then the closure walks every candidate node for this
  /// destination (rare: ownership moves only on interface re-addressing).
  std::vector<uint8_t> closure(size_t destination) const {
    const net::Ipv4Address loopback = *base_.loopbacks[destination];
    std::call_once(memo_.built[destination], [&] {
      memo_.columns[destination] = forwarding_edges(base_graph_, loopback);
    });
    std::call_once(memo_.label_built, [&] { memo_.label_reverse = label_edges(); });
    const Reverse& base_reverse = memo_.columns[destination];
    const Reverse& label_reverse = memo_.label_reverse;

    std::vector<NodeId> seeds;
    for (const auto& [node, ranges] : dirty_)
      if (FibDelta::intersects(*ranges, loopback, loopback)) seeds.push_back(node);

    // Candidate edges as sorted (downstream, upstream) pairs.
    std::vector<std::pair<NodeId, NodeId>> overlay;
    NodeId owner = candidate_.owner(loopback);
    if (base_graph_.owner(loopback) == owner) {
      for (NodeId seed : seeds) add_edges(candidate_, seed, loopback, owner, overlay);
    } else {
      for (NodeId node = 0; node < candidate_.node_count(); ++node)
        add_edges(candidate_, node, loopback, owner, overlay);
    }
    std::sort(overlay.begin(), overlay.end());

    std::vector<uint8_t> in_closure(candidate_.node_count(), 0);
    std::vector<NodeId> frontier;
    auto reach = [&](NodeId node) {
      if (in_closure[node]) return;
      in_closure[node] = 1;
      frontier.push_back(node);
    };
    for (NodeId seed : seeds) reach(seed);
    while (!frontier.empty()) {
      NodeId node = frontier.back();
      frontier.pop_back();
      for (uint32_t upstream : base_reverse[node]) reach(upstream);
      for (uint32_t upstream : label_reverse[node]) reach(upstream);
      for (auto it = std::lower_bound(overlay.begin(), overlay.end(),
                                      std::pair<NodeId, NodeId>(node, 0));
           it != overlay.end() && it->first == node; ++it)
        reach(it->second);
    }
    return in_closure;
  }

 private:
  /// Forwarding edges out of `node` on `graph` at `destination`, as
  /// (downstream, node) pairs. Addressed hops move to the hop owner,
  /// attached hops to the destination owner (`owner`) — mirror of
  /// Tracer::walk / ClassSolver.
  static void add_edges(const ForwardingGraph& graph, NodeId node,
                        net::Ipv4Address destination, NodeId owner,
                        std::vector<std::pair<NodeId, NodeId>>& edges) {
    const ForwardingGraph::Route* route = graph.route(node, destination);
    if (route == nullptr) return;
    for (const ForwardingGraph::Hop& hop : route->hops) {
      if (hop.drop) continue;
      NodeId next = hop.addressed ? hop.next : owner;
      if (next != ForwardingGraph::kNoNode) edges.emplace_back(next, node);
    }
  }

  /// Reverse forwarding edges of `graph` at `destination`, all nodes.
  static Reverse forwarding_edges(const ForwardingGraph& graph,
                                  net::Ipv4Address destination) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    NodeId owner = graph.owner(destination);
    for (NodeId node = 0; node < graph.node_count(); ++node)
      add_edges(graph, node, destination, owner, edges);
    Reverse reverse(graph.node_count());
    for (const auto& [next, node] : edges) reverse[next].push_back(node);
    return reverse;
  }

  /// Label-forwarding reverse edges (identical on both snapshots; built
  /// from the base graph).
  Reverse label_edges() const {
    Reverse reverse(base_graph_.node_count());
    for (NodeId node = 0; node < base_graph_.node_count(); ++node) {
      for (const auto& [label, hops] : base_graph_.labels(node)) {
        // The tracer only follows the first resolved hop; taking them all
        // keeps the edge set a sound over-approximation.
        for (const ForwardingGraph::Hop& hop : hops)
          if (!hop.drop && hop.next != ForwardingGraph::kNoNode)
            reverse[hop.next].push_back(node);
      }
    }
    return reverse;
  }

  const IncrementalBase& base_;
  const ForwardingGraph& base_graph_;
  const ForwardingGraph& candidate_;
  SpliceAdjacency& memo_;
  std::vector<std::pair<NodeId, const std::vector<std::pair<uint32_t, uint32_t>>*>> dirty_;
};

}  // namespace

std::unique_ptr<IncrementalBase> capture_incremental_base(const ForwardingGraph& graph,
                                                          const QueryOptions& options) {
  auto base = std::make_unique<IncrementalBase>();
  base->graph = &graph;
  base->loopbacks = sweep::loopbacks(graph);
  base->reachable = sweep::pairwise_matrix(graph, base->loopbacks, options,
                                           /*shard_latency=*/nullptr);
  base->adjacency = std::make_unique<SpliceAdjacency>(graph.node_count());
  return base;
}

PairwiseResult incremental_pairwise(const ForwardingGraph& graph,
                                    const QueryOptions& options) {
  IncrementalStats stats;
  auto fall_back = [&](std::string reason) {
    stats.fell_back = true;
    stats.fallback_reason = std::move(reason);
    record(options, stats);
    QueryOptions cold = options;
    cold.incremental = nullptr;
    cold.incremental_stats = nullptr;
    return pairwise_reachability(graph, cold);
  };

  const IncrementalBase* base = options.incremental;
  if (base == nullptr || base->graph == nullptr || base->adjacency == nullptr)
    return fall_back("no-base");
  FibDelta delta = diff_fibs(base->graph->snapshot(), graph.snapshot());
  if (!delta.expressible) return fall_back(delta.fallback_reason);

  // An expressible delta keeps the node set, and node ids follow name
  // order, so row s and column d name the same devices on both sides.
  const std::vector<net::NodeName>& nodes = graph.nodes();
  const size_t node_count = nodes.size();
  stats.destinations = node_count;

  // A destination splices whole when its loopback is unchanged and
  // outside every dirty range. A dirty destination whose loopback is
  // unchanged still splices per cell; a moved loopback re-traces whole.
  std::vector<std::optional<net::Ipv4Address>> loopbacks = sweep::loopbacks(graph);
  std::vector<ColumnMode> mode(node_count, ColumnMode::kSplice);
  std::vector<size_t> dirty_index;
  for (size_t d = 0; d < node_count; ++d) {
    if (!loopbacks[d]) continue;  // column skipped, as in the cold sweep
    const bool moved = base->loopbacks[d] != loopbacks[d];
    if (!moved && !delta.dirty(*loopbacks[d])) continue;
    mode[d] = moved ? ColumnMode::kRetrace : ColumnMode::kCell;
    dirty_index.push_back(d);
  }
  stats.dirty_destinations = dirty_index.size();

  // Sources are the graph's own nodes (row s is node id s), so a cell
  // destination's closure is its re-trace row set.
  SpliceCloser closer(*base, graph, delta);
  unsigned threads = sweep::resolve_threads(options);
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t d = dirty_index[i];
    if (mode[d] == ColumnMode::kCell) retrace[i] = closer.closure(d);
  });

  // The fallback guard weighs re-traced cells, not dirty destinations:
  // cells are what cost trace time.
  size_t retrace_cells = 0;
  size_t total_cells = 0;
  bool any_full = false;
  for (size_t d = 0; d < node_count; ++d)
    if (loopbacks[d]) total_cells += node_count - 1;
  for (size_t i = 0; i < dirty_index.size(); ++i) {
    size_t d = dirty_index[i];
    if (mode[d] != ColumnMode::kCell) {
      retrace_cells += node_count - 1;
      any_full = true;
      continue;
    }
    for (size_t s = 0; s < node_count; ++s)
      if (s != d && retrace[i][s] != 0) ++retrace_cells;
  }
  if (total_cells > 0 &&
      static_cast<double>(retrace_cells) >
          options.incremental_max_dirty_fraction * static_cast<double>(total_cells))
    return fall_back("dirty-fraction");
  if (any_full) {
    stats.dirty_nodes = node_count;
  } else {
    std::vector<uint8_t> dirty_union(node_count, 0);
    for (const std::vector<uint8_t>& in_closure : retrace)
      for (size_t n = 0; n < in_closure.size(); ++n)
        dirty_union[n] |= in_closure[n];
    for (uint8_t bit : dirty_union) stats.dirty_nodes += bit;
  }

  // Re-trace closure cells with the same memoized engine as the cold
  // sweep — partial solves for cell destinations, full tables for
  // whole-destination re-traces — and splice everything else.
  std::vector<uint8_t> reachable(node_count * node_count, 0);
  sweep::CacheRef cache(options.cache, graph, options.metrics);
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t d = dirty_index[i];
    net::Ipv4Address loopback = *loopbacks[d];
    if (mode[d] != ColumnMode::kCell) {
      for (ForwardingGraph::NodeId s = 0; s < node_count; ++s) {
        if (s == d) continue;
        bool ok = (*cache).dispositions(s, loopback).contains(Disposition::kAccepted);
        reachable[s * node_count + d] = ok ? 1 : 0;
      }
      return;
    }
    std::vector<ForwardingGraph::NodeId> retrace_sources;
    for (ForwardingGraph::NodeId s = 0; s < node_count; ++s)
      if (s != d && retrace[i][s] != 0) retrace_sources.push_back(s);
    if (retrace_sources.empty()) return;
    std::vector<DispositionSet> sets = (*cache).dispositions_for(retrace_sources, loopback);
    for (size_t k = 0; k < retrace_sources.size(); ++k)
      reachable[retrace_sources[k] * node_count + d] =
          sets[k].contains(Disposition::kAccepted) ? 1 : 0;
  });

  std::vector<size_t> dirty_position(node_count, SIZE_MAX);
  for (size_t i = 0; i < dirty_index.size(); ++i) dirty_position[dirty_index[i]] = i;
  for (size_t d = 0; d < node_count; ++d) {
    if (!loopbacks[d] || mode[d] == ColumnMode::kRetrace) continue;
    for (size_t s = 0; s < node_count; ++s) {
      if (s == d) continue;
      if (mode[d] == ColumnMode::kCell && retrace[dirty_position[d]][s] != 0) continue;
      reachable[s * node_count + d] = base->reachable[s * node_count + d];
    }
  }

  stats.retraced = retrace_cells;
  stats.spliced = total_cells - retrace_cells;
  record(options, stats);
  return sweep::pairwise_cells(nodes, loopbacks, reachable);
}

}  // namespace mfv::verify
