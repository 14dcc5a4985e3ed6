// DispositionSplicer: capture the base verify result, then answer
// candidate queries by re-tracing only what the delta can actually touch
// and splicing everything else from the captured matrix.
//
// Granularity is per cell, not per column. A column (packet class, or
// pairwise destination) whose address range misses every dirty range is
// spliced whole, by the containment lemma (a clean candidate class lies
// inside exactly one base class — DESIGN.md §11). Inside a dirty column,
// a cell (source, column) still splices unless the source can meet a node
// that is dirty *for that column's representative address* along class
// forwarding on either snapshot: the backward closure of the per-column
// dirty node set over base ∪ candidate forwarding edges (plus all label
// edges; label deltas are inexpressible, so the tables are identical).
// A node outside the closure provably forwards the representative
// identically on both snapshots, hop by hop, so its disposition set is
// unchanged. Only closure sources re-trace, via TraceCache's partial
// solve — warming the full per-class table would cost O(nodes) per dirty
// column and erase the win. Every precondition failure routes to the
// cold path with a named reason, and the result is byte-identical to
// cold re-verification either way (enforced by tests and the incremental
// fuzz oracle).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>

#include "verify/incremental/incremental.hpp"
#include "verify/sweep.hpp"

namespace mfv::verify {

/// Reverse-edge memo shared by every incremental query forking from one
/// IncrementalBase (declared in incremental.hpp). Base forwarding at a
/// class representative is uniform over the containing base class —
/// every FIB prefix and interface subnet/host range is a partition
/// boundary, and an owned address forms its own [a, a] singleton class —
/// so one reverse adjacency per base class, built at that class's own
/// representative, answers every candidate class it contains. Columns
/// fill lazily under per-class once_flags: a scenario sweep touches each
/// dirty class once and every later scenario reuses the edges.
struct SpliceAdjacency {
  explicit SpliceAdjacency(size_t class_count)
      : built(class_count), columns(class_count) {}

  std::vector<std::once_flag> built;
  /// columns[base_class][node id] -> upstream node ids (base graph).
  std::vector<std::vector<std::vector<uint32_t>>> columns;
  std::once_flag label_built;
  /// Label-forwarding reverse edges (identical on both snapshots — a
  /// label delta is inexpressible), address-independent, built once.
  std::vector<std::vector<uint32_t>> label_reverse;
};

IncrementalBase::IncrementalBase() = default;
IncrementalBase::~IncrementalBase() = default;

namespace {

QueryOptions cold_options(const QueryOptions& options) {
  QueryOptions cold = options;
  cold.incremental = nullptr;
  cold.incremental_stats = nullptr;
  return cold;
}

void record(const QueryOptions& options, const IncrementalStats& stats) {
  if (options.incremental_stats != nullptr) *options.incremental_stats = stats;
  obs::MetricsRegistry* metrics = options.metrics;
  if (metrics == nullptr) return;
  metrics->counter("verify_incremental_runs").add(1);
  metrics->counter("verify_incremental_dirty_classes").add(stats.dirty_classes);
  metrics->counter("verify_incremental_splice_hits").add(stats.spliced);
  metrics->counter("verify_incremental_retraced_classes").add(stats.retraced);
  if (stats.fell_back) {
    metrics->counter("verify_incremental_fallbacks").add(1);
    metrics->counter("verify_incremental_fallback_" + stats.fallback_reason).add(1);
  }
}

/// Shared splice preconditions: a usable base, a matching scope, and an
/// expressible delta.
struct Preflight {
  const IncrementalBase* base = nullptr;
  FibDelta delta;
  std::string fallback;  // empty = splice may proceed
};

Preflight preflight(const ForwardingGraph& graph, const QueryOptions& options) {
  Preflight p;
  p.base = options.incremental;
  if (p.base == nullptr || p.base->graph == nullptr || p.base->adjacency == nullptr) {
    p.fallback = "no-base";
    return p;
  }
  if (p.base->scope != options.scope) {
    p.fallback = "scope-mismatch";
    return p;
  }
  p.delta = diff_fibs(p.base->graph->snapshot(), graph.snapshot());
  if (!p.delta.expressible) p.fallback = p.delta.fallback_reason;
  return p;
}

/// Index of the base class containing [first, last] entirely, or nullopt.
std::optional<size_t> containing_base_class(const IncrementalBase& base,
                                            net::Ipv4Address first,
                                            net::Ipv4Address last) {
  auto it = std::partition_point(
      base.classes.begin(), base.classes.end(),
      [&](const PacketClass& cls) { return cls.last < first; });
  if (it == base.classes.end() || !(it->first <= first && last <= it->last))
    return std::nullopt;
  return static_cast<size_t>(it - base.classes.begin());
}

/// How one column of the sweep is answered.
enum class ColumnMode : uint8_t {
  kSplice,   // clean: every cell from the base matrix
  kCell,     // dirty: closure cells re-trace, the rest splice
  kRetrace,  // dirty with no usable base column: re-trace every cell
};

/// Per-query context for the per-cell closure, by node id (base and
/// candidate share ids — a node-set delta is inexpressible), over the
/// base's SpliceAdjacency memo. closure() fills the memo lazily under its
/// once_flags and otherwise allocates locally, so dirty columns can run
/// it in parallel and concurrent queries can share one base.
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

  /// Nodes whose class-`representative` flows can meet a node dirty for
  /// the representative on either snapshot: reverse reachability of that
  /// seed set over the base and candidate forwarding edges at the
  /// representative, plus the label edges. A source outside the set
  /// traces the representative identically on both snapshots (DESIGN.md
  /// §11).
  ///
  /// The base side comes from the per-base-class memo (`base_class` is
  /// the class containing `representative` — uniformity makes the cached
  /// edges exact for it). The candidate side only walks the seed nodes:
  /// a node outside the seed set forwards the representative identically
  /// on both snapshots (that is what its absence from node_dirty_ranges
  /// certifies), so its candidate edges are already in the base edge
  /// set — except when the representative's *ownership* moved, which
  /// rewrites attached-hop edges of clean nodes too; then the closure
  /// walks every candidate node for this column (rare: ownership moves
  /// only on interface re-addressing).
  std::vector<uint8_t> closure(net::Ipv4Address representative, size_t base_class) const {
    std::call_once(memo_.built[base_class], [&] {
      memo_.columns[base_class] =
          forwarding_edges(base_graph_, base_.classes[base_class].representative());
    });
    std::call_once(memo_.label_built, [&] { memo_.label_reverse = label_edges(); });
    const Reverse& base_reverse = memo_.columns[base_class];
    const Reverse& label_reverse = memo_.label_reverse;

    std::vector<NodeId> seeds;
    for (const auto& [node, ranges] : dirty_)
      if (FibDelta::intersects(*ranges, representative, representative)) seeds.push_back(node);

    // Candidate edges as sorted (downstream, upstream) pairs.
    std::vector<std::pair<NodeId, NodeId>> overlay;
    NodeId owner = candidate_.owner(representative);
    if (base_graph_.owner(representative) == owner) {
      for (NodeId seed : seeds) add_edges(candidate_, seed, representative, owner, overlay);
    } else {
      for (NodeId node = 0; node < candidate_.node_count(); ++node)
        add_edges(candidate_, node, representative, owner, overlay);
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
  /// Forwarding edges out of `node` on `graph` at `representative`, as
  /// (downstream, node) pairs. Addressed hops move to the hop owner,
  /// attached hops to the destination owner (`owner`) — mirror of
  /// Tracer::walk / ClassSolver.
  static void add_edges(const ForwardingGraph& graph, NodeId node,
                        net::Ipv4Address representative, NodeId owner,
                        std::vector<std::pair<NodeId, NodeId>>& edges) {
    const ForwardingGraph::Route* route = graph.route(node, representative);
    if (route == nullptr) return;
    for (const ForwardingGraph::Hop& hop : route->hops) {
      if (hop.drop) continue;
      NodeId next = hop.addressed ? hop.next : owner;
      if (next != ForwardingGraph::kNoNode) edges.emplace_back(next, node);
    }
  }

  /// Reverse forwarding edges of `graph` at `representative`, all nodes.
  static Reverse forwarding_edges(const ForwardingGraph& graph,
                                  net::Ipv4Address representative) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    NodeId owner = graph.owner(representative);
    for (NodeId node = 0; node < graph.node_count(); ++node)
      add_edges(graph, node, representative, owner, edges);
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
  base->sources = sweep::resolve_sources(graph, options);
  base->scope = options.scope;
  base->classes = sweep::classes_for(graph.relevant_prefixes(), options);
  for (size_t s = 0; s < base->sources.size(); ++s)
    base->source_index.emplace(base->sources[s], s);
  // The capture is not a query: it records no shard latency.
  base->matrix = sweep::disposition_matrix(graph, base->sources, base->classes, options,
                                           /*shard_latency=*/nullptr);
  base->adjacency = std::make_unique<SpliceAdjacency>(base->classes.size());
  return base;
}

ReachabilityResult incremental_reachability(const ForwardingGraph& graph,
                                            const QueryOptions& options) {
  IncrementalStats stats;
  auto fall_back = [&](std::string reason) {
    stats.fell_back = true;
    stats.fallback_reason = std::move(reason);
    record(options, stats);
    return reachability(graph, cold_options(options));
  };

  Preflight p = preflight(graph, options);
  if (!p.fallback.empty()) return fall_back(p.fallback);
  const IncrementalBase& base = *p.base;

  std::vector<PacketClass> classes = sweep::classes_for(graph.relevant_prefixes(), options);
  std::vector<net::NodeName> sources = sweep::resolve_sources(graph, options);
  const size_t class_count = classes.size();
  const size_t source_count = sources.size();
  stats.classes = class_count;

  std::vector<size_t> base_row(source_count);
  for (size_t s = 0; s < source_count; ++s) {
    auto it = base.source_index.find(sources[s]);
    if (it == base.source_index.end()) return fall_back("source-set-delta");
    base_row[s] = it->second;
  }

  std::vector<ColumnMode> mode(class_count, ColumnMode::kSplice);
  std::vector<size_t> base_column(class_count, 0);
  std::vector<size_t> dirty_index;
  for (size_t c = 0; c < class_count; ++c) {
    std::optional<size_t> column =
        containing_base_class(base, classes[c].first, classes[c].last);
    if (p.delta.dirty(classes[c].first, classes[c].last)) {
      // A dirty class straddling a base-class boundary (a removed
      // prefix's edge inside it) has no base column to splice cells from.
      mode[c] = column ? ColumnMode::kCell : ColumnMode::kRetrace;
      if (column) base_column[c] = *column;
      dirty_index.push_back(c);
      continue;
    }
    // The containment lemma says a clean candidate class lies inside one
    // base class; a miss means the preconditions were violated.
    if (!column) return fall_back("partition-mismatch");
    base_column[c] = *column;
  }
  stats.dirty_classes = dirty_index.size();

  // Per dirty cell column: the closure sources whose cells must re-trace.
  SpliceCloser closer(base, graph, p.delta);
  const size_t node_count = graph.node_count();
  std::vector<ForwardingGraph::NodeId> source_node = sweep::node_ids(graph, sources);

  unsigned threads = sweep::resolve_threads(options);
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  std::vector<std::vector<uint8_t>> closures(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t c = dirty_index[i];
    if (mode[c] != ColumnMode::kCell) return;
    std::vector<uint8_t> in_closure =
        closer.closure(classes[c].representative(), base_column[c]);
    retrace[i].assign(source_count, 0);
    for (size_t s = 0; s < source_count; ++s)
      if (source_node[s] != ForwardingGraph::kNoNode && in_closure[source_node[s]])
        retrace[i][s] = 1;
    closures[i] = std::move(in_closure);
  });

  // The fallback guard weighs re-traced cells, not dirty columns: with
  // per-cell splicing a mostly-dirty partition can still be mostly
  // spliced work-wise, and cells are what cost trace time.
  size_t retrace_cells = 0;
  bool any_full = false;
  for (size_t i = 0; i < dirty_index.size(); ++i) {
    if (mode[dirty_index[i]] != ColumnMode::kCell) {
      retrace_cells += source_count;
      any_full = true;
      continue;
    }
    for (uint8_t bit : retrace[i]) retrace_cells += bit;
  }
  const size_t total_cells = source_count * class_count;
  if (total_cells > 0 &&
      static_cast<double>(retrace_cells) >
          options.incremental_max_dirty_fraction * static_cast<double>(total_cells))
    return fall_back("dirty-fraction");
  if (any_full) {
    stats.dirty_nodes = node_count;
  } else {
    std::vector<uint8_t> dirty_union(node_count, 0);
    for (const std::vector<uint8_t>& in_closure : closures)
      for (size_t n = 0; n < in_closure.size(); ++n)
        dirty_union[n] |= in_closure[n];
    for (uint8_t bit : dirty_union) stats.dirty_nodes += bit;
  }

  // Re-trace closure cells with the same memoized engine as the cold
  // sweep — partial class solves for cell columns, full tables for
  // whole-column re-traces — and splice everything else.
  std::vector<DispositionSet> matrix(source_count * class_count);
  sweep::CacheRef cache(options.cache, graph, options.metrics);
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t c = dirty_index[i];
    net::Ipv4Address representative = classes[c].representative();
    if (mode[c] != ColumnMode::kCell) {
      (*cache).warm(representative);
      for (size_t s = 0; s < source_count; ++s)
        matrix[s * class_count + c] = (*cache).dispositions(source_node[s], representative);
      return;
    }
    std::vector<ForwardingGraph::NodeId> retrace_sources;
    std::vector<size_t> retrace_rows;
    for (size_t s = 0; s < source_count; ++s) {
      if (retrace[i][s] == 0) continue;
      retrace_sources.push_back(source_node[s]);
      retrace_rows.push_back(s);
    }
    if (retrace_sources.empty()) return;
    std::vector<DispositionSet> sets =
        (*cache).dispositions_for(retrace_sources, representative);
    for (size_t k = 0; k < retrace_rows.size(); ++k)
      matrix[retrace_rows[k] * class_count + c] = sets[k];
  });

  std::vector<size_t> dirty_position(class_count, SIZE_MAX);
  for (size_t i = 0; i < dirty_index.size(); ++i) dirty_position[dirty_index[i]] = i;
  const size_t base_class_count = base.classes.size();
  for (size_t s = 0; s < source_count; ++s) {
    for (size_t c = 0; c < class_count; ++c) {
      if (mode[c] == ColumnMode::kRetrace) continue;
      if (mode[c] == ColumnMode::kCell && retrace[dirty_position[c]][s] != 0) continue;
      matrix[s * class_count + c] =
          base.matrix[base_row[s] * base_class_count + base_column[c]];
    }
  }

  stats.retraced = retrace_cells;
  stats.spliced = total_cells - retrace_cells;
  record(options, stats);
  return sweep::reachability_rows(sources, classes, matrix, options);
}

PairwiseResult incremental_pairwise(const ForwardingGraph& graph,
                                    const QueryOptions& options) {
  IncrementalStats stats;
  auto fall_back = [&](std::string reason) {
    stats.fell_back = true;
    stats.fallback_reason = std::move(reason);
    record(options, stats);
    return pairwise_reachability(graph, cold_options(options));
  };

  Preflight p = preflight(graph, options);
  if (!p.fallback.empty()) return fall_back(p.fallback);
  const IncrementalBase& base = *p.base;

  const std::vector<net::NodeName>& nodes = graph.nodes();
  const size_t node_count = nodes.size();
  stats.classes = node_count;

  std::vector<size_t> base_row(node_count);
  for (size_t s = 0; s < node_count; ++s) {
    auto it = base.source_index.find(nodes[s]);
    if (it == base.source_index.end()) return fall_back("source-set-delta");
    base_row[s] = it->second;
  }

  // A destination column splices whole when its loopback is unchanged,
  // outside every dirty range (an address outside the ranges provably
  // traces identically on both snapshots), and covered by the base
  // partition. A dirty column whose loopback is unchanged and covered
  // still splices per cell; everything else re-traces whole.
  std::vector<std::optional<net::Ipv4Address>> loopbacks(node_count);
  std::vector<ColumnMode> mode(node_count, ColumnMode::kSplice);
  std::vector<size_t> base_column(node_count, 0);
  std::vector<size_t> dirty_index;
  for (size_t d = 0; d < node_count; ++d) {
    loopbacks[d] = device_loopback(graph.snapshot(), nodes[d]);
    if (!loopbacks[d]) continue;  // column skipped, as in the cold sweep
    std::optional<net::Ipv4Address> base_loopback =
        device_loopback(base.graph->snapshot(), nodes[d]);
    std::optional<size_t> column;
    if (base_loopback == loopbacks[d])
      column = containing_base_class(base, *loopbacks[d], *loopbacks[d]);
    if (column && !p.delta.dirty(*loopbacks[d])) {
      base_column[d] = *column;
      continue;
    }
    mode[d] = column ? ColumnMode::kCell : ColumnMode::kRetrace;
    if (column) base_column[d] = *column;
    dirty_index.push_back(d);
  }
  stats.dirty_classes = dirty_index.size();

  // Sources are the graph's own nodes (row s is node id s), so a cell
  // column's closure is its re-trace row set.
  SpliceCloser closer(base, graph, p.delta);
  unsigned threads = sweep::resolve_threads(options);
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t d = dirty_index[i];
    if (mode[d] == ColumnMode::kCell) retrace[i] = closer.closure(*loopbacks[d], base_column[d]);
  });

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
    std::vector<size_t> retrace_rows;
    for (ForwardingGraph::NodeId s = 0; s < node_count; ++s) {
      if (s == d || retrace[i][s] == 0) continue;
      retrace_sources.push_back(s);
      retrace_rows.push_back(s);
    }
    if (retrace_sources.empty()) return;
    std::vector<DispositionSet> sets =
        (*cache).dispositions_for(retrace_sources, loopback);
    for (size_t k = 0; k < retrace_rows.size(); ++k)
      reachable[retrace_rows[k] * node_count + d] =
          sets[k].contains(Disposition::kAccepted) ? 1 : 0;
  });

  std::vector<size_t> dirty_position(node_count, SIZE_MAX);
  for (size_t i = 0; i < dirty_index.size(); ++i) dirty_position[dirty_index[i]] = i;
  const size_t base_class_count = base.classes.size();
  for (size_t d = 0; d < node_count; ++d) {
    if (!loopbacks[d] || mode[d] == ColumnMode::kRetrace) continue;
    for (size_t s = 0; s < node_count; ++s) {
      if (s == d) continue;
      if (mode[d] == ColumnMode::kCell && retrace[dirty_position[d]][s] != 0) continue;
      bool ok = base.matrix[base_row[s] * base_class_count + base_column[d]].contains(
          Disposition::kAccepted);
      reachable[s * node_count + d] = ok ? 1 : 0;
    }
  }

  stats.retraced = retrace_cells;
  stats.spliced = total_cells - retrace_cells;
  record(options, stats);
  return sweep::pairwise_cells(nodes, loopbacks, reachable);
}

}  // namespace mfv::verify
