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
  /// columns[base_class][node] -> upstream node indices (base graph).
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
  if (p.base == nullptr || p.base->graph == nullptr) {
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

/// Per-query context for the per-cell closure: a dense node index (the
/// node sets are identical — a node-set delta is inexpressible) over the
/// base's SpliceAdjacency memo. closure() fills the memo lazily under its
/// once_flags and otherwise allocates locally, so dirty columns can run
/// it in parallel and concurrent queries can share one base.
class SpliceCloser {
 public:
  SpliceCloser(const IncrementalBase& base, const ForwardingGraph& candidate)
      : base_(base),
        base_graph_(*base.graph),
        candidate_(candidate),
        nodes_(candidate.nodes()) {
    for (size_t i = 0; i < nodes_.size(); ++i) index_.emplace(nodes_[i], i);
    // Without a memo (defensively: capture always allocates one) the
    // label edges are rebuilt per query, as the pre-memo code did.
    if (base_.adjacency == nullptr) local_label_ = label_edges();
  }

  const std::vector<net::NodeName>& nodes() const { return nodes_; }

  std::optional<size_t> index_of(const net::NodeName& node) const {
    auto it = index_.find(node);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  /// Nodes whose class-`representative` flows can meet a node of `seeds`
  /// on either snapshot: reverse reachability of the seed set over the
  /// base and candidate forwarding edges at the representative, plus the
  /// label edges. A source outside the set traces the representative
  /// identically on both snapshots (DESIGN.md §11).
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
  std::vector<uint8_t> closure(net::Ipv4Address representative, size_t base_class,
                               const std::vector<size_t>& seeds) const {
    SpliceAdjacency* memo = base_.adjacency.get();
    std::vector<std::vector<uint32_t>> local_base;
    const std::vector<std::vector<uint32_t>>* base_reverse;
    if (memo != nullptr) {
      std::call_once(memo->built[base_class], [&] {
        memo->columns[base_class] = forwarding_edges(
            base_graph_, base_.classes[base_class].representative());
      });
      base_reverse = &memo->columns[base_class];
    } else {
      local_base = forwarding_edges(base_graph_, representative);
      base_reverse = &local_base;
    }
    const std::vector<std::vector<uint32_t>>* label_reverse;
    if (memo != nullptr) {
      std::call_once(memo->label_built, [&] { memo->label_reverse = label_edges(); });
      label_reverse = &memo->label_reverse;
    } else {
      label_reverse = &local_label_;
    }

    std::vector<std::vector<uint32_t>> overlay(nodes_.size());
    if (base_graph_.address_owner(representative) ==
        candidate_.address_owner(representative)) {
      for (size_t seed : seeds) candidate_edges_from(seed, representative, overlay);
    } else {
      for (size_t i = 0; i < nodes_.size(); ++i)
        candidate_edges_from(i, representative, overlay);
    }

    std::vector<uint8_t> in_closure(nodes_.size(), 0);
    std::vector<size_t> frontier;
    for (size_t seed : seeds) {
      if (in_closure[seed]) continue;
      in_closure[seed] = 1;
      frontier.push_back(seed);
    }
    while (!frontier.empty()) {
      size_t node = frontier.back();
      frontier.pop_back();
      const std::vector<uint32_t>* edge_lists[] = {
          &(*base_reverse)[node], &(*label_reverse)[node], &overlay[node]};
      for (const std::vector<uint32_t>* edges : edge_lists) {
        for (uint32_t upstream : *edges) {
          if (in_closure[upstream]) continue;
          in_closure[upstream] = 1;
          frontier.push_back(upstream);
        }
      }
    }
    return in_closure;
  }

 private:
  void add_reverse_edge(const ForwardingGraph& graph,
                        std::vector<std::vector<uint32_t>>& reverse,
                        net::Ipv4Address via, size_t from) const {
    std::optional<net::NodeName> owner = graph.address_owner(via);
    if (!owner) return;
    auto it = index_.find(*owner);
    if (it != index_.end()) reverse[it->second].push_back(static_cast<uint32_t>(from));
  }

  /// Reverse forwarding edges of `graph` at `representative`, all nodes.
  std::vector<std::vector<uint32_t>> forwarding_edges(
      const ForwardingGraph& graph, net::Ipv4Address representative) const {
    std::vector<std::vector<uint32_t>> reverse(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const aft::Ipv4Entry* entry = graph.lookup(nodes_[i], representative);
      if (entry == nullptr) continue;
      for (const aft::NextHop& hop : graph.next_hops(nodes_[i], *entry)) {
        if (hop.drop) continue;
        // Addressed hops move to the hop owner, attached hops to the
        // destination owner — mirror of Tracer::walk / ClassSolver.
        add_reverse_edge(graph, reverse,
                         hop.ip_address ? *hop.ip_address : representative, i);
      }
    }
    return reverse;
  }

  /// Candidate-graph reverse edges out of one node, appended to `overlay`.
  void candidate_edges_from(size_t i, net::Ipv4Address representative,
                            std::vector<std::vector<uint32_t>>& overlay) const {
    const aft::Ipv4Entry* entry = candidate_.lookup(nodes_[i], representative);
    if (entry == nullptr) return;
    for (const aft::NextHop& hop : candidate_.next_hops(nodes_[i], *entry)) {
      if (hop.drop) continue;
      add_reverse_edge(candidate_, overlay,
                       hop.ip_address ? *hop.ip_address : representative, i);
    }
  }

  /// Label-forwarding reverse edges (identical on both snapshots; built
  /// from the base graph).
  std::vector<std::vector<uint32_t>> label_edges() const {
    std::vector<std::vector<uint32_t>> reverse(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      auto device = base_graph_.snapshot().devices.find(nodes_[i]);
      if (device == base_graph_.snapshot().devices.end()) continue;
      for (const auto& [label, entry] : device->second.aft.label_entries()) {
        // The tracer only follows the first resolved hop; taking them all
        // keeps the edge set a sound over-approximation.
        for (const aft::NextHop& hop : base_graph_.label_next_hops(nodes_[i], entry)) {
          if (hop.drop || !hop.ip_address) continue;
          add_reverse_edge(base_graph_, reverse, *hop.ip_address, i);
        }
      }
    }
    return reverse;
  }

  const IncrementalBase& base_;
  const ForwardingGraph& base_graph_;
  const ForwardingGraph& candidate_;
  std::vector<net::NodeName> nodes_;
  std::map<net::NodeName, size_t> index_;
  std::vector<std::vector<uint32_t>> local_label_;
};

/// Seed set for one column: nodes whose own deltas touch `representative`.
std::vector<size_t> dirty_seeds(const FibDelta& delta, const SpliceCloser& closer,
                                net::Ipv4Address representative) {
  std::vector<size_t> seeds;
  for (const auto& [node, ranges] : delta.node_dirty_ranges) {
    if (!delta.node_dirty(node, representative, representative)) continue;
    if (std::optional<size_t> index = closer.index_of(node)) seeds.push_back(*index);
  }
  return seeds;
}

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
  std::vector<PacketClass> dirty_classes;
  for (size_t c = 0; c < class_count; ++c) {
    std::optional<size_t> column =
        containing_base_class(base, classes[c].first, classes[c].last);
    if (p.delta.dirty(classes[c].first, classes[c].last)) {
      // A dirty class straddling a base-class boundary (a removed
      // prefix's edge inside it) has no base column to splice cells from.
      mode[c] = column ? ColumnMode::kCell : ColumnMode::kRetrace;
      if (column) base_column[c] = *column;
      dirty_index.push_back(c);
      dirty_classes.push_back(classes[c]);
      continue;
    }
    // The containment lemma says a clean candidate class lies inside one
    // base class; a miss means the preconditions were violated.
    if (!column) return fall_back("partition-mismatch");
    base_column[c] = *column;
  }
  stats.dirty_classes = dirty_index.size();

  // Per dirty cell column: the closure sources whose cells must re-trace.
  SpliceCloser closer(base, graph);
  const size_t node_count = closer.nodes().size();
  std::vector<size_t> source_node(source_count, SIZE_MAX);
  for (size_t s = 0; s < source_count; ++s)
    if (std::optional<size_t> index = closer.index_of(sources[s]))
      source_node[s] = *index;

  unsigned threads = sweep::resolve_threads(options);
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  std::vector<std::vector<uint8_t>> closures(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t c = dirty_index[i];
    if (mode[c] != ColumnMode::kCell) return;
    net::Ipv4Address representative = classes[c].representative();
    std::vector<uint8_t> in_closure = closer.closure(
        representative, base_column[c], dirty_seeds(p.delta, closer, representative));
    retrace[i].assign(source_count, 0);
    for (size_t s = 0; s < source_count; ++s)
      if (source_node[s] != SIZE_MAX && in_closure[source_node[s]])
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
  if (options.prime_lpm && !dirty_classes.empty()) graph.prime_class_lpm(dirty_classes);
  std::vector<DispositionSet> matrix(source_count * class_count);
  sweep::CacheRef cache(options.cache, graph, options.metrics);
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t c = dirty_index[i];
    net::Ipv4Address representative = classes[c].representative();
    if (mode[c] != ColumnMode::kCell) {
      (*cache).warm(representative);
      for (size_t s = 0; s < source_count; ++s)
        matrix[s * class_count + c] = (*cache).dispositions(sources[s], representative);
      return;
    }
    std::vector<net::NodeName> retrace_sources;
    std::vector<size_t> retrace_rows;
    for (size_t s = 0; s < source_count; ++s) {
      if (retrace[i][s] == 0) continue;
      retrace_sources.push_back(sources[s]);
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

  std::vector<net::NodeName> nodes = graph.nodes();
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

  SpliceCloser closer(base, graph);
  std::vector<size_t> source_node(node_count, SIZE_MAX);
  for (size_t s = 0; s < node_count; ++s)
    if (std::optional<size_t> index = closer.index_of(nodes[s]))
      source_node[s] = *index;

  unsigned threads = sweep::resolve_threads(options);
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  std::vector<std::vector<uint8_t>> closures(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t d = dirty_index[i];
    if (mode[d] != ColumnMode::kCell) return;
    net::Ipv4Address loopback = *loopbacks[d];
    std::vector<uint8_t> in_closure = closer.closure(
        loopback, base_column[d], dirty_seeds(p.delta, closer, loopback));
    retrace[i].assign(node_count, 0);
    for (size_t s = 0; s < node_count; ++s)
      if (source_node[s] != SIZE_MAX && in_closure[source_node[s]])
        retrace[i][s] = 1;
    closures[i] = std::move(in_closure);
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
    stats.dirty_nodes = closer.nodes().size();
  } else {
    std::vector<uint8_t> dirty_union(closer.nodes().size(), 0);
    for (const std::vector<uint8_t>& in_closure : closures)
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
      for (size_t s = 0; s < node_count; ++s) {
        if (s == d) continue;
        bool ok =
            (*cache).dispositions(nodes[s], loopback).contains(Disposition::kAccepted);
        reachable[s * node_count + d] = ok ? 1 : 0;
      }
      return;
    }
    std::vector<net::NodeName> retrace_sources;
    std::vector<size_t> retrace_rows;
    for (size_t s = 0; s < node_count; ++s) {
      if (s == d || retrace[i][s] == 0) continue;
      retrace_sources.push_back(nodes[s]);
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
