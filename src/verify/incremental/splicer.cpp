// Pairwise splicer: capture the base's pairwise answer, then answer a
// fork's pairwise query by re-tracing only what the delta can actually
// touch and splicing everything else from the captured bits.
//
// The dirty set comes straight from the two compiled graphs. For a
// destination whose loopback is the same on both, a node is a *seed* when
// one step of the trace solver (ClassSolver::expand) at that loopback can
// differ between base and fork: it owns the loopback on one side only, or
// its route there differs in a hop's drop flag, filter verdicts, next node,
// pushed label or attached-hop outcome. A node that is not a seed steps
// identically on both graphs. Granularity is per cell: a destination
// without seeds splices whole, and inside a dirty destination a cell
// (source, destination) still splices unless the source can meet a seed
// along base forwarding at the loopback (plus the label edges, identical on
// both graphs by precondition). A source outside that backward closure
// only ever steps through non-seeds, so it forwards the loopback hop by hop
// identically on both graphs (DESIGN.md §11). Only closure sources
// re-trace, via TraceCache's partial solve — warming the full
// per-destination table would cost O(nodes) per dirty destination and
// erase the win. Every precondition failure routes to the cold path with a
// named reason, and the result is byte-identical to cold re-verification
// either way (enforced by tests and the incremental fuzz oracle).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

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
  /// Label-forwarding reverse edges (identical on both graphs: a label
  /// delta falls back), address-independent, built once.
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
  kSplice,   // no seed: every cell from the base answer
  kCell,     // seeded: closure cells re-trace, the rest splice
  kRetrace,  // the loopback moved: re-trace every cell
};

using NodeId = ForwardingGraph::NodeId;
using Hop = ForwardingGraph::Hop;

/// Why `candidate` cannot splice from `base`, or "" when it can. Node ids
/// must name the same devices on both graphs, and the label tables must
/// step identically: the closure takes its label edges from the base.
std::string splice_precondition(const ForwardingGraph& base,
                                const ForwardingGraph& candidate) {
  if (base.nodes() != candidate.nodes()) return "node-set-delta";
  auto same_hop = [](const Hop& b, const Hop& c) {
    return b.next == c.next && b.label_op == c.label_op && b.label == c.label &&
           b.drop == c.drop;
  };
  auto same_binding = [&](const auto& b, const auto& c) {
    return b.first == c.first && std::equal(b.second.begin(), b.second.end(),
                                            c.second.begin(), c.second.end(), same_hop);
  };
  for (NodeId node = 0; node < base.node_count(); ++node) {
    auto b = base.labels(node);
    auto c = candidate.labels(node);
    if (!std::equal(b.begin(), b.end(), c.begin(), c.end(), same_binding))
      return "label-delta";
  }
  return "";
}

/// One destination as the seed rule probes it: its node id, its loopback
/// (the same on both graphs) and that loopback's owner on each side.
struct Probe {
  size_t destination;
  net::Ipv4Address loopback;
  NodeId base_owner = ForwardingGraph::kNoNode;
  NodeId candidate_owner = ForwardingGraph::kNoNode;
  /// Owned on both sides by the same node, whose ingress filter gives the
  /// loopback the same verdict on both: an attached hop then steps the
  /// same way from every node.
  bool same_attached = false;

  Probe(const ForwardingGraph& base, const ForwardingGraph& candidate, size_t node,
        net::Ipv4Address address)
      : destination(node),
        loopback(address),
        base_owner(base.owner(address)),
        candidate_owner(candidate.owner(address)) {
    if (base_owner == candidate_owner && base_owner != ForwardingGraph::kNoNode)
      same_attached =
          ForwardingGraph::permits(base.ingress_acl(base_owner, address), address) ==
          ForwardingGraph::permits(candidate.ingress_acl(base_owner, address), address);
  }
};

/// True when hop `b` of `node`'s base route and hop `c` at the same
/// position of its candidate route move a packet for `probe.loopback` the
/// same way: the per-hop cases of ClassSolver::expand. Filters are
/// compared by verdict, never by pointer (they live in different
/// snapshots).
bool same_step(const ForwardingGraph& base, const ForwardingGraph& candidate, NodeId node,
               const Probe& probe, const Hop& b, const Hop& c) {
  const net::Ipv4Address to = probe.loopback;
  if (b.drop != c.drop) return false;
  if (b.drop) return true;
  const bool out = ForwardingGraph::permits(b.egress_acl, to);
  if (out != ForwardingGraph::permits(c.egress_acl, to)) return false;
  if (!out) return true;
  if (b.addressed != c.addressed) return false;
  if (b.addressed) {
    return b.next == c.next &&
           (b.next == ForwardingGraph::kNoNode ||
            (ForwardingGraph::permits(b.ingress_acl, to) ==
                 ForwardingGraph::permits(c.ingress_acl, to) &&
             b.label_op == c.label_op && b.label == c.label));
  }
  if (probe.base_owner != probe.candidate_owner) return false;
  if (probe.base_owner != ForwardingGraph::kNoNode) return probe.same_attached;
  return base.on_connected_subnet(node, to) == candidate.on_connected_subnet(node, to);
}

/// True when one step of the trace solver at `node` towards
/// `probe.loopback` can differ between the two graphs.
bool is_seed(const ForwardingGraph& base, const ForwardingGraph& candidate, NodeId node,
             const Probe& probe) {
  const bool owns = node == probe.base_owner;
  if (owns != (node == probe.candidate_owner)) return true;
  if (owns) return false;  // accepts on both graphs
  auto hops = [&](const ForwardingGraph& graph) {
    const ForwardingGraph::Route* route = graph.route(node, probe.loopback);
    return route == nullptr ? std::span<const Hop>() : route->hops;
  };
  std::span<const Hop> b = hops(base);
  std::span<const Hop> c = hops(candidate);
  if (b.size() != c.size()) return true;
  for (size_t i = 0; i < b.size(); ++i)
    if (!same_step(base, candidate, node, probe, b[i], c[i])) return true;
  return false;
}

using Reverse = std::vector<std::vector<uint32_t>>;  // node id -> upstream ids

/// Reverse forwarding edges of `graph` at `destination`, all nodes.
/// Addressed hops move to the hop owner, attached hops to the destination
/// owner — mirror of Tracer::walk / ClassSolver.
Reverse forwarding_edges(const ForwardingGraph& graph, net::Ipv4Address destination) {
  Reverse reverse(graph.node_count());
  NodeId owner = graph.owner(destination);
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    const ForwardingGraph::Route* route = graph.route(node, destination);
    if (route == nullptr) continue;
    for (const Hop& hop : route->hops) {
      if (hop.drop) continue;
      NodeId next = hop.addressed ? hop.next : owner;
      if (next != ForwardingGraph::kNoNode) reverse[next].push_back(node);
    }
  }
  return reverse;
}

/// Label-forwarding reverse edges of `graph`, address-independent.
Reverse label_edges(const ForwardingGraph& graph) {
  Reverse reverse(graph.node_count());
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    for (const auto& [label, hops] : graph.labels(node)) {
      // The tracer only follows the first resolved hop, and ignores its
      // drop flag; taking every hop keeps the edge set a sound
      // over-approximation.
      for (const Hop& hop : hops)
        if (hop.next != ForwardingGraph::kNoNode) reverse[hop.next].push_back(node);
    }
  }
  return reverse;
}

/// Nodes whose flows to `destination`'s loopback can meet one of `seeds`:
/// reverse reachability of the seeds over the base forwarding edges at the
/// loopback plus the label edges, by node id (base and candidate share
/// ids — the precondition). The candidate's edges are not needed: a node
/// that is not a seed steps identically on both graphs, so a candidate
/// path reaches its first seed through base edges. A source outside the
/// set traces the loopback identically on both graphs (DESIGN.md §11).
/// Fills the base's SpliceAdjacency memo under its once_flags and
/// otherwise allocates locally, so dirty destinations can run it in
/// parallel and concurrent queries can share one base.
std::vector<uint8_t> closure(const IncrementalBase& base, size_t destination,
                             const std::vector<NodeId>& seeds) {
  SpliceAdjacency& memo = *base.adjacency;
  std::call_once(memo.built[destination], [&] {
    memo.columns[destination] = forwarding_edges(*base.graph, *base.loopbacks[destination]);
  });
  std::call_once(memo.label_built, [&] { memo.label_reverse = label_edges(*base.graph); });

  std::vector<uint8_t> in_closure(base.graph->node_count(), 0);
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
    for (uint32_t upstream : memo.columns[destination][node]) reach(upstream);
    for (uint32_t upstream : memo.label_reverse[node]) reach(upstream);
  }
  return in_closure;
}

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
  const ForwardingGraph& base_graph = *base->graph;
  if (std::string reason = splice_precondition(base_graph, graph); !reason.empty())
    return fall_back(std::move(reason));

  // The node lists are equal and node ids follow name order, so row s and
  // column d name the same devices on both sides.
  const std::vector<net::NodeName>& nodes = graph.nodes();
  const size_t node_count = nodes.size();
  stats.destinations = node_count;

  // A moved loopback re-traces its column whole; every other loopback is
  // probed for seeds.
  std::vector<std::optional<net::Ipv4Address>> loopbacks = sweep::loopbacks(graph);
  std::vector<ColumnMode> mode(node_count, ColumnMode::kSplice);
  std::vector<Probe> probes;
  for (size_t d = 0; d < node_count; ++d) {
    if (!loopbacks[d]) continue;  // column skipped, as in the cold sweep
    if (base->loopbacks[d] != loopbacks[d])
      mode[d] = ColumnMode::kRetrace;
    else
      probes.emplace_back(base_graph, graph, d, *loopbacks[d]);
  }

  // The seed pass walks node by node and probes each node's tables for
  // every destination at once, so they stay in cache: seeded[n * P + i]
  // marks node n a seed for probes[i]. A destination with a seed splices
  // per cell; one without splices whole.
  unsigned threads = sweep::resolve_threads(options);
  const size_t probe_count = probes.size();
  std::vector<uint8_t> seeded(node_count * probe_count, 0);
  util::parallel_for_shards(threads, node_count, [&](size_t node) {
    for (size_t i = 0; i < probe_count; ++i)
      seeded[node * probe_count + i] =
          is_seed(base_graph, graph, static_cast<NodeId>(node), probes[i]) ? 1 : 0;
  });
  std::vector<std::vector<NodeId>> seeds(node_count);  // by destination
  for (NodeId node = 0; node < node_count; ++node)
    for (size_t i = 0; i < probe_count; ++i)
      if (seeded[node * probe_count + i] != 0) seeds[probes[i].destination].push_back(node);
  std::vector<size_t> dirty_index;
  for (size_t d = 0; d < node_count; ++d) {
    if (!seeds[d].empty()) mode[d] = ColumnMode::kCell;
    if (mode[d] != ColumnMode::kSplice) dirty_index.push_back(d);
  }
  stats.dirty_destinations = dirty_index.size();

  // Sources are the graph's own nodes (row s is node id s), so a cell
  // destination's closure is its re-trace row set.
  std::vector<std::vector<uint8_t>> retrace(dirty_index.size());
  util::parallel_for_shards(threads, dirty_index.size(), [&](size_t i) {
    size_t d = dirty_index[i];
    if (mode[d] == ColumnMode::kCell) retrace[i] = closure(*base, d, seeds[d]);
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
