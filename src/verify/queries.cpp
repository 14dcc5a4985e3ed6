#include "verify/queries.hpp"

#include <algorithm>
#include <set>

#include "verify/incremental/incremental.hpp"
#include "verify/sweep.hpp"

namespace mfv::verify {

ReachabilityResult reachability(const ForwardingGraph& graph, const QueryOptions& options) {
  std::vector<PacketClass> classes = sweep::classes_for(graph.relevant_prefixes(), options);
  std::vector<net::NodeName> sources = sweep::resolve_sources(graph, options);
  std::vector<DispositionSet> matrix = sweep::disposition_matrix(
      graph, sources, classes, options, sweep::shard_latency_histogram(options));
  return sweep::reachability_rows(sources, classes, matrix, options);
}

std::string DifferentialRow::to_string() const {
  return source + " -> " + destination.to_string() + ": base=" + base.to_string() +
         " candidate=" + candidate.to_string();
}

std::vector<DifferentialRow> DifferentialResult::regressions() const {
  std::vector<DifferentialRow> out;
  for (const DifferentialRow& row : rows)
    if (row.base.all_success() && row.candidate.any_failure()) out.push_back(row);
  return out;
}

DifferentialResult differential_reachability(const ForwardingGraph& base,
                                             const ForwardingGraph& candidate,
                                             const QueryOptions& options) {
  DifferentialResult result;

  // Classes must be computed over the union of both snapshots' prefixes so
  // a boundary present in only one side still splits the space. Computed
  // once here — base and candidate then share one TraceCache pair across
  // every flow instead of re-deriving per-flow state.
  std::vector<net::Ipv4Prefix> prefixes = base.relevant_prefixes();
  std::vector<net::Ipv4Prefix> candidate_prefixes = candidate.relevant_prefixes();
  prefixes.insert(prefixes.end(), candidate_prefixes.begin(), candidate_prefixes.end());
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());

  std::vector<PacketClass> classes = sweep::classes_for(prefixes, options);
  result.classes = classes.size();

  // Sources: union of both snapshots' devices (or the explicit list).
  std::vector<net::NodeName> sources;
  if (!options.sources.empty()) {
    sources = options.sources;
  } else {
    std::set<net::NodeName> all;
    for (const net::NodeName& node : base.nodes()) all.insert(node);
    for (const net::NodeName& node : candidate.nodes()) all.insert(node);
    sources.assign(all.begin(), all.end());
  }

  // One shard per class resolves the class on both sides; only differing
  // cells become rows, source-major.
  const size_t class_count = classes.size();
  std::vector<ForwardingGraph::NodeId> base_ids = sweep::node_ids(base, sources);
  std::vector<ForwardingGraph::NodeId> candidate_ids = sweep::node_ids(candidate, sources);
  sweep::CacheRef base_cache(options.cache, base, options.metrics);
  sweep::CacheRef candidate_cache(options.candidate_cache, candidate, options.metrics);
  obs::Histogram* shard_latency = sweep::shard_latency_histogram(options);
  std::vector<DispositionSet> base_matrix(sources.size() * class_count);
  std::vector<DispositionSet> candidate_matrix(sources.size() * class_count);
  util::parallel_for_shards(sweep::resolve_threads(options), class_count, [&](size_t c) {
    sweep::timed_shard(shard_latency, [&] {
      net::Ipv4Address representative = classes[c].representative();
      (*base_cache).warm(representative);
      (*candidate_cache).warm(representative);
      for (size_t s = 0; s < sources.size(); ++s) {
        size_t cell = s * class_count + c;
        base_matrix[cell] = (*base_cache).dispositions(base_ids[s], representative);
        candidate_matrix[cell] =
            (*candidate_cache).dispositions(candidate_ids[s], representative);
      }
    });
  });

  result.flows = sources.size() * class_count;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t c = 0; c < class_count; ++c) {
      size_t cell = s * class_count + c;
      if (base_matrix[cell] == candidate_matrix[cell]) continue;
      result.rows.push_back(
          {sources[s], classes[c], base_matrix[cell], candidate_matrix[cell]});
    }
  }
  return result;
}

std::string RouteRow::to_string() const {
  std::string out = node + " " + prefix.to_string() + " " + protocol + "/" +
                    std::to_string(metric) + " ->";
  for (const std::string& hop : next_hops) out += " " + hop;
  return out;
}

std::vector<RouteRow> routes(const ForwardingGraph& graph, const net::NodeName& node) {
  std::vector<RouteRow> rows;
  for (ForwardingGraph::NodeId id = 0; id < graph.node_count(); ++id) {
    if (!node.empty() && graph.name(id) != node) continue;
    for (const ForwardingGraph::Route& route : graph.routes(id)) {
      RouteRow row;
      row.node = graph.name(id);
      row.prefix = route.entry->prefix;
      row.protocol = route.entry->origin_protocol;
      row.metric = route.entry->metric;
      for (const ForwardingGraph::Hop& compiled : route.hops) {
        const aft::NextHop& hop = *compiled.source;
        if (hop.drop) {
          row.next_hops.push_back("drop");
          continue;
        }
        std::string rendered;
        if (hop.ip_address) rendered = hop.ip_address->to_string();
        if (hop.interface)
          rendered += (rendered.empty() ? "via " : " via ") + *hop.interface;
        if (hop.label_op == aft::LabelOp::kPush)
          rendered += " push " + std::to_string(hop.label);
        row.next_hops.push_back(rendered.empty() ? "attached" : rendered);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

ReachabilityResult detect_loops(const ForwardingGraph& graph, const QueryOptions& options) {
  // Push the loop filter into the query sweep: non-loop rows are never
  // materialized instead of being built and thrown away.
  QueryOptions loop_options = options;
  loop_options.row_filter = DispositionSet();
  loop_options.row_filter.add(Disposition::kLoop);
  return reachability(graph, loop_options);
}

std::optional<net::Ipv4Address> device_loopback(const gnmi::Snapshot& snapshot,
                                                const net::NodeName& node) {
  auto it = snapshot.devices.find(node);
  if (it == snapshot.devices.end()) return std::nullopt;
  std::optional<net::Ipv4Address> fallback;
  for (const auto& [name, interface] : it->second.interfaces) {
    if (!interface.address || !interface.oper_up) continue;
    if (name.rfind("Loopback", 0) == 0 || name.rfind("lo", 0) == 0)
      return interface.address->address;
    if (!fallback || interface.address->address < *fallback)
      fallback = interface.address->address;
  }
  return fallback;
}

PairwiseResult pairwise_reachability(const ForwardingGraph& graph,
                                     const QueryOptions& options) {
  if (options.incremental != nullptr) return incremental_pairwise(graph, options);
  // Shard by destination device: its loopback's trace table is computed
  // once (memoized) and shared by all sources.
  std::vector<std::optional<net::Ipv4Address>> loopbacks = sweep::loopbacks(graph);
  return sweep::pairwise_cells(
      graph.nodes(), loopbacks,
      sweep::pairwise_matrix(graph, loopbacks, options,
                             sweep::shard_latency_histogram(options)));
}

}  // namespace mfv::verify
