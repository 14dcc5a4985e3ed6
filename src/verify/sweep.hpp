// Shared plumbing of the verify sweeps (internal to src/verify).
//
// The cold queries (queries.cpp) and the incremental splicer
// (incremental/splicer.cpp) resolve sources, packet classes, loopbacks,
// worker threads and memoization through these helpers, fill disposition
// and pairwise matrices through one routine each and emit rows and cells
// through one pair of functions, so a spliced answer cannot drift from
// the cold one.
// Every sweep runs the memoized TraceCache engine; the thread count only
// decides how many class shards run at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::verify::sweep {

inline std::vector<net::NodeName> resolve_sources(const ForwardingGraph& graph,
                                                  const QueryOptions& options) {
  if (!options.sources.empty()) return options.sources;
  return graph.nodes();
}

/// `names` resolved to `graph`'s node ids, once per query; kNoNode for a
/// name outside the graph (its cells report NO_ROUTE).
inline std::vector<ForwardingGraph::NodeId> node_ids(const ForwardingGraph& graph,
                                                     const std::vector<net::NodeName>& names) {
  std::vector<ForwardingGraph::NodeId> ids;
  ids.reserve(names.size());
  for (const net::NodeName& name : names)
    ids.push_back(graph.id_of(name).value_or(ForwardingGraph::kNoNode));
  return ids;
}

inline std::vector<PacketClass> classes_for(const std::vector<net::Ipv4Prefix>& prefixes,
                                            const QueryOptions& options) {
  if (options.scope) return compute_packet_classes(prefixes, *options.scope);
  return compute_packet_classes(prefixes);
}

inline unsigned resolve_threads(const QueryOptions& options) {
  if (options.threads != 0) return options.threads;
  return util::ThreadPool::default_threads();
}

inline bool row_passes(const QueryOptions& options, const DispositionSet& dispositions) {
  return options.row_filter.empty() || dispositions.intersects(options.row_filter);
}

/// The memoization a sweep uses: the caller's long-lived cache when
/// provided (service / session path), else a fresh query-local one.
class CacheRef {
 public:
  CacheRef(TraceCache* shared, const ForwardingGraph& graph,
           obs::MetricsRegistry* metrics) {
    if (shared == nullptr) local_ = std::make_unique<TraceCache>(graph, metrics);
    cache_ = shared != nullptr ? shared : local_.get();
  }
  TraceCache& operator*() { return *cache_; }

 private:
  std::unique_ptr<TraceCache> local_;
  TraceCache* cache_ = nullptr;
};

/// The per-shard latency histogram of a sweep (nullptr when no registry
/// is attached).
inline obs::Histogram* shard_latency_histogram(const QueryOptions& options) {
  if (options.metrics == nullptr) return nullptr;
  return &options.metrics->latency_histogram_us("verify_shard_latency_us");
}

/// Runs one shard, timing it into `histogram` when set.
template <typename Fn>
void timed_shard(obs::Histogram* histogram, Fn&& fn) {
  if (histogram == nullptr) {
    fn();
    return;
  }
  auto start = std::chrono::steady_clock::now();
  fn();
  histogram->observe(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
}

/// Row-major sources x classes disposition matrix of `graph`, one shard
/// per class: each shard warms its class's memoized table once and serves
/// every source from it into a shard-indexed slice, so the matrix never
/// depends on the worker count. Shards are timed into `shard_latency`
/// when set.
inline std::vector<DispositionSet> disposition_matrix(
    const ForwardingGraph& graph, const std::vector<net::NodeName>& sources,
    const std::vector<PacketClass>& classes, const QueryOptions& options,
    obs::Histogram* shard_latency) {
  const size_t class_count = classes.size();
  std::vector<ForwardingGraph::NodeId> source_ids = node_ids(graph, sources);
  std::vector<DispositionSet> matrix(sources.size() * class_count);
  CacheRef cache(options.cache, graph, options.metrics);
  util::parallel_for_shards(resolve_threads(options), class_count, [&](size_t c) {
    timed_shard(shard_latency, [&] {
      net::Ipv4Address representative = classes[c].representative();
      (*cache).warm(representative);
      for (size_t s = 0; s < sources.size(); ++s)
        matrix[s * class_count + c] = (*cache).dispositions(source_ids[s], representative);
    });
  });
  return matrix;
}

/// Each node's loopback (device_loopback), by node id.
inline std::vector<std::optional<net::Ipv4Address>> loopbacks(const ForwardingGraph& graph) {
  std::vector<std::optional<net::Ipv4Address>> out;
  out.reserve(graph.node_count());
  for (const net::NodeName& node : graph.nodes())
    out.push_back(device_loopback(graph.snapshot(), node));
  return out;
}

/// Row-major node x node reachability bits of `graph`, one shard per
/// destination with a loopback: its memoized trace table is computed
/// once and serves every source. Shards are timed into `shard_latency`
/// when set.
inline std::vector<uint8_t> pairwise_matrix(
    const ForwardingGraph& graph,
    const std::vector<std::optional<net::Ipv4Address>>& loopbacks,
    const QueryOptions& options, obs::Histogram* shard_latency) {
  const size_t node_count = graph.node_count();
  CacheRef cache(options.cache, graph, options.metrics);
  std::vector<uint8_t> reachable(node_count * node_count, 0);
  util::parallel_for_shards(resolve_threads(options), node_count, [&](size_t d) {
    if (!loopbacks[d]) return;
    timed_shard(shard_latency, [&] {
      for (ForwardingGraph::NodeId s = 0; s < node_count; ++s) {
        if (s == d) continue;
        bool ok = (*cache).dispositions(s, *loopbacks[d]).contains(Disposition::kAccepted);
        reachable[s * node_count + d] = ok ? 1 : 0;
      }
    });
  });
  return reachable;
}

/// Source-major rows of a sources x classes matrix that pass the row
/// filter; the flow and class counters cover every cell.
inline ReachabilityResult reachability_rows(const std::vector<net::NodeName>& sources,
                                            const std::vector<PacketClass>& classes,
                                            const std::vector<DispositionSet>& matrix,
                                            const QueryOptions& options) {
  ReachabilityResult result;
  result.classes = classes.size();
  result.flows = sources.size() * classes.size();
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t c = 0; c < classes.size(); ++c) {
      const DispositionSet& dispositions = matrix[s * classes.size() + c];
      if (!row_passes(options, dispositions)) continue;
      result.rows.push_back({sources[s], classes[c], dispositions});
    }
  }
  return result;
}

/// Source-major pairwise cells from a row-major node x node reachability
/// matrix; destinations without a loopback and the diagonal are skipped.
inline PairwiseResult pairwise_cells(
    const std::vector<net::NodeName>& nodes,
    const std::vector<std::optional<net::Ipv4Address>>& loopbacks,
    const std::vector<uint8_t>& reachable) {
  PairwiseResult result;
  const size_t node_count = nodes.size();
  for (size_t s = 0; s < node_count; ++s) {
    for (size_t d = 0; d < node_count; ++d) {
      if (s == d || !loopbacks[d]) continue;
      bool ok = reachable[s * node_count + d] != 0;
      result.cells.push_back({nodes[s], nodes[d], ok});
      ++result.total_pairs;
      if (ok) ++result.reachable_pairs;
    }
  }
  return result;
}

}  // namespace mfv::verify::sweep
