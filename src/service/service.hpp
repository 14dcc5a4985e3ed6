// The verification service: verbs over the snapshot store, scheduled by
// the broker.
//
//   upload_configs  register a topology; returns its content address
//                   (identical submissions dedupe to the same id)
//   snapshot        converge the uploaded network (or reuse the stored
//                   converged emulation — one boot per distinct content)
//   query           reachability / pairwise / loops / routes /
//                   differential against a stored snapshot, verified
//                   cold through the entry's shared TraceCache
//   fork_scenario   what-if: fork the stored converged emulation, apply
//                   perturbations, re-converge incrementally; the result
//                   is itself stored and addressable
//   explore         enumerate every converged state reachable under
//                   message-delivery nondeterminism (boot exploration of
//                   an uploaded submission, or perturbation exploration
//                   of a stored snapshot); properties come back
//                   holds-on-all / fails-on-some with a replayable
//                   witness schedule (src/explore)
//   stats           store / broker / request counters for observability
//   metrics         stats superset: the full MetricsRegistry snapshot
//                   (emu/verify/store/broker/scenario families), recent
//                   trace spans, and optional text exposition
//
// Every response carries a `timing` object (queue_wait_us, converge_us,
// verify_us, total_us) so clients can see where their latency went.
// Deeper visibility comes from the injected (or service-owned)
// obs::MetricsRegistry — every subsystem publishes into it — plus a
// ring-buffer SpanCollector that records a causal span per request with
// converge/verify child spans.
//
// Concurrency contract: stored snapshots are immutable once built (the
// compiled ForwardingGraph never mutates after construction) and all
// queries share the entry's thread-safe TraceCache, so N concurrent
// queries on one snapshot are both safe and byte-identical to serial
// execution.
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "service/broker.hpp"
#include "service/protocol.hpp"
#include "service/snapshot_store.hpp"
#include "verify/queries.hpp"

namespace mfv::service {

struct ServiceOptions {
  StoreOptions store;
  BrokerOptions broker;
  emu::EmulationOptions emulation;
  /// Event budget per convergence run (cold boot or fork re-converge).
  uint64_t max_events = 100000000ull;
  /// Worker threads per individual query. 1 keeps each request serial —
  /// the broker's pool is the parallelism — which is the right shape for
  /// a loaded service; raise it only for huge networks at low QPS.
  unsigned query_threads = 1;
  /// Row cap for rendered query results unless the request sets
  /// params.full = true.
  size_t max_rows = 1000;
  /// Metrics registry every subsystem (store, broker, emulation, trace
  /// caches, spans) publishes into. nullptr = the service owns a private
  /// registry, so the metrics verb always answers; inject one to observe
  /// the service in-process (tests do exactly this).
  obs::MetricsRegistry* metrics = nullptr;
  /// Span collector for request/converge/verify spans; nullptr = the
  /// service owns one with `span_capacity` slots.
  obs::SpanCollector* spans = nullptr;
  size_t span_capacity = 1024;
};

class VerificationService {
 public:
  explicit VerificationService(ServiceOptions options = {});
  ~VerificationService();

  VerificationService(const VerificationService&) = delete;
  VerificationService& operator=(const VerificationService&) = delete;

  /// Executes a request synchronously on the calling thread, bypassing
  /// the broker (tests, and the broker's own handler).
  Response execute(const Request& request, const ExecContext& context = {});

  /// Schedules through the broker: admission control, priorities,
  /// deadlines all apply. The callback runs exactly once.
  void submit(Request request, Broker::Callback callback);
  std::future<Response> submit(Request request);

  /// Stops admission and waits for in-flight requests (see Broker::drain).
  void drain();

  SnapshotStore& store() { return store_; }
  BrokerStats broker_stats() const { return broker_.stats(); }
  /// The registry/collector actually in use (injected or service-owned).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::SpanCollector& spans() { return *spans_; }

  // Rendering helpers, exposed so tests can compare a wire answer with a
  // direct engine run byte for byte. max_rows = 0 means unlimited.
  static util::Json render_reachability(const verify::ReachabilityResult& result,
                                        size_t max_rows);
  static util::Json render_pairwise(const verify::PairwiseResult& result);
  static util::Json render_differential(const verify::DifferentialResult& result,
                                        size_t max_rows);
  static util::Json render_routes(const std::vector<verify::RouteRow>& rows,
                                  size_t max_rows);

 private:
  /// Stamps the shared registry into the store/broker/emulation options
  /// before those members are constructed from them.
  static ServiceOptions wire_observability(ServiceOptions options,
                                           obs::MetricsRegistry* metrics);

  Response upload_configs(const Request& request);
  Response snapshot(const Request& request, util::Json& timing, uint64_t parent_span);
  Response query(const Request& request, util::Json& timing, uint64_t parent_span);
  Response fork_scenario(const Request& request, util::Json& timing,
                         uint64_t parent_span);
  Response explore(const Request& request, util::Json& timing, uint64_t parent_span);
  Response stats(const Request& request);
  Response metrics_snapshot(const Request& request);

  /// The topology `tenant` uploaded as `id`; NOT_FOUND when there is none.
  util::Result<std::shared_ptr<const emu::Topology>> find_upload(const std::string& tenant,
                                                                 const std::string& id);

  /// Resolves a "<field>": "<snapshot id>" param to a pinned store entry.
  util::Result<SnapshotStore::Lease> resolve_snapshot(const Request& request,
                                                      const char* field);

  /// QueryOptions for serving `entry` under the concurrency contract.
  verify::QueryOptions query_options(const Request& request,
                                     const StoredSnapshot& entry) const;

  /// Declared (and thus constructed) before options_/store_/broker_,
  /// which all consume the resolved registry pointer.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::SpanCollector> owned_spans_;
  obs::SpanCollector* spans_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;

  ServiceOptions options_;
  SnapshotStore store_;

  std::mutex uploads_mutex_;
  /// Registered topologies by content address (the dedup map).
  std::map<std::string, std::shared_ptr<const emu::Topology>> uploads_;

  std::atomic<uint64_t> requests_{0};

  /// Last member: drains before everything it references is destroyed.
  Broker broker_;
};

}  // namespace mfv::service
