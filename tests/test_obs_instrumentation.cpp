// End-to-end instrumentation tests (DESIGN.md §9): drive the paper's
// fig. 2 topology through converge → verify → store-hit against a
// service with an injected MetricsRegistry and SpanCollector, and assert
// *exact* metric deltas — the emulation, trace cache, snapshot store,
// broker, and scenario families all publish the numbers their plain
// accessors report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "emu/emulation.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "service/service.hpp"
#include "workload/scenarios.hpp"

namespace mfv {
namespace {

service::Request make_request(uint64_t id, const std::string& verb) {
  service::Request request;
  request.id = id;
  request.verb = verb;
  request.params = util::Json::object();
  return request;
}

TEST(ObsInstrumentation, ServicePublishesExactDeltas) {
  obs::MetricsRegistry registry;
  obs::SpanCollector spans({}, &registry);
  service::ServiceOptions options;
  options.metrics = &registry;
  options.spans = &spans;
  service::VerificationService svc(options);

  emu::Topology topology = workload::fig2_topology();
  const size_t node_count = topology.nodes.size();

  service::Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  service::Response uploaded = svc.execute(upload);
  ASSERT_TRUE(uploaded.ok()) << uploaded.status().to_string();
  const std::string submission = uploaded.result.find("submission")->as_string();

  // Cold snapshot: one store miss, one convergence run, and the counter
  // mirrors agree exactly with the response's own numbers. Building the
  // entry traces nothing: the entry's shared TraceCache arrives at the
  // first query empty.
  service::Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  service::Response cold = svc.execute(snapshot);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  ASSERT_FALSE(cold.result.find("hit")->as_bool());

  EXPECT_EQ(registry.counter("snapshot_store_misses").value(), 1u);
  EXPECT_EQ(registry.counter("snapshot_store_hits").value(), 0u);
  EXPECT_EQ(registry.gauge("snapshot_store_entries").value(), 1);
  EXPECT_GT(registry.gauge("snapshot_store_bytes").value(), 0);
  EXPECT_EQ(registry.counter("emu_convergence_runs").value(), 1u);
  EXPECT_GT(registry.counter("emu_events_processed").value(), 0u);
  EXPECT_EQ(registry.counter("emu_messages_delivered").value(),
            static_cast<uint64_t>(cold.result.find("messages")->as_int()));
  EXPECT_EQ(registry.latency_histogram_us("emu_convergence_wall_us").count(), 1u);
  obs::Histogram& virtual_us = registry.latency_histogram_us("emu_convergence_virtual_us");
  EXPECT_EQ(virtual_us.count(), 1u);
  EXPECT_EQ(virtual_us.sum(), cold.result.find("convergence_virtual_us")->as_int());

  // Warm snapshot: pure store hit, no second convergence.
  snapshot.id = 3;
  service::Response warm = svc.execute(snapshot);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.result.find("hit")->as_bool());
  EXPECT_EQ(registry.counter("snapshot_store_hits").value(), 1u);
  EXPECT_EQ(registry.counter("snapshot_store_misses").value(), 1u);
  EXPECT_EQ(registry.counter("emu_convergence_runs").value(), 1u);

  // First reachability sweep: each class's warm resolves it (a miss) and
  // every flow of the class is then a hit — classes * node_count hits.
  // The shard histogram records one latency per class shard.
  service::Request query = make_request(4, "query");
  query.params["snapshot"] = submission;
  query.params["kind"] = "reachability";
  service::Response first = svc.execute(query);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  const util::Json* answer = first.result.find("answer");
  ASSERT_NE(answer, nullptr);
  const uint64_t classes = static_cast<uint64_t>(answer->find("classes")->as_int());
  const uint64_t flows = static_cast<uint64_t>(answer->find("flows")->as_int());
  ASSERT_GT(classes, 0u);
  EXPECT_EQ(flows, classes * node_count);

  EXPECT_EQ(registry.counter("trace_cache_misses").value(), classes);
  EXPECT_EQ(registry.counter("trace_cache_hits").value(), classes * node_count);
  EXPECT_EQ(registry.counter("trace_cache_reexpansions").value(), 0u);
  EXPECT_EQ(registry.latency_histogram_us("verify_shard_latency_us").count(), classes);

  // Second identical sweep: fully memoized — hits grow by another
  // classes * (sources + 1) and misses by zero.
  query.id = 5;
  service::Response second = svc.execute(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.result.find("answer")->dump(), answer->dump());
  EXPECT_EQ(registry.counter("trace_cache_misses").value(), classes);
  EXPECT_EQ(registry.counter("trace_cache_hits").value(),
            classes * (2 * node_count + 1));
  EXPECT_EQ(registry.latency_histogram_us("verify_shard_latency_us").count(),
            2 * classes);

  // The metrics verb is a strict stats superset whose embedded registry
  // snapshot is byte-identical to the injected registry's own.
  service::Response metrics = svc.execute(make_request(6, "metrics"));
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  ASSERT_NE(metrics.result.find("store"), nullptr);   // stats fields survive
  ASSERT_NE(metrics.result.find("broker"), nullptr);
  ASSERT_NE(metrics.result.find("requests"), nullptr);
  ASSERT_NE(metrics.result.find("metrics"), nullptr);
  EXPECT_EQ(metrics.result.find("metrics")->dump(), registry.to_json().dump());
  EXPECT_EQ(metrics.result.find("spans_dropped")->as_int(), 0);
  EXPECT_GT(metrics.result.find("spans")->as_array().size(), 0u);

  // Spans are causally linked: converge and verify are children of the
  // request spans that triggered them.
  std::vector<obs::SpanRecord> records = spans.snapshot();
  uint64_t converge_parent = 0, verify_parent = 0;
  std::vector<uint64_t> request_ids;
  for (const obs::SpanRecord& record : records) {
    if (record.name == "request") request_ids.push_back(record.id);
    if (record.name == "converge") converge_parent = record.parent;
    if (record.name == "verify") verify_parent = record.parent;
  }
  auto is_request = [&](uint64_t id) {
    return std::find(request_ids.begin(), request_ids.end(), id) != request_ids.end();
  };
  EXPECT_TRUE(is_request(converge_parent)) << "converge span must parent to a request";
  EXPECT_TRUE(is_request(verify_parent)) << "verify span must parent to a request";

  // Broker family: one scheduled request, then drain so the worker's
  // post-callback accounting has settled.
  auto scheduled = svc.submit(make_request(7, "stats"));
  ASSERT_TRUE(scheduled.get().ok());
  svc.drain();
  EXPECT_EQ(registry.counter("broker_accepted").value(), 1u);
  EXPECT_EQ(registry.counter("broker_completed").value(), 1u);
  EXPECT_EQ(registry.counter("broker_rejected").value(), 0u);
  EXPECT_EQ(registry.latency_histogram_us("broker_queue_wait_us").count(), 1u);
  EXPECT_EQ(registry.gauge("broker_queued").value(), 0);
  EXPECT_EQ(registry.gauge("broker_executing").value(), 0);

  // Every execute — direct or broker-dispatched — counted exactly once.
  EXPECT_EQ(registry.counter("service_requests").value(), 7u);
}

TEST(ObsInstrumentation, ScenarioRunnerPublishesSweepMetrics) {
  emu::Topology topology = workload::fig2_topology();
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(topology).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  obs::MetricsRegistry registry;
  scenario::ScenarioRunnerOptions options;
  options.threads = 2;
  options.metrics = &registry;
  scenario::ScenarioRunner runner(emulation, options);

  std::vector<scenario::Scenario> scenarios = scenario::single_link_cuts(topology);
  ASSERT_GT(scenarios.size(), 0u);
  auto results = runner.run(scenarios);
  ASSERT_TRUE(results.ok()) << results.status().to_string();

  EXPECT_EQ(registry.counter("scenario_forks").value(), scenarios.size());
  // Every single-cut scenario has depth 1 → first bucket of {1,2,4,...}.
  obs::Histogram& depth = registry.histogram("scenario_fork_depth", {1, 2, 4, 8, 16, 32});
  EXPECT_EQ(depth.count(), scenarios.size());
  EXPECT_EQ(depth.bucket_counts()[0], scenarios.size());

  uint64_t total_events = 0;
  int64_t total_reconvergence_us = 0;
  for (const scenario::ScenarioResult& result : *results) {
    total_events += result.events;
    total_reconvergence_us += result.reconvergence.count_micros();
  }
  EXPECT_EQ(registry.counter("scenario_events").value(), total_events);
  obs::Histogram& reconvergence =
      registry.latency_histogram_us("scenario_reconvergence_virtual_us");
  EXPECT_EQ(reconvergence.count(), scenarios.size());
  EXPECT_EQ(reconvergence.sum(), total_reconvergence_us);
  // Each fork mutates shared CoW state while applying its cut, so the
  // sweep must have paid for at least one clone per scenario.
  EXPECT_GE(registry.counter("scenario_cow_clones").value(), scenarios.size());
}

}  // namespace
}  // namespace mfv
