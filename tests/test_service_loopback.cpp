// End-to-end service tests over a real unix-domain socket: the full
// upload → snapshot → query → fork → stats round trip, dedup and
// store-hit behaviour, byte-identical answers between N parallel wire
// clients and a serial api::Session, over-capacity bursts rejected with
// RESOURCE_EXHAUSTED (never a hang), and graceful drain delivering
// in-flight responses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "workload/generator.hpp"

namespace mfv::service {
namespace {

emu::Topology test_topology() {
  workload::WanOptions options;
  options.routers = 4;
  options.seed = 7;
  return workload::wan_topology(options);
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/mfv_test_" + std::string(tag) + "_" + std::to_string(getpid()) + ".sock";
}

struct Harness {
  explicit Harness(const char* tag, ServiceOptions service_options = {})
      : service(service_options) {
    ServerOptions server_options;
    server_options.unix_path = unique_socket_path(tag);
    server = std::make_unique<Server>(service, server_options);
    EXPECT_TRUE(server->start().ok());
  }
  ~Harness() { server->stop(); }

  Client connect() {
    Client client;
    EXPECT_TRUE(client.connect_unix(server->unix_path()).ok());
    return client;
  }

  VerificationService service;
  std::unique_ptr<Server> server;
};

Request make_request(uint64_t id, const std::string& verb) {
  Request request;
  request.id = id;
  request.verb = verb;
  request.params = util::Json::object();
  return request;
}

/// upload_configs + snapshot; returns the snapshot id.
std::string build_snapshot(Client& client, const emu::Topology& topology,
                           bool expect_store_hit) {
  Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  auto uploaded = client.call(upload);
  EXPECT_TRUE(uploaded.ok() && uploaded->ok()) << uploaded.status().to_string();
  const std::string submission = uploaded->result.find("submission")->as_string();

  Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  auto built = client.call(snapshot);
  EXPECT_TRUE(built.ok() && built->ok()) << built.status().to_string();
  EXPECT_EQ(built->result.find("hit")->as_bool(), expect_store_hit);
  EXPECT_EQ(built->result.find("snapshot")->as_string(), submission);
  return submission;
}

TEST(ServiceLoopback, FullRoundTrip) {
  Harness harness("roundtrip");
  Client client = harness.connect();
  emu::Topology topology = test_topology();

  // Upload; re-upload dedupes onto the same submission id.
  Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  auto first = client.call(upload);
  ASSERT_TRUE(first.ok() && first->ok()) << first.status().to_string();
  EXPECT_FALSE(first->result.find("deduped")->as_bool());
  const std::string submission = first->result.find("submission")->as_string();

  upload.id = 2;
  auto second = client.call(upload);
  ASSERT_TRUE(second.ok() && second->ok());
  EXPECT_TRUE(second->result.find("deduped")->as_bool());
  EXPECT_EQ(second->result.find("submission")->as_string(), submission);

  // First snapshot converges; the second is a pure store hit.
  Request snapshot = make_request(3, "snapshot");
  snapshot.params["submission"] = submission;
  auto cold = client.call(snapshot);
  ASSERT_TRUE(cold.ok() && cold->ok()) << cold.status().to_string();
  EXPECT_FALSE(cold->result.find("hit")->as_bool());
  EXPECT_GT(cold->result.find("entries")->as_int(), 0);
  ASSERT_NE(cold->result.find("timing"), nullptr);
  EXPECT_GE(cold->result.find("timing")->find("converge_us")->as_int(), 0);

  snapshot.id = 4;
  auto warm = client.call(snapshot);
  ASSERT_TRUE(warm.ok() && warm->ok());
  EXPECT_TRUE(warm->result.find("hit")->as_bool());
  EXPECT_EQ(warm->result.find("timing")->find("converge_us")->as_int(), 0);

  // Query it.
  Request query = make_request(5, "query");
  query.params["snapshot"] = submission;
  query.params["kind"] = "pairwise";
  auto pairwise = client.call(query);
  ASSERT_TRUE(pairwise.ok() && pairwise->ok()) << pairwise.status().to_string();
  const util::Json* answer = pairwise->result.find("answer");
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(answer->find("total_pairs")->as_int(), 4 * 3);
  EXPECT_GE(pairwise->result.find("timing")->find("verify_us")->as_int(), 0);

  // Fork a what-if (cut the first link) and run a differential.
  Request fork = make_request(6, "fork_scenario");
  fork.params["base"] = submission;
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(
      scenario::LinkCut{topology.links[0].a, topology.links[0].b}));
  fork.params["perturbations"] = perturbations;
  auto forked = client.call(fork);
  ASSERT_TRUE(forked.ok() && forked->ok()) << forked.status().to_string();
  EXPECT_FALSE(forked->result.find("hit")->as_bool());
  const std::string what_if = forked->result.find("snapshot")->as_string();
  EXPECT_NE(what_if, submission);

  // Identical fork request: store hit, no re-convergence.
  fork.id = 7;
  auto refork = client.call(fork);
  ASSERT_TRUE(refork.ok() && refork->ok());
  EXPECT_TRUE(refork->result.find("hit")->as_bool());
  EXPECT_EQ(refork->result.find("snapshot")->as_string(), what_if);

  Request differential = make_request(8, "query");
  differential.params["snapshot"] = what_if;
  differential.params["kind"] = "differential";
  differential.params["base"] = submission;
  auto diff = client.call(differential);
  ASSERT_TRUE(diff.ok() && diff->ok()) << diff.status().to_string();
  EXPECT_GE(diff->result.find("answer")->find("flows")->as_int(), 0);

  // Observability: the stats verb reflects what just happened.
  auto stats = client.call(make_request(9, "stats"));
  ASSERT_TRUE(stats.ok() && stats->ok());
  const util::Json* store = stats->result.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("entries")->as_int(), 2);  // base + fork
  EXPECT_GE(store->find("hits")->as_int(), 2);     // warm snapshot + refork
  EXPECT_EQ(store->find("misses")->as_int(), 2);
  EXPECT_GT(stats->result.find("broker")->find("completed")->as_int(), 0);
  EXPECT_EQ(stats->result.find("uploads")->as_int(), 1);

  // Error paths keep the connection usable.
  Request bad_query = make_request(10, "query");
  bad_query.params["snapshot"] = "not-a-key";
  auto bad = client.call(bad_query);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, util::StatusCode::kInvalidArgument);

  Request missing = make_request(11, "query");
  missing.params["snapshot"] = SnapshotKey{1, 2, 3}.to_string();
  auto not_found = client.call(missing);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->code, util::StatusCode::kNotFound);

  auto unknown = client.call(make_request(12, "frobnicate"));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->code, util::StatusCode::kInvalidArgument);
}

TEST(ServiceLoopback, MetricsVerbIsStatsSupersetWithRegistryParity) {
  obs::MetricsRegistry registry;
  ServiceOptions service_options;
  service_options.metrics = &registry;
  Harness harness("metrics", service_options);
  emu::Topology topology = test_topology();
  Client client = harness.connect();
  const std::string snapshot_id =
      build_snapshot(client, topology, /*expect_store_hit=*/false);

  Request query = make_request(5, "query");
  query.params["snapshot"] = snapshot_id;
  query.params["kind"] = "reachability";
  ASSERT_TRUE(client.call(query).ok());

  Request metrics_request = make_request(6, "metrics");
  metrics_request.params["text"] = true;
  auto metrics = client.call(metrics_request);
  ASSERT_TRUE(metrics.ok() && metrics->ok()) << metrics.status().to_string();

  // Superset: every stats field is present alongside the registry dump.
  auto stats = client.call(make_request(7, "stats"));
  ASSERT_TRUE(stats.ok() && stats->ok());
  for (const auto& [key, value] : stats->result.members()) {
    // Fields carrying broker counters move between the two calls (each
    // request increments its own tenant's accepted/completed).
    if (key == "timing" || key == "broker" || key == "requests" || key == "tenants")
      continue;
    const util::Json* mirrored = metrics->result.find(key);
    ASSERT_NE(mirrored, nullptr) << "stats field '" << key << "' missing from metrics";
    EXPECT_EQ(mirrored->dump(), value.dump()) << "stats field '" << key << "' differs";
  }
  ASSERT_NE(metrics->result.find("broker"), nullptr);
  ASSERT_NE(metrics->result.find("requests"), nullptr);

  // Parity: every counter in the wire answer matches the in-process
  // registry — excluding the broker_/service_ families, which keep moving
  // between the wire snapshot and this assertion (the broker finishes its
  // own bookkeeping after the response callback fires).
  const util::Json* counters = metrics->result.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->members().size(), 0u);
  bool saw_emu = false, saw_cache = false, saw_store = false;
  for (const auto& [name, value] : counters->members()) {
    if (name.rfind("broker_", 0) == 0 || name.rfind("service_", 0) == 0) continue;
    saw_emu = saw_emu || name.rfind("emu_", 0) == 0;
    saw_cache = saw_cache || name.rfind("trace_cache_", 0) == 0;
    saw_store = saw_store || name.rfind("snapshot_store_", 0) == 0;
    EXPECT_EQ(static_cast<uint64_t>(value.as_int()), registry.counter(name).value())
        << "counter '" << name << "' drifted from the injected registry";
  }
  EXPECT_TRUE(saw_emu && saw_cache && saw_store)
      << "wire metrics must cover the emu/verify/store families";

  // The text exposition rides along and mentions a counter we know fired.
  const util::Json* text = metrics->result.find("text");
  ASSERT_NE(text, nullptr);
  EXPECT_NE(text->as_string().find("emu_convergence_runs"), std::string::npos);

  // Span dump: present, bounded by the requested cap.
  metrics_request.id = 8;
  metrics_request.params["spans"] = 2;
  auto capped = client.call(metrics_request);
  ASSERT_TRUE(capped.ok() && capped->ok());
  EXPECT_LE(capped->result.find("spans")->as_array().size(), 2u);
  EXPECT_GT(capped->result.find("spans")->as_array().size(), 0u);
}

TEST(ServiceLoopback, ParallelClientsMatchSerialSession) {
  emu::Topology topology = test_topology();

  // Ground truth: a plain api::Session on the same topology, queried with
  // the engine options the service uses.
  api::Session session;
  ASSERT_TRUE(session.init_snapshot(topology, "base").ok());
  verify::QueryOptions engine_options;
  engine_options.threads = 1;
  const std::string expected_pairwise =
      VerificationService::render_pairwise(
          *session.pairwise_reachability("base", engine_options))
          .dump();
  const std::string expected_reachability =
      VerificationService::render_reachability(
          *session.reachability("base", engine_options), /*max_rows=*/0)
          .dump();
  const std::string expected_routes =
      VerificationService::render_routes(*session.routes("base"), /*max_rows=*/0).dump();

  ServiceOptions service_options;
  service_options.broker.threads = 4;
  Harness harness("parallel", service_options);
  {
    Client client = harness.connect();
    build_snapshot(client, topology, /*expect_store_hit=*/false);
  }
  const std::string snapshot_id = key_for_topology(topology).to_string();

  // N clients hammer the same stored snapshot concurrently; every answer
  // must be byte-identical to the serial session's.
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.connect_unix(harness.server->unix_path()).ok());
      for (int round = 0; round < 3; ++round) {
        Request query = make_request(static_cast<uint64_t>(c * 100 + round), "query");
        query.params["snapshot"] = snapshot_id;
        query.params["kind"] = round == 0 ? "pairwise"
                               : round == 1 ? "reachability"
                                            : "routes";
        query.params["full"] = true;
        auto response = client.call(query);
        ASSERT_TRUE(response.ok() && response->ok()) << response.status().to_string();
        const std::string answer = response->result.find("answer")->dump();
        if (round == 0) EXPECT_EQ(answer, expected_pairwise);
        else if (round == 1) EXPECT_EQ(answer, expected_reachability);
        else EXPECT_EQ(answer, expected_routes);
      }
    });
  for (std::thread& thread : clients) thread.join();

  // The shared per-snapshot TraceCache must have been reused across
  // requests (first query warms it, the rest hit).
  StoreStats stats = harness.service.store().stats();
  EXPECT_GT(stats.trace_hits, 0u);
}

TEST(ServiceLoopback, OverCapacityBurstIsRejectedNotHung) {
  ServiceOptions service_options;
  service_options.broker.threads = 1;
  service_options.broker.queue_capacity = 2;
  Harness harness("burst", service_options);
  // A fabric whose fork reconvergence takes whole milliseconds: the
  // three forks below are the runway during which the wire burst must be
  // turned away, so it has to dwarf any single-core scheduling delay of
  // the server's reader thread.
  workload::WanOptions wan;
  wan.routers = 16;
  wan.seed = 7;
  emu::Topology topology = workload::wan_topology(wan);

  Client client = harness.connect();
  const std::string snapshot_id =
      build_snapshot(client, topology, /*expect_store_hit=*/false);

  // Plug the single worker and fill the capacity-2 queue with slow forks
  // submitted in-process — admission happens synchronously in this
  // thread, and the stats poll makes "worker busy, queue full" a fact
  // rather than a race before the wire burst lands. (Driving the forks
  // over the wire is not enough on one core: wakeup preemption can park
  // the server's reader behind the worker so the queue never builds.)
  auto fork_request = [&](uint64_t id, size_t link) {
    Request fork = make_request(id, "fork_scenario");
    fork.params["base"] = snapshot_id;
    util::Json perturbations = util::Json::array();
    perturbations.push_back(scenario::perturbation_to_json(
        scenario::LinkCut{topology.links[link].a, topology.links[link].b}));
    fork.params["perturbations"] = perturbations;
    return fork;
  };
  // The worker decrements `executing` only after a response callback
  // returns, so the snapshot build above may still read as in-flight;
  // wait for quiescence or the poll below can trip on the wrong request.
  auto broker_idle = [&] {
    BrokerStats stats = harness.service.broker_stats();
    return stats.executing == 0 && stats.queued == 0;
  };
  for (int spin = 0; !broker_idle(); ++spin) {
    ASSERT_LT(spin, 20000) << "broker never went idle";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::future<Response> blocker = harness.service.submit(fork_request(100, 0));
  // Wait for the blocker to be popped off the queue. Only latching
  // conditions are pollable here: on one core the worker can run an
  // entire fork while this thread sleeps, so a transient `executing == 1`
  // may never be observed — but `queued` drops to zero when the blocker
  // is popped and stays there until we submit again.
  for (int spin = 0; harness.service.broker_stats().queued != 0; ++spin) {
    ASSERT_LT(spin, 20000) << "blocker fork never left the queue";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::future<Response> fill_one = harness.service.submit(fork_request(101, 1));
  std::future<Response> fill_two = harness.service.submit(fork_request(102, 2));

  // Pipeline a burst of queries far beyond queue capacity. Every request
  // must be answered — the overflow explicitly with RESOURCE_EXHAUSTED.
  constexpr uint64_t kBurst = 20;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Request query = make_request(200 + i, "query");
    query.params["snapshot"] = snapshot_id;
    query.params["kind"] = "pairwise";
    ASSERT_TRUE(client.send(query).ok());
  }

  size_t ok_count = 0, exhausted = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto response = client.receive();
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    if (response->ok()) ++ok_count;
    else {
      EXPECT_EQ(response->code, util::StatusCode::kResourceExhausted)
          << response->status().to_string();
      ++exhausted;
    }
  }
  EXPECT_EQ(ok_count + exhausted, kBurst) << "every request must be answered";
  EXPECT_GT(exhausted, 0u) << "burst must overflow a full capacity-2 queue";
  // The plugged work is untouched by the overflow.
  for (std::future<Response>* fork : {&blocker, &fill_one, &fill_two}) {
    Response response = fork->get();
    EXPECT_TRUE(response.ok()) << response.status().to_string();
  }
  EXPECT_EQ(harness.service.broker_stats().rejected, exhausted);
}

TEST(ServiceLoopback, StopDeliversInFlightResponses) {
  Harness harness("drain");
  emu::Topology topology = test_topology();
  Client client = harness.connect();
  const std::string snapshot_id =
      build_snapshot(client, topology, /*expect_store_hit=*/false);

  // A slow what-if is executing when the server begins its shutdown: the
  // drain must let it finish and deliver the response.
  Request fork = make_request(50, "fork_scenario");
  fork.params["base"] = snapshot_id;
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(
      scenario::LinkCut{topology.links[0].a, topology.links[0].b}));
  fork.params["perturbations"] = perturbations;
  ASSERT_TRUE(client.send(fork).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // surely admitted

  std::thread stopper([&] { harness.server->stop(); });
  auto response = client.receive();
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().to_string();
  EXPECT_TRUE(response->ok()) << response->status().to_string();
  EXPECT_FALSE(response->result.find("hit")->as_bool());
}

TEST(ServiceLoopback, DirectExecuteMatchesWire) {
  // The broker path and the synchronous execute() path produce identical
  // answers (modulo timing), so tests and benches can trust execute().
  Harness harness("direct");
  emu::Topology topology = test_topology();
  Client client = harness.connect();
  const std::string snapshot_id =
      build_snapshot(client, topology, /*expect_store_hit=*/false);

  Request query = make_request(77, "query");
  query.params["snapshot"] = snapshot_id;
  query.params["kind"] = "pairwise";
  auto wire = client.call(query);
  ASSERT_TRUE(wire.ok() && wire->ok());

  Response direct = harness.service.execute(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.result.find("answer")->dump(), wire->result.find("answer")->dump());
}

TEST(ServiceLoopback, BuildFailuresKeepTheirStatusCodes) {
  emu::Topology topology = test_topology();
  Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  Request snapshot = make_request(2, "snapshot");

  VerificationService service;
  Response uploaded = service.execute(upload);
  ASSERT_TRUE(uploaded.ok()) << uploaded.status().to_string();
  snapshot.params["submission"] = uploaded.result.find("submission")->as_string();
  ASSERT_TRUE(service.execute(snapshot).ok());

  Request fork = make_request(3, "fork_scenario");
  fork.params["base"] = snapshot.params.find("submission")->as_string();
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(
      scenario::LinkCut{{"nope", "Ethernet1"}, topology.links[0].b}));
  fork.params["perturbations"] = perturbations;
  Response missing = service.execute(fork);
  EXPECT_EQ(missing.code, util::StatusCode::kNotFound) << missing.status().to_string();
  EXPECT_NE(missing.error.find("nope"), std::string::npos) << missing.error;

  ServiceOptions starved_options;
  starved_options.max_events = 1;
  VerificationService starved(starved_options);
  ASSERT_TRUE(starved.execute(upload).ok());
  Response budget = starved.execute(snapshot);
  EXPECT_EQ(budget.code, util::StatusCode::kInternal) << budget.status().to_string();
}

}  // namespace
}  // namespace mfv::service
