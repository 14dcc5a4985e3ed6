// Multi-tenant fleet behaviour: DRR fair-share admission (interleaving,
// weights, per-tenant queue caps scoped to the saturating tenant),
// tenant-namespaced store entries and byte quotas, consistent-hash ring
// placement with failover, and the daemon-lifetime fixes a fleet member
// needs — transient accept() errors survived, connection threads reaped,
// and a live socket path never stolen by a second daemon.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/broker.hpp"
#include "service/client.hpp"
#include "service/cluster_client.hpp"
#include "service/ring.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/snapshot_store.hpp"
#include "workload/generator.hpp"

namespace mfv::service {
namespace {

emu::Topology test_topology(uint64_t seed = 7) {
  workload::WanOptions options;
  options.routers = 4;
  options.seed = seed;
  return workload::wan_topology(options);
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/mfv_tenant_" + std::string(tag) + "_" + std::to_string(getpid()) +
         ".sock";
}

struct Harness {
  explicit Harness(const char* tag, ServiceOptions service_options = {},
                   ServerOptions server_options = {})
      : service(service_options) {
    server_options.unix_path = unique_socket_path(tag);
    server = std::make_unique<Server>(service, std::move(server_options));
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

Request make_request(uint64_t id, const std::string& verb,
                     const std::string& tenant = "") {
  Request request;
  request.id = id;
  request.verb = verb;
  request.tenant = tenant;
  request.params = util::Json::object();
  return request;
}

/// Holds broker workers hostage until released.
class Gate {
 public:
  void block() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++blocked_;
    arrived_.notify_all();
    released_.wait(lock, [this] { return open_; });
  }
  void wait_for_blocked(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [&] { return blocked_ >= count; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    released_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_, released_;
  int blocked_ = 0;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// Tenant names on the wire.

TEST(TenantProtocol, NamesValidatedAndDefaulted) {
  EXPECT_TRUE(valid_tenant_name("team-a"));
  EXPECT_TRUE(valid_tenant_name("A_1-b"));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("slash/es"));
  EXPECT_FALSE(valid_tenant_name(std::string(65, 'a')));

  Request request = make_request(1, "stats");
  EXPECT_EQ(request.tenant_or_default(), kDefaultTenant);

  // Wire round trip keeps the tenant; a bad name is refused at decode.
  request.tenant = "team-a";
  auto decoded = Request::from_json(request.to_json());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tenant, "team-a");

  util::Json bad = request.to_json();
  bad["tenant"] = "no spaces allowed";
  EXPECT_FALSE(Request::from_json(bad).ok());
}

// ---------------------------------------------------------------------------
// Fair-share admission (deficit round robin).

TEST(TenantBroker, DrrInterleavesTenantsWithinAClass) {
  BrokerOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  Gate gate;
  std::atomic<bool> plug_running{false};
  std::mutex order_mutex;
  std::vector<std::string> order;
  Broker broker(options, [&](const Request& request, const ExecContext&) {
    if (request.verb == "plug") {
      plug_running.store(true);
      gate.block();
    } else {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(request.tenant);
    }
    return Response::success(request.id, util::Json::object());
  });

  // The plug occupies the single worker so every later submit queues.
  auto plugged = broker.submit(make_request(1, "plug", "plug"));
  gate.wait_for_blocked(1);

  // Tenant a floods 10 requests; tenant b then asks for 3. Strict FIFO
  // would put all of b behind all of a.
  for (uint64_t i = 0; i < 10; ++i)
    (void)broker.submit(make_request(100 + i, "work", "a"));
  for (uint64_t i = 0; i < 3; ++i)
    (void)broker.submit(make_request(200 + i, "work", "b"));
  gate.open();
  plugged.get();
  broker.drain();

  ASSERT_EQ(order.size(), 13u);
  // Equal weights alternate while both have backlog: a b a b a b a a ...
  std::vector<std::string> expected = {"a", "b", "a", "b", "a", "b"};
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(order[i], expected[i]) << "position " << i;

  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.tenants.at("a").completed, 10u);
  EXPECT_EQ(stats.tenants.at("b").completed, 3u);
  EXPECT_EQ(stats.tenants.at("plug").completed, 1u);
}

TEST(TenantBroker, WeightsSkewTheRoundRobin) {
  BrokerOptions options;
  options.threads = 1;
  options.queue_capacity = 64;
  options.tenant_weights["a"] = 3;
  Gate gate;
  std::mutex order_mutex;
  std::vector<std::string> order;
  Broker broker(options, [&](const Request& request, const ExecContext&) {
    if (request.verb == "plug") gate.block();
    else {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(request.tenant);
    }
    return Response::success(request.id, util::Json::object());
  });

  auto plugged = broker.submit(make_request(1, "plug", "plug"));
  gate.wait_for_blocked(1);
  for (uint64_t i = 0; i < 9; ++i)
    (void)broker.submit(make_request(100 + i, "work", "a"));
  for (uint64_t i = 0; i < 3; ++i)
    (void)broker.submit(make_request(200 + i, "work", "b"));
  gate.open();
  plugged.get();
  broker.drain();

  // Weight 3 vs 1: a serves 3 jobs per b job.
  std::vector<std::string> expected = {"a", "a", "a", "b", "a", "a",
                                       "a", "b", "a", "a", "a", "b"};
  ASSERT_EQ(order.size(), expected.size());
  EXPECT_EQ(order, expected);
}

TEST(TenantBroker, QueueCapRejectsOnlyTheSaturatingTenant) {
  BrokerOptions options;
  options.threads = 1;
  options.queue_capacity = 100;
  options.tenant_queue_cap = 2;
  Gate gate;
  Broker broker(options, [&](const Request& request, const ExecContext&) {
    if (request.verb == "plug") gate.block();
    return Response::success(request.id, util::Json::object());
  });

  auto plugged = broker.submit(make_request(1, "plug", "plug"));
  gate.wait_for_blocked(1);

  // a saturates its cap: 2 queue, the rest bounce with RESOURCE_EXHAUSTED
  // naming the tenant.
  std::vector<std::future<Response>> a_futures;
  for (uint64_t i = 0; i < 5; ++i)
    a_futures.push_back(broker.submit(make_request(100 + i, "work", "a")));
  size_t a_rejected = 0;
  for (auto& future : a_futures) {
    // Rejections resolve immediately; accepted jobs resolve after open().
    if (future.wait_for(std::chrono::milliseconds(0)) == std::future_status::ready) {
      Response response = future.get();
      EXPECT_EQ(response.code, util::StatusCode::kResourceExhausted);
      EXPECT_NE(response.error.find("tenant 'a'"), std::string::npos) << response.error;
      ++a_rejected;
    }
  }
  EXPECT_EQ(a_rejected, 3u);

  // b still has the global headroom: everything admitted.
  std::vector<std::future<Response>> b_futures;
  for (uint64_t i = 0; i < 2; ++i)
    b_futures.push_back(broker.submit(make_request(200 + i, "work", "b")));
  for (auto& future : b_futures)
    EXPECT_NE(future.wait_for(std::chrono::milliseconds(0)), std::future_status::ready);

  gate.open();
  plugged.get();
  broker.drain();

  BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.tenants.at("a").rejected, 3u);
  EXPECT_EQ(stats.tenants.at("a").completed, 2u);
  EXPECT_EQ(stats.tenants.at("b").rejected, 0u);
  EXPECT_EQ(stats.tenants.at("b").completed, 2u);
}

// ---------------------------------------------------------------------------
// Tenant-namespaced snapshot store.

SnapshotStore::Builder stub_builder(size_t bytes) {
  return [bytes]() -> util::Result<std::unique_ptr<StoredSnapshot>> {
    auto entry = std::make_unique<StoredSnapshot>();
    entry->bytes = bytes;
    return entry;
  };
}

TEST(TenantStore, NamespacesSeparateIdenticalContent) {
  SnapshotStore store;
  SnapshotKey key{1, 2, 0};
  auto a = store.get_or_build("a", key, stub_builder(100));
  auto b = store.get_or_build("b", key, stub_builder(100));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(b->hit) << "content addressing must not leak across tenants";
  EXPECT_NE(a->entry.get(), b->entry.get());
  EXPECT_EQ(store.find("a", key), a->entry);
  EXPECT_EQ(store.find("b", key), b->entry);

  StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.tenants.at("a").entries, 1u);
  EXPECT_EQ(stats.tenants.at("b").entries, 1u);
}

TEST(TenantStore, QuotaEvictsOwnEntriesAndNeverNeighbours) {
  StoreOptions options;
  options.byte_budget = 10'000;
  options.tenant_byte_budget = 250;
  SnapshotStore store(options);

  ASSERT_TRUE(store.get_or_build("b", SnapshotKey{9, 0, 0}, stub_builder(100)).ok());
  ASSERT_TRUE(store.get_or_build("a", SnapshotKey{1, 0, 0}, stub_builder(100)).ok());
  ASSERT_TRUE(store.get_or_build("a", SnapshotKey{2, 0, 0}, stub_builder(100)).ok());
  // Third entry pushes tenant a over 250 bytes: its own LRU entry (key 1)
  // goes; tenant b is untouched despite being globally least recent.
  ASSERT_TRUE(store.get_or_build("a", SnapshotKey{3, 0, 0}, stub_builder(100)).ok());

  EXPECT_EQ(store.find("a", SnapshotKey{1, 0, 0}), nullptr);
  EXPECT_NE(store.find("a", SnapshotKey{2, 0, 0}), nullptr);
  EXPECT_NE(store.find("a", SnapshotKey{3, 0, 0}), nullptr);
  EXPECT_NE(store.find("b", SnapshotKey{9, 0, 0}), nullptr);

  StoreStats stats = store.stats();
  EXPECT_EQ(stats.tenants.at("a").bytes, 200u);
  EXPECT_EQ(stats.tenants.at("b").bytes, 100u);
}

TEST(TenantStore, OversizedEntryIsARejectionNotACache) {
  StoreOptions options;
  options.tenant_byte_budget = 50;
  SnapshotStore store(options);
  auto too_big = store.get_or_build("a", SnapshotKey{1, 0, 0}, stub_builder(100));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().tenants.at("a").quota_rejections, 1u);

  // The slot is clean: a smaller build for the same key succeeds.
  auto fits = store.get_or_build("a", SnapshotKey{1, 0, 0}, stub_builder(10));
  ASSERT_TRUE(fits.ok());
  EXPECT_FALSE(fits->hit);
}

TEST(TenantStore, HitDoesNotWaitForAnotherTenantsBuild) {
  SnapshotStore store;
  const SnapshotKey stored{2, 0, 0};
  ASSERT_TRUE(store.get_or_build("b", stored, stub_builder(100)).ok());

  // Tenant a's builder parks on `release` until b's lookups have returned.
  std::latch building(1);
  std::latch release(1);
  std::atomic<bool> a_returned{false};
  std::thread a([&] {
    auto lease = store.get_or_build("a", SnapshotKey{1, 0, 0}, [&] {
      building.count_down();
      release.wait();
      return stub_builder(100)();
    });
    EXPECT_TRUE(lease.ok());
    a_returned = true;
  });
  building.wait();

  // A regression hangs here; a is released and joined before any assertion
  // can return early.
  int b_builds = 0;
  auto hit = store.get_or_build("b", stored, [&] {
    ++b_builds;
    return stub_builder(100)();
  });
  SnapshotStore::EntryPtr found = store.find("b", stored);
  bool a_returned_before_release = a_returned.load();
  release.count_down();
  a.join();

  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->hit);
  EXPECT_EQ(b_builds, 0);
  EXPECT_EQ(found, hit->entry);
  EXPECT_FALSE(a_returned_before_release);
  EXPECT_TRUE(a_returned.load());
  EXPECT_NE(store.find("a", SnapshotKey{1, 0, 0}), nullptr);
  EXPECT_NE(store.find("b", stored), nullptr);
  EXPECT_EQ(store.stats().entries, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end latency isolation.

TEST(TenantIsolation, SaturatingTenantDoesNotStarveTheOther) {
  ServiceOptions options;
  options.broker.threads = 4;
  options.broker.queue_capacity = 4096;
  Harness harness("isolation", options);

  auto build_for = [&](Client& client, const std::string& tenant,
                       const emu::Topology& topology) {
    Request upload = make_request(1, "upload_configs", tenant);
    upload.params["topology"] = topology.to_json();
    auto uploaded = client.call(upload);
    EXPECT_TRUE(uploaded.ok() && uploaded->ok());
    const std::string submission = uploaded->result.find("submission")->as_string();
    Request snapshot = make_request(2, "snapshot", tenant);
    snapshot.params["submission"] = submission;
    EXPECT_TRUE(client.call(snapshot).ok());
    return submission;
  };
  Client client_a = harness.connect();
  Client client_b = harness.connect();
  // a's network is wide enough that each of its queries outlasts a wire
  // round trip many times over, so the counts below measure scheduling,
  // not socket latency; b's stays small.
  workload::WanOptions wide;
  wide.routers = 24;
  wide.seed = 7;
  const std::string snapshot_a = build_for(client_a, "a", workload::wan_topology(wide));
  const std::string snapshot_b = build_for(client_b, "b", test_topology());

  auto b_query = [&](uint64_t id) {
    Request request = make_request(id, "query", "b");
    request.params["snapshot"] = snapshot_b;
    request.params["kind"] = "reachability";
    return request;
  };
  auto a_completed = [&] { return harness.service.broker_stats().tenants["a"].completed; };

  // Unloaded warm-up: b's trace cache is warm before the contest, so its
  // queries then cost what a's memoized ones do.
  constexpr int kBQueries = 12;
  for (int i = 0; i < kBQueries; ++i) {
    auto response = client_b.call(b_query(100 + static_cast<uint64_t>(i)));
    ASSERT_TRUE(response.ok() && response->ok());
  }

  // Tenant a parks a pipelined backlog; b keeps querying during the drain.
  constexpr int kBacklog = 120;
  for (int i = 0; i < kBacklog; ++i) {
    Request request = make_request(1000 + static_cast<uint64_t>(i), "query", "a");
    request.params["snapshot"] = snapshot_a;
    request.params["kind"] = "reachability";
    request.params["full"] = true;
    ASSERT_TRUE(client_a.send(request).ok());
  }
  std::thread a_receiver([&] {
    for (int i = 0; i < kBacklog; ++i) ASSERT_TRUE(client_a.receive().ok());
  });

  // The isolation claims, on broker counts rather than wall time: b is
  // never rejected (its queue is nowhere near any cap), and each of b's
  // queries overtakes a's backlog. DRR hands b the next free worker, so
  // while one b query is in flight a completes only what its workers
  // finish meanwhile — a few per worker, even on a loaded host. A shared
  // FIFO queue would make the first b query wait out most of the
  // backlog.
  const uint64_t a_completions_bound = 8 * options.broker.threads;
  int b_rejected = 0;
  for (int i = 0; i < kBQueries; ++i) {
    const uint64_t a_before = a_completed();
    auto response = client_b.call(b_query(2000 + static_cast<uint64_t>(i)));
    const uint64_t a_during = a_completed() - a_before;
    ASSERT_TRUE(response.ok());
    if (!response->ok()) ++b_rejected;
    EXPECT_LT(a_during, a_completions_bound) << "tenant a completed " << a_during
                                             << " requests while b query " << i
                                             << " was in flight";
  }
  a_receiver.join();
  EXPECT_EQ(b_rejected, 0);

  BrokerStats broker_stats = harness.service.broker_stats();
  EXPECT_EQ(broker_stats.tenants.at("b").rejected, 0u);
  EXPECT_EQ(broker_stats.tenants.at("b").completed,
            static_cast<uint64_t>(2 * kBQueries + 2));
}

// ---------------------------------------------------------------------------
// Consistent-hash ring and cluster client.

TEST(HashRing, DeterministicOwnerAndPreference) {
  HashRing ring({"alpha", "beta", "gamma"});
  HashRing same({"alpha", "beta", "gamma"});
  for (const char* key : {"k1", "k2", "k3", "t0000", "anything"}) {
    EXPECT_EQ(ring.owner(key), same.owner(key)) << key;
    std::vector<size_t> preference = ring.preference(key, 3);
    ASSERT_EQ(preference.size(), 3u);
    EXPECT_EQ(preference[0], ring.owner(key));
    EXPECT_EQ(std::set<size_t>(preference.begin(), preference.end()).size(), 3u);
  }

  // Every instance owns a share of a modest keyspace.
  std::vector<size_t> hits(3, 0);
  for (int i = 0; i < 300; ++i) ++hits[ring.owner("key-" + std::to_string(i))];
  for (size_t count : hits) EXPECT_GT(count, 0u);

  HashRing solo({"only"});
  EXPECT_EQ(solo.owner("whatever"), 0u);
}

TEST(HashRing, PlacementKeyCoLocatesForks) {
  SnapshotKey base{0xaaa, 0xbbb, 0};
  SnapshotKey fork = base;
  fork.delta = 0x123;
  EXPECT_EQ(placement_key(base.to_string()), placement_key(fork.to_string()));
  SnapshotKey other{0xaaa, 0xccc, 0};
  EXPECT_NE(placement_key(base.to_string()), placement_key(other.to_string()));
  EXPECT_EQ(placement_key("not-a-key"), "not-a-key");
}

TEST(ClusterClient, RoutesABaseAndItsForksToOneOwner) {
  auto harness0 = std::make_unique<Harness>("ring0");
  auto harness1 = std::make_unique<Harness>("ring1");

  ClusterClientOptions options;
  for (Harness* harness : {harness0.get(), harness1.get()}) {
    ClusterEndpoint endpoint;
    endpoint.unix_path = harness->server->unix_path();
    options.endpoints.push_back(std::move(endpoint));
  }
  ClusterClient cluster(options);

  emu::Topology topology = test_topology();
  Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  auto uploaded = cluster.call(upload);
  ASSERT_TRUE(uploaded.ok() && uploaded->ok()) << uploaded.status().to_string();
  const std::string submission = uploaded->result.find("submission")->as_string();

  Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  ASSERT_TRUE(cluster.call(snapshot).ok());

  Request fork = make_request(3, "fork_scenario");
  fork.params["base"] = submission;
  util::Json perturbations = util::Json::array();
  perturbations.push_back(scenario::perturbation_to_json(
      scenario::LinkCut{topology.links[0].a, topology.links[0].b}));
  fork.params["perturbations"] = perturbations;
  auto forked = cluster.call(fork);
  ASSERT_TRUE(forked.ok() && forked->ok()) << forked.status().to_string();
  const std::string fork_id = forked->result.find("snapshot")->as_string();

  Request query = make_request(4, "query");
  query.params["snapshot"] = fork_id;
  ASSERT_TRUE(cluster.call(query).ok());

  // Everything about this network — upload, converge, fork, query — went
  // to the single ring owner of its content hash; the other instance
  // never saw a call.
  const size_t owner = cluster.owner_of(placement_key(submission));
  EXPECT_EQ(placement_key(fork_id), placement_key(submission));
  EXPECT_EQ(cluster.per_instance_calls()[owner], 4u);
  EXPECT_EQ(cluster.per_instance_calls()[1 - owner], 0u);

  std::array<Harness*, 2> harnesses = {harness0.get(), harness1.get()};
  EXPECT_GT(harnesses[owner]->server->connections_accepted(), 0u);
  EXPECT_EQ(harnesses[1 - owner]->server->connections_accepted(), 0u);
}

TEST(ClusterClient, FailsOverToRingSuccessorWhenOwnerDies) {
  auto harness0 = std::make_unique<Harness>("fail0");
  auto harness1 = std::make_unique<Harness>("fail1");

  ClusterClientOptions options;
  for (Harness* harness : {harness0.get(), harness1.get()}) {
    ClusterEndpoint endpoint;
    endpoint.unix_path = harness->server->unix_path();
    options.endpoints.push_back(std::move(endpoint));
  }
  ClusterClient cluster(options);

  emu::Topology topology = test_topology();
  Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  auto uploaded = cluster.call(upload);
  ASSERT_TRUE(uploaded.ok() && uploaded->ok());
  const std::string submission = uploaded->result.find("submission")->as_string();

  // Kill the owner. Content-addressed uploads are idempotent, so the
  // client re-runs the sequence; the ring successor now serves it.
  const size_t owner = cluster.owner_of(placement_key(submission));
  std::array<std::unique_ptr<Harness>, 2> harnesses = {std::move(harness0),
                                                       std::move(harness1)};
  harnesses[owner]->server->stop();

  auto reuploaded = cluster.call(upload);
  ASSERT_TRUE(reuploaded.ok() && reuploaded->ok())
      << reuploaded.status().to_string();
  EXPECT_EQ(reuploaded->result.find("submission")->as_string(), submission);

  Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  auto snapped = cluster.call(snapshot);
  ASSERT_TRUE(snapped.ok() && snapped->ok()) << snapped.status().to_string();

  Request query = make_request(3, "query");
  query.params["snapshot"] = submission;
  auto answer = cluster.call(query);
  ASSERT_TRUE(answer.ok() && answer->ok()) << answer.status().to_string();
  EXPECT_GT(cluster.per_instance_calls()[1 - owner], 0u);
}

// ---------------------------------------------------------------------------
// Daemon lifetime: reaping, accept retries, socket-path safety.

TEST(ServerLifetime, ConnectionChurnDoesNotAccumulateThreads) {
  Harness harness("churn");
  constexpr int kChurn = 200;
  for (int i = 0; i < kChurn; ++i) {
    Client client = harness.connect();
    auto response = client.call(make_request(1, "stats"));
    ASSERT_TRUE(response.ok() && response->ok());
  }  // client closes here

  // One more accept gives the reaper a pass over the churned remains.
  Client last = harness.connect();
  ASSERT_TRUE(last.call(make_request(2, "stats")).ok());

  EXPECT_EQ(harness.server->connections_accepted(),
            static_cast<size_t>(kChurn) + 1);
  // Readers exit asynchronously after their client closes; the bound
  // allows stragglers but catches the old always-grows behaviour.
  EXPECT_LE(harness.server->live_connection_threads(), 32u);
  EXPECT_LE(harness.server->tracked_connections(), 32u);
}

TEST(ServerLifetime, TransientAcceptErrorsAreRetriedNotFatal) {
  ServiceOptions service_options;
  ServerOptions server_options;
  std::atomic<int> failures{3};
  server_options.accept_fn = [&failures](int listen_fd) {
    if (failures.fetch_sub(1) > 0) {
      errno = EMFILE;  // fd exhaustion, deterministically
      return -1;
    }
    return ::accept(listen_fd, nullptr, nullptr);
  };
  Harness harness("emfile", service_options, std::move(server_options));

  // The daemon survived the EMFILE burst: the next client is served.
  Client client = harness.connect();
  auto response = client.call(make_request(1, "stats"));
  ASSERT_TRUE(response.ok() && response->ok());
  EXPECT_EQ(harness.server->accept_retries(), 3u);
  EXPECT_EQ(harness.service.metrics().counter("server_accept_retries").value(), 3u);
}

// stop() resets the listen descriptor while the accept thread may be
// blocked in accept() on it; the TSan leg runs this cycle to keep that
// hand-off race-free.
TEST(ServerLifetime, StartAcceptStopCyclesAreClean) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    VerificationService service;
    ServerOptions options;
    options.unix_path = unique_socket_path("cycle");
    Server server(service, options);
    ASSERT_TRUE(server.start().ok()) << "cycle " << cycle;
    Client client;
    ASSERT_TRUE(client.connect_unix(server.unix_path()).ok());
    auto response = client.call(make_request(1, "stats"));
    ASSERT_TRUE(response.ok() && response->ok()) << "cycle " << cycle;
    server.stop();
    EXPECT_EQ(server.connections_accepted(), 1u);
  }
}

TEST(ServerLifetime, SecondDaemonOnALiveSocketFailsAlreadyExists) {
  Harness first("livepath");

  VerificationService second_service;
  ServerOptions second_options;
  second_options.unix_path = first.server->unix_path();
  Server second(second_service, second_options);
  util::Status status = second.start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kAlreadyExists) << status.to_string();

  // The incumbent is untouched: still bound, still serving.
  Client client = first.connect();
  EXPECT_TRUE(client.call(make_request(1, "stats")).ok());
}

TEST(ServerLifetime, StaleSocketFileIsReclaimed) {
  const std::string path = unique_socket_path("stale");
  // A bound-then-closed socket leaves the file behind with no listener —
  // exactly what a crashed daemon leaves.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);

  VerificationService service;
  ServerOptions options;
  options.unix_path = path;
  Server server(service, options);
  ASSERT_TRUE(server.start().ok()) << "stale socket must be reclaimed";
  Client client;
  EXPECT_TRUE(client.connect_unix(path).ok());
  EXPECT_TRUE(client.call(make_request(1, "stats")).ok());
  server.stop();
}

}  // namespace
}  // namespace mfv::service
