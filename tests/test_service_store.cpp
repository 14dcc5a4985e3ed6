// Snapshot store semantics: content addressing (identical uploads dedupe,
// different content separates), single-flight builds, byte-budget LRU
// eviction, and lease pinning across eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/snapshot_store.hpp"
#include "workload/generator.hpp"

namespace mfv::service {
namespace {

emu::Topology small_wan(int routers = 4, uint64_t seed = 1) {
  workload::WanOptions options;
  options.routers = routers;
  options.seed = seed;
  return workload::wan_topology(options);
}

/// Builder producing a minimal entry with a fixed retention charge.
SnapshotStore::Builder stub_builder(size_t bytes, std::atomic<int>* builds = nullptr) {
  return [bytes, builds]() -> util::Result<std::unique_ptr<StoredSnapshot>> {
    if (builds != nullptr) builds->fetch_add(1);
    auto entry = std::make_unique<StoredSnapshot>();
    entry->bytes = bytes;
    return entry;
  };
}

TEST(SnapshotKey, StringRoundTrip) {
  SnapshotKey key{0x0123456789abcdefull, 0xfedcba9876543210ull, 7};
  std::optional<SnapshotKey> parsed = SnapshotKey::parse(key.to_string());
  ASSERT_TRUE(parsed.has_value()) << key.to_string();
  EXPECT_EQ(*parsed, key);

  EXPECT_FALSE(SnapshotKey::parse("").has_value());
  EXPECT_FALSE(SnapshotKey::parse("t123-c456-d789").has_value());
  EXPECT_FALSE(SnapshotKey::parse(key.to_string() + "x").has_value());
  std::string bad = key.to_string();
  bad[5] = 'g';  // non-hex digit
  EXPECT_FALSE(SnapshotKey::parse(bad).has_value());
}

TEST(SnapshotKey, ContentAddressing) {
  emu::Topology topology = small_wan();
  SnapshotKey key = key_for_topology(topology);
  EXPECT_EQ(key.delta, 0u);

  // Identical content → identical key (what makes uploads dedupe).
  EXPECT_EQ(key_for_topology(small_wan()), key);

  // A config-text change moves the config hash only.
  emu::Topology reconfigured = topology;
  reconfigured.nodes[0].config_text += "\n! tweak\n";
  SnapshotKey reconfigured_key = key_for_topology(reconfigured);
  EXPECT_EQ(reconfigured_key.topology, key.topology);
  EXPECT_NE(reconfigured_key.configs, key.configs);

  // A structural change moves the topology hash.
  emu::Topology rewired = topology;
  rewired.links.pop_back();
  EXPECT_NE(key_for_topology(rewired).topology, key.topology);

  // A different seed generates different content entirely.
  EXPECT_NE(key_for_topology(small_wan(4, 2)), key);
}

TEST(SnapshotKey, DeltaHashChainsAndDistinguishes) {
  SnapshotKey base = key_for_topology(small_wan());
  std::vector<scenario::Perturbation> cut = {
      scenario::LinkCut{{"r0", "Ethernet1"}, {"r1", "Ethernet1"}}};
  std::vector<scenario::Perturbation> other_cut = {
      scenario::LinkCut{{"r1", "Ethernet2"}, {"r2", "Ethernet1"}}};

  SnapshotKey forked = key_for_fork(base, cut);
  EXPECT_EQ(forked.topology, base.topology);
  EXPECT_EQ(forked.configs, base.configs);
  EXPECT_NE(forked.delta, 0u);
  EXPECT_EQ(key_for_fork(base, cut), forked);          // deterministic
  EXPECT_NE(key_for_fork(base, other_cut), forked);    // content-sensitive

  // Chaining: fork-of-fork differs from fork, and from applying both
  // perturbations the other way round.
  SnapshotKey chained = key_for_fork(forked, other_cut);
  EXPECT_NE(chained.delta, forked.delta);
  EXPECT_NE(chained, key_for_fork(key_for_fork(base, other_cut), cut));

  // ConfigReplace deltas must hash the config *bytes* (the display string
  // omits them, which would collide distinct configs).
  std::vector<scenario::Perturbation> replace_a = {
      scenario::ConfigReplace{"r0", "hostname r0\n", config::Vendor::kCeos}};
  std::vector<scenario::Perturbation> replace_b = {
      scenario::ConfigReplace{"r0", "hostname r0-changed\n", config::Vendor::kCeos}};
  EXPECT_NE(key_for_fork(base, replace_a), key_for_fork(base, replace_b));
}

TEST(SnapshotStore, DedupesIdenticalKeys) {
  SnapshotStore store;
  SnapshotKey key{1, 2, 0};
  std::atomic<int> builds{0};

  auto first = store.get_or_build(kDefaultTenant, key, stub_builder(100, &builds));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);

  auto second = store.get_or_build(kDefaultTenant, key, stub_builder(100, &builds));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  EXPECT_EQ(second->entry.get(), first->entry.get());
  EXPECT_EQ(builds.load(), 1);

  StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SnapshotStore, FailedBuildIsNotCached) {
  SnapshotStore store;
  SnapshotKey key{1, 2, 0};
  auto failed = store.get_or_build(
      kDefaultTenant, key, []() -> util::Result<std::unique_ptr<StoredSnapshot>> {
        return util::internal_error("did not converge");
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(store.stats().entries, 0u);

  // The next attempt retries and can succeed.
  auto retried = store.get_or_build(kDefaultTenant, key, stub_builder(10));
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(retried->hit);
}

TEST(SnapshotStore, EvictsLruAtByteBudget) {
  StoreOptions options;
  options.byte_budget = 250;
  SnapshotStore store(options);

  SnapshotKey a{1, 0, 0}, b{2, 0, 0}, c{3, 0, 0};
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, a, stub_builder(100)).ok());
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, b, stub_builder(100)).ok());
  EXPECT_EQ(store.stats().entries, 2u);

  // Touch `a` so `b` is the LRU victim when `c` overflows the budget.
  EXPECT_NE(store.find(kDefaultTenant, a), nullptr);
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, c, stub_builder(100)).ok());

  StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 200u);
  EXPECT_NE(store.find(kDefaultTenant, a), nullptr);
  EXPECT_EQ(store.find(kDefaultTenant, b), nullptr) << "LRU entry must have been evicted";
  EXPECT_NE(store.find(kDefaultTenant, c), nullptr);
}

TEST(SnapshotStore, MostRecentEntrySurvivesEvenOverBudget) {
  StoreOptions options;
  options.byte_budget = 10;
  SnapshotStore store(options);
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, SnapshotKey{1, 0, 0}, stub_builder(1000)).ok());
  EXPECT_EQ(store.stats().entries, 1u);
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, SnapshotKey{2, 0, 0}, stub_builder(2000)).ok());
  StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(SnapshotStore, LeasePinsEntryAcrossEviction) {
  StoreOptions options;
  options.byte_budget = 150;
  SnapshotStore store(options);

  auto lease = store.get_or_build(kDefaultTenant, SnapshotKey{1, 0, 0}, stub_builder(100));
  ASSERT_TRUE(lease.ok());
  ASSERT_TRUE(store.get_or_build(kDefaultTenant, SnapshotKey{2, 0, 0}, stub_builder(100)).ok());

  // Entry 1 was evicted from the store...
  EXPECT_EQ(store.find(kDefaultTenant, SnapshotKey{1, 0, 0}), nullptr);
  // ...but the outstanding lease still owns a live object.
  EXPECT_EQ(lease->entry->bytes, 100u);
  EXPECT_EQ(lease->entry->key, (SnapshotKey{1, 0, 0}));
}

TEST(SnapshotStore, ChargeIsTheSnapshotJsonLength) {
  emu::Topology topology = small_wan(6);
  SnapshotStore store;
  SnapshotKey key = key_for_topology(topology);
  auto base = store.get_or_build(kDefaultTenant, key, [&] {
    return make_entry(scenario::VerifiedState::boot(topology, "base"));
  });
  ASSERT_TRUE(base.ok()) << base.status().message();

  const emu::LinkSpec& link = topology.links.front();
  std::vector<scenario::Perturbation> cut = {scenario::LinkCut{link.a, link.b}};
  auto fork = store.get_or_build(kDefaultTenant, key_for_fork(key, cut), [&] {
    return make_entry(scenario::VerifiedState::fork(*base->entry->emulation, cut, "cut"));
  });
  ASSERT_TRUE(fork.ok()) << fork.status().message();
  ASSERT_NE(fork->entry->graph->snapshot(), base->entry->graph->snapshot());

  for (const SnapshotStore::EntryPtr& entry : {base->entry, fork->entry})
    EXPECT_EQ(entry->bytes, entry->graph->snapshot().to_json().dump().size())
        << entry->graph->snapshot().name;
  EXPECT_EQ(store.stats().bytes, base->entry->bytes + fork->entry->bytes);
}

TEST(SnapshotStore, ConcurrentMissesBuildOnce) {
  SnapshotStore store;
  SnapshotKey key{9, 9, 0};
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;

  std::vector<std::thread> threads;
  std::vector<SnapshotStore::EntryPtr> entries(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto lease = store.get_or_build(
          kDefaultTenant, key,
          [&builds]() -> util::Result<std::unique_ptr<StoredSnapshot>> {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            auto entry = std::make_unique<StoredSnapshot>();
            entry->bytes = 1;
            return entry;
          });
      ASSERT_TRUE(lease.ok());
      entries[t] = lease->entry;
    });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1) << "single-flight: one builder for N concurrent misses";
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(entries[t].get(), entries[0].get());
}

}  // namespace
}  // namespace mfv::service
