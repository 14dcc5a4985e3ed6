// Parallel, memoized verification engine: results must be byte-identical
// for every thread count (determinism-by-default) and match independent
// per-flow trace_flow walks, the TraceCache must stay correct when
// base/candidate snapshots differ, flows that trace_flow's path and hop
// caps would cut short must get their exhaustive answer, and the
// packet-class partition must tile the scoped space exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>

#include "fuzz/oracles.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"
#include "workload/generator.hpp"

namespace mfv::verify {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

// ---------------------------------------------------------------------------
// Result serialization (byte-identical means the rendered tables match)

std::string render(const ReachabilityResult& result) {
  std::ostringstream out;
  out << "classes=" << result.classes << " flows=" << result.flows << "\n";
  for (const ReachabilityRow& row : result.rows)
    out << row.source << " " << row.destination.to_string() << " "
        << row.dispositions.to_string() << "\n";
  return out.str();
}

std::string render(const DifferentialResult& result) {
  std::ostringstream out;
  out << "classes=" << result.classes << " flows=" << result.flows << "\n";
  for (const DifferentialRow& row : result.rows) out << row.to_string() << "\n";
  return out.str();
}

std::string render(const PairwiseResult& result) {
  std::ostringstream out;
  out << result.reachable_pairs << "/" << result.total_pairs << "\n";
  for (const PairwiseCell& cell : result.cells)
    out << cell.source << ">" << cell.destination << "=" << cell.reachable << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// ThreadPool / parallel_for_shards

TEST(ParallelForShards, EveryShardRunsExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> counts(257);
    for (auto& count : counts) count = 0;
    util::parallel_for_shards(threads, counts.size(),
                              [&](size_t shard) { counts[shard]++; });
    for (size_t i = 0; i < counts.size(); ++i)
      EXPECT_EQ(counts[i], 1) << "shard " << i << " threads " << threads;
  }
}

TEST(ParallelForShards, DeterministicShardIndexedResults) {
  std::vector<uint64_t> serial(1000);
  util::parallel_for_shards(1, serial.size(),
                            [&](size_t shard) { serial[shard] = shard * shard; });
  for (unsigned threads : {2u, 8u}) {
    std::vector<uint64_t> parallel(1000);
    util::parallel_for_shards(threads, parallel.size(),
                              [&](size_t shard) { parallel[shard] = shard * shard; });
    EXPECT_EQ(parallel, serial);
  }
}

TEST(ParallelForShards, PropagatesExceptions) {
  EXPECT_THROW(util::parallel_for_shards(
                   4, 64,
                   [](size_t shard) {
                     if (shard == 33) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossSweeps) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> slots(100, -1);
    for (size_t shard = 0; shard < slots.size(); ++shard)
      pool.submit([&slots, shard, round] { slots[shard] = round; });
    pool.wait_idle();
    for (int value : slots) EXPECT_EQ(value, round);
  }
}

// ---------------------------------------------------------------------------
// (a) Parallel results byte-identical to serial on a 30-node workload

class WorkloadFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    emu::Emulation emulation;
    workload::WanOptions options;
    options.routers = 30;
    options.seed = 7;
    ASSERT_TRUE(emulation.add_topology(workload::wan_topology(options)).ok());
    emulation.start_all();
    ASSERT_TRUE(emulation.run_to_convergence());
    graph_ = new ForwardingGraph(gnmi::Snapshot::capture(emulation, "wan"));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static ForwardingGraph* graph_;
};

ForwardingGraph* WorkloadFixture::graph_ = nullptr;

TEST_F(WorkloadFixture, ReachabilityIdenticalAcrossThreadCounts) {
  QueryOptions serial;
  serial.threads = 1;
  std::string expected = render(reachability(*graph_, serial));
  EXPECT_NE(expected.find("ACCEPTED"), std::string::npos);
  for (unsigned threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.threads = threads;
    EXPECT_EQ(render(reachability(*graph_, options)), expected) << "threads=" << threads;
  }
}

// The thread-count comparisons above pit the engine against itself; this
// one checks a real converged WAN against independent per-flow walks (the
// fuzz `engines` oracle, run on the fixture's snapshot as a synthetic case).
TEST_F(WorkloadFixture, EngineMatchesPerFlowWalker) {
  fuzz::FuzzCase wan;
  wan.mode = fuzz::Mode::kSynthetic;
  wan.snapshot = graph_->snapshot();
  std::optional<fuzz::Verdict> failure = fuzz::first_failure(wan, fuzz::kOracleEngines);
  EXPECT_FALSE(failure.has_value()) << failure->detail;
}

TEST_F(WorkloadFixture, ScopedReachabilityIdenticalAcrossThreadCounts) {
  QueryOptions serial;
  serial.threads = 1;
  serial.scope = pfx("10.0.0.0/24");  // loopback space
  serial.sources = {"wan0", "wan7", "wan29"};
  std::string expected = render(reachability(*graph_, serial));
  for (unsigned threads : {2u, 8u}) {
    QueryOptions options = serial;
    options.threads = threads;
    EXPECT_EQ(render(reachability(*graph_, options)), expected) << threads;
  }
}

TEST_F(WorkloadFixture, DetectLoopsIdenticalAcrossThreadCounts) {
  QueryOptions serial;
  serial.threads = 1;
  std::string expected = render(detect_loops(*graph_, serial));
  for (unsigned threads : {2u, 8u}) {
    QueryOptions options;
    options.threads = threads;
    EXPECT_EQ(render(detect_loops(*graph_, options)), expected) << threads;
  }
}

TEST_F(WorkloadFixture, PairwiseIdenticalAcrossThreadCounts) {
  QueryOptions serial;
  serial.threads = 1;
  std::string expected = render(pairwise_reachability(*graph_, serial));
  for (unsigned threads : {2u, 8u}) {
    QueryOptions options;
    options.threads = threads;
    EXPECT_EQ(render(pairwise_reachability(*graph_, options)), expected) << threads;
  }
}

TEST_F(WorkloadFixture, SelfDifferentialIsEmptyAndIdentical) {
  QueryOptions serial;
  serial.threads = 1;
  DifferentialResult expected = differential_reachability(*graph_, *graph_, serial);
  EXPECT_TRUE(expected.empty());
  for (unsigned threads : {2u, 8u}) {
    QueryOptions options;
    options.threads = threads;
    EXPECT_EQ(render(differential_reachability(*graph_, *graph_, options)),
              render(expected))
        << threads;
  }
}

// ---------------------------------------------------------------------------
// (b) TraceCache correctness when base and candidate snapshots differ

/// A - B - C chain: A forwards 203.0.113.0/24 via B to C, which owns
/// 203.0.113.1. The candidate variant null-routes the prefix on B.
gnmi::Snapshot chain_snapshot(bool null_route_on_b) {
  gnmi::Snapshot snapshot;

  aft::DeviceAft a;
  a.node = "A";
  a.interfaces["eth0"] = test::interface_state("eth0", "10.0.0.0/31");
  {
    aft::NextHop to_b;
    to_b.ip_address = addr("10.0.0.1");
    to_b.interface = "eth0";
    a.aft.set_ipv4_entry(
        {pfx("203.0.113.0/24"), a.aft.add_group(a.aft.add_next_hop(to_b)), "BGP", 0});
  }
  snapshot.devices["A"] = std::move(a);

  aft::DeviceAft b;
  b.node = "B";
  b.interfaces["eth0"] = test::interface_state("eth0", "10.0.0.1/31");
  b.interfaces["eth1"] = test::interface_state("eth1", "10.0.1.0/31");
  {
    aft::NextHop hop;
    if (null_route_on_b) {
      hop.drop = true;
    } else {
      hop.ip_address = addr("10.0.1.1");
      hop.interface = "eth1";
    }
    b.aft.set_ipv4_entry(
        {pfx("203.0.113.0/24"), b.aft.add_group(b.aft.add_next_hop(hop)), "BGP", 0});
  }
  snapshot.devices["B"] = std::move(b);

  aft::DeviceAft c;
  c.node = "C";
  c.interfaces["eth0"] = test::interface_state("eth0", "10.0.1.1/31");
  c.interfaces["stub"] = test::interface_state("stub", "203.0.113.1/24");
  {
    aft::NextHop attached;
    attached.interface = "stub";
    c.aft.set_ipv4_entry({pfx("203.0.113.0/24"),
                          c.aft.add_group(c.aft.add_next_hop(attached)), "CONNECTED", 0});
  }
  snapshot.devices["C"] = std::move(c);
  return snapshot;
}

TEST(TraceCacheDifferential, BaseAndCandidateTablesStayIndependent) {
  ForwardingGraph base(chain_snapshot(false));
  ForwardingGraph candidate(chain_snapshot(true));

  TraceCache base_cache(base);
  TraceCache candidate_cache(candidate);
  net::Ipv4Address destination = addr("203.0.113.1");
  EXPECT_TRUE(base_cache.dispositions("A", destination).contains(Disposition::kAccepted));
  EXPECT_TRUE(
      candidate_cache.dispositions("A", destination).contains(Disposition::kNullRouted));
  EXPECT_FALSE(
      candidate_cache.dispositions("A", destination).contains(Disposition::kAccepted));
  EXPECT_EQ(base_cache.classes_cached(), 1u);

  // Every thread count finds the same differing rows, and the regression
  // is attributed to every upstream source.
  QueryOptions serial;
  serial.threads = 1;
  DifferentialResult expected = differential_reachability(base, candidate, serial);
  EXPECT_FALSE(expected.empty());
  ASSERT_FALSE(expected.regressions().empty());
  for (unsigned threads : {2u, 8u}) {
    QueryOptions options;
    options.threads = threads;
    DifferentialResult result = differential_reachability(base, candidate, options);
    EXPECT_EQ(render(result), render(expected)) << threads;
    EXPECT_EQ(result.regressions().size(), expected.regressions().size());
  }
}

TEST(TraceCache, MemoizedDispositionsMatchPerFlowWalks) {
  ForwardingGraph graph(chain_snapshot(false));
  TraceCache cache(graph);
  for (const char* destination :
       {"203.0.113.1", "203.0.113.200", "10.0.0.1", "10.0.1.1", "8.8.8.8"}) {
    for (const char* source : {"A", "B", "C", "Z"}) {
      EXPECT_EQ(cache.dispositions(source, addr(destination)).to_string(),
                trace_flow(graph, source, addr(destination)).dispositions.to_string())
          << source << " -> " << destination;
    }
  }
}

TEST(TraceCache, LoopDispositionsMatchLegacyWalker) {
  // A and B forward the prefix at each other: every source loops.
  gnmi::Snapshot snapshot = chain_snapshot(false);
  aft::DeviceAft& b = snapshot.devices["B"];
  b.aft = aft::Aft();
  aft::NextHop back;
  back.ip_address = addr("10.0.0.0");
  back.interface = "eth0";
  b.aft.set_ipv4_entry(
      {pfx("203.0.113.0/24"), b.aft.add_group(b.aft.add_next_hop(back)), "BGP", 0});

  ForwardingGraph graph(snapshot);
  TraceCache cache(graph);
  net::Ipv4Address destination = addr("203.0.113.7");
  for (const char* source : {"A", "B"}) {
    EXPECT_EQ(cache.dispositions(source, destination).to_string(),
              trace_flow(graph, source, destination).dispositions.to_string())
        << source;
    EXPECT_TRUE(cache.dispositions(source, destination).contains(Disposition::kLoop));
  }
}

// Regression (engines fuzz oracle): a label-switched cycle spanning
// several label states, where the cycle is entered from nodes that are
// themselves part of it. The memo must not serve a continuation recorded
// from a root that saw the re-entered node fresh — trace_flow's visited
// set is node-based and calls the revisit a loop.
TEST(TraceCache, NestedLabelCycleMatchesLegacyWalker) {
  gnmi::Snapshot snapshot;
  auto make = [&](const std::string& node, const std::string& address) {
    aft::DeviceAft device;
    device.node = node;
    device.interfaces["eth0"] = test::interface_state("eth0", address);
    return device;
  };
  auto labeled_hop = [&](const std::string& ip, aft::LabelOp op, uint32_t label) {
    aft::NextHop hop;
    if (!ip.empty()) hop.ip_address = addr(ip);
    hop.interface = "eth0";
    hop.label_op = op;
    hop.label = label;
    return hop;
  };

  // r1 pushes L2 toward r2; r2 swaps L2->L3 toward r4 but pushes L1
  // toward r3 for fresh IP traffic; r3 swaps L1->L2 back to r2; r4 pops
  // L3 and owns the destination.
  aft::DeviceAft r1 = make("r1", "10.0.0.1/24");
  r1.aft.set_ipv4_entry({pfx("99.0.0.0/16"),
                         r1.aft.add_group(r1.aft.add_next_hop(
                             labeled_hop("10.0.0.2", aft::LabelOp::kPush, 2))),
                         "STATIC", 0});
  snapshot.devices["r1"] = std::move(r1);

  aft::DeviceAft r2 = make("r2", "10.0.0.2/24");
  r2.aft.set_label_entry(
      {2, r2.aft.add_group(r2.aft.add_next_hop(
              labeled_hop("10.0.0.4", aft::LabelOp::kSwap, 3)))});
  r2.aft.set_ipv4_entry({pfx("99.0.0.0/16"),
                         r2.aft.add_group(r2.aft.add_next_hop(
                             labeled_hop("10.0.0.3", aft::LabelOp::kPush, 1))),
                         "STATIC", 0});
  snapshot.devices["r2"] = std::move(r2);

  aft::DeviceAft r3 = make("r3", "10.0.0.3/24");
  r3.aft.set_label_entry(
      {1, r3.aft.add_group(r3.aft.add_next_hop(
              labeled_hop("10.0.0.2", aft::LabelOp::kSwap, 2)))});
  snapshot.devices["r3"] = std::move(r3);

  aft::DeviceAft r4 = make("r4", "10.0.0.4/24");
  r4.interfaces["lo0"] = test::interface_state("lo0", "99.0.0.1/32");
  r4.aft.set_label_entry(
      {3, r4.aft.add_group(r4.aft.add_next_hop(
              labeled_hop("", aft::LabelOp::kPop, 0)))});
  snapshot.devices["r4"] = std::move(r4);

  ForwardingGraph graph(snapshot);
  TraceCache cache(graph);
  net::Ipv4Address destination = addr("99.0.0.1");
  for (const char* source : {"r1", "r2", "r3", "r4"}) {
    EXPECT_EQ(cache.dispositions(source, destination).to_string(),
              trace_flow(graph, source, destination).dispositions.to_string())
        << source;
  }
}

// Regression (engines fuzz oracle, minimized from synthetic seed 42): d1 pushes label 1 to d2, d2 swaps label 1 straight back to
// d1, and d1 has no binding for it. Solving root d0 first memoizes
// (d2, label 1) = NO_ROUTE — honest there, because d1 was off-path and
// its missing binding terminates the walk. From root d1 that entry is a
// lie: node-based loop detection must flag the return to d1 as a loop.
// The memo footprint check exists for exactly this case.
TEST(TraceCache, MemoFootprintRespectsNodeBasedLoops) {
  gnmi::Snapshot snapshot;
  auto make = [&](const std::string& node, const std::string& address) {
    aft::DeviceAft device;
    device.node = node;
    device.interfaces["eth0"] = test::interface_state("eth0", address);
    return device;
  };
  auto labeled_hop = [&](const std::string& ip, aft::LabelOp op, uint32_t label) {
    aft::NextHop hop;
    if (!ip.empty()) hop.ip_address = addr(ip);
    hop.interface = "eth0";
    hop.label_op = op;
    hop.label = label;
    return hop;
  };

  aft::DeviceAft d0 = make("d0", "10.0.0.1/24");
  d0.aft.set_ipv4_entry({pfx("0.0.0.0/0"),
                         d0.aft.add_group(d0.aft.add_next_hop(
                             labeled_hop("10.0.0.3", aft::LabelOp::kPush, 1))),
                         "STATIC", 0});
  snapshot.devices["d0"] = std::move(d0);

  aft::DeviceAft d1 = make("d1", "10.0.0.2/24");
  d1.aft.set_ipv4_entry({pfx("99.0.0.0/16"),
                         d1.aft.add_group(d1.aft.add_next_hop(
                             labeled_hop("10.0.0.3", aft::LabelOp::kPush, 1))),
                         "STATIC", 0});
  snapshot.devices["d1"] = std::move(d1);

  aft::DeviceAft d2 = make("d2", "10.0.0.3/24");
  d2.aft.set_label_entry(
      {1, d2.aft.add_group(d2.aft.add_next_hop(
              labeled_hop("10.0.0.2", aft::LabelOp::kSwap, 1)))});
  snapshot.devices["d2"] = std::move(d2);

  ForwardingGraph graph(snapshot);
  TraceCache cache(graph);
  net::Ipv4Address destination = addr("99.0.0.1");
  for (const char* source : {"d0", "d1", "d2"}) {
    EXPECT_EQ(cache.dispositions(source, destination).to_string(),
              trace_flow(graph, source, destination).dispositions.to_string())
        << source;
  }
  EXPECT_TRUE(cache.dispositions("d1", destination).contains(Disposition::kLoop));
}

// ---------------------------------------------------------------------------
// (c) Exhaustive answers where trace_flow's caps would cut the walk short

/// Hand-built static-route snapshot: every router owns 10.0.<n>.1/32 on
/// `lo` and carries exactly one 203.0.113.0/24 entry.
class StaticNet {
 public:
  /// `node` load-shares the prefix across the `next` routers' loopbacks.
  void forward(const std::string& node, const std::vector<std::string>& next) {
    aft::DeviceAft& device = router(node);
    std::vector<std::pair<uint64_t, uint64_t>> group;
    for (const std::string& hop_node : next) {
      aft::NextHop hop;
      hop.ip_address = loopback(hop_node);
      group.push_back({device.aft.add_next_hop(hop), 1});
    }
    device.aft.set_ipv4_entry(
        {pfx("203.0.113.0/24"), device.aft.add_group(group), "STATIC", 0});
  }

  /// `node` null-routes the prefix.
  void drop(const std::string& node) {
    aft::DeviceAft& device = router(node);
    aft::NextHop hop;
    hop.drop = true;
    device.aft.set_ipv4_entry({pfx("203.0.113.0/24"),
                               device.aft.add_group(device.aft.add_next_hop(hop)),
                               "STATIC", 0});
  }

  /// `node` owns 203.0.113.1 on an attached /24.
  void deliver(const std::string& node) {
    aft::DeviceAft& device = router(node);
    aft::InterfaceState& stub = device.interfaces["stub"];
    stub.name = "stub";
    stub.address = net::InterfaceAddress::parse("203.0.113.1/24");
    aft::NextHop attached;
    attached.interface = "stub";
    device.aft.set_ipv4_entry({pfx("203.0.113.0/24"),
                               device.aft.add_group(device.aft.add_next_hop(attached)),
                               "CONNECTED", 0});
  }

  gnmi::Snapshot snapshot;

 private:
  net::Ipv4Address loopback(const std::string& node) {
    auto [it, added] = ids_.emplace(node, ids_.size());
    return addr("10.0." + std::to_string(it->second) + ".1");
  }

  aft::DeviceAft& router(const std::string& node) {
    aft::DeviceAft& device = snapshot.devices[node];
    device.node = node;
    aft::InterfaceState& lo = device.interfaces["lo"];
    lo.name = "lo";
    lo.address = net::InterfaceAddress::parse(loopback(node).to_string() + "/32");
    return device;
  }

  std::map<std::string, size_t> ids_;
};

QueryOptions toward_destination(const std::string& source, unsigned threads) {
  QueryOptions options;
  options.sources = {source};
  options.scope = pfx("203.0.113.1/32");
  options.threads = threads;
  return options;
}

// A: N0..N7 each load-share to U_i and L_i, both of which forward to
// N_{i+1}; N8 = T owns the destination. N0's group has a third hop, to X,
// which drops. 256 equal-cost paths: a walk capped at 128 paths never
// reaches X, the exhaustive engine must.
TEST(ExhaustiveSweep, EcmpFanBeyondThePathCapReportsTheDrop) {
  StaticNet net;
  auto layer = [](int i) { return i == 8 ? std::string("T") : "N" + std::to_string(i); };
  for (int i = 0; i < 8; ++i) {
    std::string upper = "U" + std::to_string(i);
    std::string lower = "L" + std::to_string(i);
    std::vector<std::string> next = {upper, lower};
    if (i == 0) next.push_back("X");
    net.forward(layer(i), next);
    net.forward(upper, {layer(i + 1)});
    net.forward(lower, {layer(i + 1)});
  }
  net.deliver("T");
  net.drop("X");
  ForwardingGraph graph(net.snapshot);
  ASSERT_TRUE(trace_flow(graph, "N0", addr("203.0.113.1")).truncated);

  for (unsigned threads : {1u, 2u, 8u}) {
    ReachabilityResult result = reachability(graph, toward_destination("N0", threads));
    ASSERT_EQ(result.rows.size(), 1u) << threads;
    EXPECT_EQ(result.rows[0].dispositions.to_string(), "ACCEPTED|NULL_ROUTED") << threads;
  }
}

// B: a 70-router loop-free chain. A walk capped at 64 hops calls it a
// loop; the exhaustive engine must deliver, and find no loop rows.
TEST(ExhaustiveSweep, ChainLongerThanTheHopCapIsNotALoop) {
  StaticNet net;
  for (int i = 0; i < 69; ++i)
    net.forward("C" + std::to_string(i), {"C" + std::to_string(i + 1)});
  net.deliver("C69");
  ForwardingGraph graph(net.snapshot);
  ASSERT_TRUE(trace_flow(graph, "C0", addr("203.0.113.1"))
                  .dispositions.contains(Disposition::kLoop));

  for (unsigned threads : {1u, 2u, 8u}) {
    ReachabilityResult result = reachability(graph, toward_destination("C0", threads));
    ASSERT_EQ(result.rows.size(), 1u) << threads;
    EXPECT_EQ(result.rows[0].dispositions.to_string(), "ACCEPTED") << threads;
    QueryOptions loops;
    loops.sources = {"C0"};
    loops.threads = threads;
    EXPECT_TRUE(detect_loops(graph, loops).rows.empty()) << threads;
  }
}

// ---------------------------------------------------------------------------
// (d) Packet-class property: classes partition the scoped space exactly

class ScopedPacketClassProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScopedPacketClassProperty, TilesTheScopeExactly) {
  util::Pcg32 rng(GetParam());
  std::vector<net::Ipv4Prefix> prefixes;
  for (int i = 0; i < 200; ++i)
    prefixes.push_back(net::Ipv4Prefix(net::Ipv4Address(rng.next()),
                                       static_cast<uint8_t>(rng.next_below(33))));
  net::Ipv4Prefix scope(net::Ipv4Address(rng.next()),
                        static_cast<uint8_t>(rng.next_below(25)));

  auto classes = compute_packet_classes(prefixes, scope);
  ASSERT_FALSE(classes.empty());

  // Exact tiling: first class starts at the scope's first address, classes
  // are contiguous and ordered, last class ends at the scope's last.
  uint64_t expected_next = scope.first_address().bits();
  for (const PacketClass& cls : classes) {
    EXPECT_EQ(cls.first.bits(), expected_next);
    EXPECT_GE(cls.last.bits(), cls.first.bits());
    expected_next = static_cast<uint64_t>(cls.last.bits()) + 1;
  }
  EXPECT_EQ(expected_next, static_cast<uint64_t>(scope.last_address().bits()) + 1);

  // No class straddles a prefix boundary (forwarding is constant inside).
  for (const net::Ipv4Prefix& prefix : prefixes) {
    for (const PacketClass& cls : classes) {
      EXPECT_EQ(prefix.contains(cls.first), prefix.contains(cls.last))
          << cls.to_string() << " straddles " << prefix.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedPacketClassProperty,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace mfv::verify
