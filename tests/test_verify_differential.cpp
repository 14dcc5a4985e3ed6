// Query-level tests: reachability, differential reachability, loop
// detection, and pairwise matrices over emulation-derived snapshots.
#include <gtest/gtest.h>

#include "gnmi/gnmi.hpp"
#include "verify/queries.hpp"
#include "workload/scenarios.hpp"

namespace mfv::verify {
namespace {

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

gnmi::Snapshot converge(const emu::Topology& topology, const std::string& name) {
  emu::Emulation emulation;
  EXPECT_TRUE(emulation.add_topology(topology).ok());
  emulation.start_all();
  EXPECT_TRUE(emulation.run_to_convergence());
  return gnmi::Snapshot::capture(emulation, name);
}

TEST(Reachability, ExhaustiveOverAllClasses) {
  ForwardingGraph graph(converge(workload::fig3_line_topology(), "fig3"));
  ReachabilityResult result = reachability(graph);
  EXPECT_EQ(result.rows.size(), result.flows);
  EXPECT_EQ(result.flows, result.classes * 3);  // 3 sources
  // Every loopback class is ACCEPTED from everywhere.
  for (const ReachabilityRow& row : result.rows) {
    for (std::string loopback : {"2.2.2.1", "2.2.2.2", "2.2.2.3"}) {
      if (row.destination.contains(addr(loopback))) {
        EXPECT_TRUE(row.dispositions.contains(Disposition::kAccepted))
            << row.source << " -> " << loopback;
      }
    }
  }
}

TEST(Reachability, ScopeNarrowsClasses) {
  ForwardingGraph graph(converge(workload::fig3_line_topology(), "fig3"));
  QueryOptions options;
  options.scope = net::Ipv4Prefix::parse("2.2.2.0/24");
  ReachabilityResult scoped = reachability(graph, options);
  ReachabilityResult full = reachability(graph);
  EXPECT_LT(scoped.classes, full.classes);
  EXPECT_GT(scoped.classes, 0u);
}

TEST(Reachability, SourceFilter) {
  ForwardingGraph graph(converge(workload::fig3_line_topology(), "fig3"));
  QueryOptions options;
  options.sources = {"R1"};
  ReachabilityResult result = reachability(graph, options);
  for (const ReachabilityRow& row : result.rows) EXPECT_EQ(row.source, "R1");
}

TEST(Differential, IdenticalSnapshotsShowNoDifference) {
  gnmi::Snapshot snapshot = converge(workload::fig3_line_topology(), "a");
  ForwardingGraph a(snapshot);
  ForwardingGraph b(snapshot);
  DifferentialResult diff = differential_reachability(a, b);
  EXPECT_TRUE(diff.empty());
  EXPECT_GT(diff.flows, 0u);
}

TEST(Differential, DeterministicReRunsShowNoDifference) {
  // Two independent emulation runs of the same topology must produce
  // behaviourally identical dataplanes (determinism property).
  ForwardingGraph a(converge(workload::fig2_topology(false), "run1"));
  ForwardingGraph b(converge(workload::fig2_topology(false), "run2"));
  EXPECT_TRUE(differential_reachability(a, b).empty());
}

TEST(Differential, RegressionsOnlyCountSuccessToFailure) {
  ForwardingGraph base(converge(workload::fig2_topology(false), "base"));
  ForwardingGraph bug(converge(workload::fig2_topology(true), "bug"));
  DifferentialResult diff = differential_reachability(base, bug);
  ASSERT_FALSE(diff.empty());
  auto regressions = diff.regressions();
  ASSERT_FALSE(regressions.empty());
  for (const DifferentialRow& row : regressions) {
    EXPECT_TRUE(row.base.all_success()) << row.to_string();
    EXPECT_TRUE(row.candidate.any_failure()) << row.to_string();
  }
  // And the reverse comparison flips base/candidate.
  DifferentialResult reversed = differential_reachability(bug, base);
  EXPECT_EQ(reversed.rows.size(), diff.rows.size());
  EXPECT_TRUE(reversed.regressions().empty());
}

TEST(Loops, CleanNetworkHasNone) {
  ForwardingGraph graph(converge(workload::fig2_topology(false), "fig2"));
  EXPECT_TRUE(detect_loops(graph).rows.empty());
}

TEST(Pairwise, LoopbackHelper) {
  gnmi::Snapshot snapshot = converge(workload::fig3_line_topology(), "fig3");
  EXPECT_EQ(device_loopback(snapshot, "R1"), addr("2.2.2.1"));
  EXPECT_FALSE(device_loopback(snapshot, "nope").has_value());
}

TEST(Pairwise, CountsMatchTopology) {
  ForwardingGraph graph(converge(workload::fig3_line_topology(), "fig3"));
  PairwiseResult result = pairwise_reachability(graph);
  EXPECT_EQ(result.total_pairs, 6u);  // 3 * 2
  EXPECT_TRUE(result.full_mesh());
}

}  // namespace
}  // namespace mfv::verify
