// Incremental re-verification (DESIGN.md §11): the pairwise splicing
// engine must be byte-identical to cold verification for every
// perturbation kind, on the curated fig-2 network and on a 200-router
// WAN; it must actually splice (not silently fall back) when the delta is
// small; and it must fall back — still byte-identically — when told the
// dirty set is too large or when the delta is not expressible as a FIB
// diff.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "emu/emulation.hpp"
#include "gnmi/gnmi.hpp"
#include "scenario/scenario.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/incremental/incremental.hpp"
#include "verify/queries.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace mfv::verify {
namespace {

std::unique_ptr<emu::Emulation> boot(const emu::Topology& topology) {
  auto emulation = std::make_unique<emu::Emulation>();
  EXPECT_TRUE(emulation->add_topology(topology).ok());
  emulation->start_all();
  EXPECT_TRUE(emulation->run_to_convergence());
  return emulation;
}

QueryOptions test_options() {
  QueryOptions options;
  options.threads = 2;
  return options;
}

std::string render(const PairwiseResult& result) {
  std::string out;
  for (const PairwiseCell& cell : result.cells)
    out += cell.source + ">" + cell.destination + "=" +
           (cell.reachable ? "1" : "0") + "\n";
  out += std::to_string(result.reachable_pairs) + "/" +
         std::to_string(result.total_pairs);
  return out;
}

/// Boots `topology`, captures its IncrementalBase, forks + applies
/// `perturbations` + re-converges, then checks the incremental pairwise
/// engine against the cold one byte for byte. Stats land in *stats_out.
void expect_incremental_matches_cold(
    const emu::Topology& topology,
    const std::vector<scenario::Perturbation>& perturbations,
    double max_dirty_fraction = 1.0, IncrementalStats* stats_out = nullptr) {
  std::unique_ptr<emu::Emulation> base = boot(topology);
  ForwardingGraph base_graph(gnmi::Snapshot::capture(*base, "base"));
  QueryOptions options = test_options();
  std::unique_ptr<IncrementalBase> verify_base =
      capture_incremental_base(base_graph, options);
  EXPECT_EQ(render(verify_base->pairwise()),
            render(pairwise_reachability(base_graph, options)));

  std::unique_ptr<emu::Emulation> fork = base->fork();
  ASSERT_NE(fork, nullptr);
  for (const scenario::Perturbation& perturbation : perturbations)
    ASSERT_TRUE(scenario::ScenarioRunner::apply(*fork, perturbation))
        << scenario::perturbation_to_string(perturbation);
  ASSERT_TRUE(fork->run_to_convergence());
  ForwardingGraph candidate(gnmi::Snapshot::capture(*fork, "candidate"));

  QueryOptions incremental = options;
  incremental.incremental = verify_base.get();
  incremental.incremental_max_dirty_fraction = max_dirty_fraction;
  IncrementalStats stats;
  incremental.incremental_stats = &stats;

  PairwiseResult cold = pairwise_reachability(candidate, options);
  PairwiseResult spliced = pairwise_reachability(candidate, incremental);
  EXPECT_EQ(render(cold), render(spliced));

  if (stats_out != nullptr) *stats_out = stats;
}

emu::Topology ring_wan(int routers, uint64_t seed) {
  workload::WanOptions options;
  options.routers = routers;
  options.seed = seed;
  return workload::wan_topology(options);
}

// -- byte-identity per perturbation kind, fig-2 -------------------------------

TEST(VerifyIncremental, Fig2LinkCutMatchesCold) {
  emu::Topology topology = workload::fig2_topology(false);
  ASSERT_FALSE(topology.links.empty());
  IncrementalStats stats;
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[0].a, topology.links[0].b}},
      /*max_dirty_fraction=*/1.0, &stats);
  EXPECT_FALSE(stats.fell_back) << stats.fallback_reason;
}

TEST(VerifyIncremental, Fig2LinkRestoreMatchesCold) {
  emu::Topology topology = workload::fig2_topology(false);
  ASSERT_GE(topology.links.size(), 2u);
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[1].a, topology.links[1].b},
                 scenario::LinkRestore{topology.links[1].a, topology.links[1].b}});
}

TEST(VerifyIncremental, Fig2ConfigReplaceMatchesCold) {
  // E1's perturbation: swap in the configs that shut the eBGP session.
  emu::Topology base = workload::fig2_topology(false);
  emu::Topology bug = workload::fig2_topology(true);
  std::vector<scenario::Perturbation> perturbations;
  for (const emu::NodeSpec& node : bug.nodes) {
    const emu::NodeSpec* before = base.find_node(node.name);
    ASSERT_NE(before, nullptr);
    if (before->config_text != node.config_text)
      perturbations.push_back(
          scenario::ConfigReplace{node.name, node.config_text, node.vendor});
  }
  ASSERT_FALSE(perturbations.empty());
  expect_incremental_matches_cold(base, perturbations);
}

TEST(VerifyIncremental, RouteWithdrawMatchesCold) {
  workload::WanOptions options;
  options.routers = 6;
  options.seed = 7;
  options.border_count = 1;
  options.routes_per_peer = 30;
  emu::Topology topology = workload::wan_topology(options);
  ASSERT_FALSE(topology.external_peers.empty());
  expect_incremental_matches_cold(
      topology, {scenario::RouteWithdraw{topology.external_peers[0].name, {}}});
}

// -- byte-identity at scale: 200-router WAN -----------------------------------

TEST(VerifyIncremental, TwoHundredRouterLinkCutMatchesColdAndSplices) {
  emu::Topology topology = ring_wan(200, 11);
  ASSERT_FALSE(topology.links.empty());
  IncrementalStats stats;
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[5].a, topology.links[5].b}},
      /*max_dirty_fraction=*/1.0, &stats);
  EXPECT_FALSE(stats.fell_back) << stats.fallback_reason;
  // A single cut on 200 routers must leave the vast majority of the
  // partition untouched — splicing is the point of the subsystem.
  EXPECT_GT(stats.spliced, stats.retraced);
}

TEST(VerifyIncremental, TwoHundredRouterRestoreMatchesCold) {
  emu::Topology topology = ring_wan(200, 11);
  ASSERT_GE(topology.links.size(), 2u);
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[1].a, topology.links[1].b},
                 scenario::LinkRestore{topology.links[1].a, topology.links[1].b}});
}

// -- forced fallback ----------------------------------------------------------

TEST(VerifyIncremental, ZeroDirtyFractionForcesFallbackButStaysIdentical) {
  emu::Topology topology = workload::fig2_topology(false);
  IncrementalStats stats;
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[0].a, topology.links[0].b}},
      /*max_dirty_fraction=*/0.0, &stats);
  EXPECT_TRUE(stats.fell_back);
  EXPECT_EQ(stats.fallback_reason, "dirty-fraction");
}

TEST(VerifyIncremental, AclDeltaFallsBack) {
  // An ACL delta moves packet-filter boundaries, which dirty address
  // ranges cannot express: diff_fibs must refuse and the query must run
  // cold (with the reason recorded) rather than splice wrongly.
  emu::Topology topology = workload::fig2_topology(false);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot base_snapshot = gnmi::Snapshot::capture(*base, "base");
  gnmi::Snapshot candidate_snapshot = base_snapshot;
  ASSERT_FALSE(candidate_snapshot.devices.empty());
  aft::DeviceAft& device = candidate_snapshot.devices.begin()->second;
  ASSERT_FALSE(device.interfaces.empty());
  device.interfaces.begin()->second.acl_in =
      std::vector<aft::AclRule>{{false, *net::Ipv4Prefix::parse("10.9.0.0/16")}};

  FibDelta delta = diff_fibs(base_snapshot, candidate_snapshot);
  EXPECT_FALSE(delta.expressible);
  EXPECT_EQ(delta.fallback_reason, "acl-delta");

  ForwardingGraph base_graph(base_snapshot);
  ForwardingGraph candidate(candidate_snapshot);
  QueryOptions options = test_options();
  std::unique_ptr<IncrementalBase> verify_base =
      capture_incremental_base(base_graph, options);
  QueryOptions incremental = options;
  incremental.incremental = verify_base.get();
  IncrementalStats stats;
  incremental.incremental_stats = &stats;
  EXPECT_EQ(render(pairwise_reachability(candidate, options)),
            render(pairwise_reachability(candidate, incremental)));
  EXPECT_TRUE(stats.fell_back);
  EXPECT_EQ(stats.fallback_reason, "acl-delta");
}

TEST(VerifyIncremental, NodeSetDeltaFallsBack) {
  emu::Topology topology = workload::fig2_topology(false);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot base_snapshot = gnmi::Snapshot::capture(*base, "base");
  gnmi::Snapshot candidate_snapshot = base_snapshot;
  ASSERT_FALSE(candidate_snapshot.devices.empty());
  candidate_snapshot.devices.erase(candidate_snapshot.devices.begin());
  FibDelta delta = diff_fibs(base_snapshot, candidate_snapshot);
  EXPECT_FALSE(delta.expressible);
  EXPECT_EQ(delta.fallback_reason, "node-set-delta");
}

// -- diff_fibs unit behaviour -------------------------------------------------

TEST(FibDelta, IdenticalSnapshotsProduceEmptyDelta) {
  emu::Topology topology = workload::fig2_topology(false);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot snapshot = gnmi::Snapshot::capture(*base, "base");
  FibDelta delta = diff_fibs(snapshot, snapshot);
  EXPECT_TRUE(delta.expressible);
  EXPECT_TRUE(delta.dirty_ranges.empty());
  EXPECT_TRUE(delta.nodes.empty());
  EXPECT_EQ(delta.entries_added + delta.entries_removed + delta.entries_changed, 0u);
}

TEST(FibDelta, LinkCutDirtiesOnlyAffectedRanges) {
  emu::Topology topology = ring_wan(12, 3);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot base_snapshot = gnmi::Snapshot::capture(*base, "base");
  std::unique_ptr<emu::Emulation> fork = base->fork();
  ASSERT_NE(fork, nullptr);
  ASSERT_TRUE(fork->set_link_up(topology.links[0].a, topology.links[0].b, false));
  ASSERT_TRUE(fork->run_to_convergence());
  gnmi::Snapshot candidate_snapshot = gnmi::Snapshot::capture(*fork, "cut");

  FibDelta delta = diff_fibs(base_snapshot, candidate_snapshot);
  ASSERT_TRUE(delta.expressible) << delta.fallback_reason;
  EXPECT_FALSE(delta.dirty_ranges.empty()) << "a cut must change some FIBs";
  EXPECT_FALSE(delta.nodes.empty());
  // Ranges are merged, sorted, and disjoint.
  for (size_t i = 1; i < delta.dirty_ranges.size(); ++i)
    EXPECT_GT(delta.dirty_ranges[i].first, delta.dirty_ranges[i - 1].second);
  // dirty() agrees with the ranges at their boundaries.
  for (const auto& [lo, hi] : delta.dirty_ranges) {
    EXPECT_TRUE(delta.dirty(net::Ipv4Address(lo)));
    EXPECT_TRUE(delta.dirty(net::Ipv4Address(hi)));
  }
}

// -- dirty-set closure --------------------------------------------------------

TEST(VerifyIncremental, RingCutReroutesThroughUntouchedNodesAndStillSplices) {
  // Cutting one ring link reroutes traffic the long way around — through
  // routers whose own FIBs (mostly) did not change. The per-destination
  // closure must pick up those transit nodes, and the splice must still
  // engage for the untouched cells.
  emu::Topology topology = ring_wan(12, 3);
  IncrementalStats stats;
  expect_incremental_matches_cold(
      topology, {scenario::LinkCut{topology.links[0].a, topology.links[0].b}},
      /*max_dirty_fraction=*/1.0, &stats);
  EXPECT_FALSE(stats.fell_back) << stats.fallback_reason;
  EXPECT_GT(stats.spliced, 0u);
  EXPECT_GT(stats.dirty_destinations, 0u);
  // spliced + retraced account for every off-diagonal cell (every router
  // has a loopback).
  const size_t nodes = topology.nodes.size();
  EXPECT_EQ(stats.destinations, nodes);
  EXPECT_EQ(stats.spliced + stats.retraced, nodes * (nodes - 1));
  EXPECT_GT(stats.dirty_nodes, 0u);
}

// -- scenario-runner integration (threaded shared-base coverage) --------------

TEST(VerifyIncremental, ThreadedScenarioSweepMatchesNonIncremental) {
  emu::Topology topology = ring_wan(12, 3);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  std::vector<scenario::Scenario> scenarios = scenario::single_link_cuts(topology);

  scenario::ScenarioRunnerOptions options;
  options.threads = 4;
  scenario::ScenarioRunner runner(*base, options);
  EXPECT_EQ(render(runner.base_pairwise()),
            render(pairwise_reachability(ForwardingGraph(runner.base_snapshot()))));
  auto spliced = runner.run(scenarios);
  ASSERT_TRUE(spliced.ok());
  ASSERT_EQ(spliced->size(), scenarios.size());

  // Every scenario's spliced matrix equals a cold sweep of its snapshot.
  size_t total_spliced = 0;
  for (const scenario::ScenarioResult& result : *spliced) {
    ForwardingGraph graph(result.snapshot);
    EXPECT_EQ(render(pairwise_reachability(graph)), render(result.pairwise)) << result.name;
    EXPECT_FALSE(result.incremental.fell_back)
        << result.name << ": " << result.incremental.fallback_reason;
    total_spliced += result.incremental.spliced;
  }
  EXPECT_GT(total_spliced, 0u) << "the sweep never actually spliced";
}

}  // namespace
}  // namespace mfv::verify
