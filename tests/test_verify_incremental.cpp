// Incremental re-verification (DESIGN.md §11): the pairwise splicing
// engine must be byte-identical to cold verification for every
// perturbation kind, on the curated fig-2 network and on a 200-router
// WAN; it must actually splice (not silently fall back) when the delta is
// small, packet-filter deltas included; and it must fall back — still
// byte-identically — when told the dirty set is too large or when the node
// set changed.
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

TEST(VerifyIncremental, AclDeltaSplices) {
  // A packet filter that denies one loopback on the interface a neighbour
  // forwards that loopback through: the neighbour becomes a seed (its
  // hop's ingress verdict changed), the filter's cells re-trace, and the
  // answer still equals cold without falling back.
  emu::Topology topology = workload::fig2_topology(false);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot base_snapshot = gnmi::Snapshot::capture(*base, "base");
  ForwardingGraph base_graph(base_snapshot);

  // First (node, destination) whose route to the destination's loopback
  // leaves through an addressed hop into a transit device.
  gnmi::Snapshot candidate_snapshot = base_snapshot;
  bool filtered = false;
  for (ForwardingGraph::NodeId node = 0; node < base_graph.node_count() && !filtered; ++node) {
    for (const net::NodeName& destination : base_graph.nodes()) {
      std::optional<net::Ipv4Address> loopback = device_loopback(base_snapshot, destination);
      if (!loopback || base_graph.name(node) == destination) continue;
      const ForwardingGraph::Route* route = base_graph.route(node, *loopback);
      if (route == nullptr || route->hops.empty()) continue;
      const ForwardingGraph::Hop& hop = route->hops.front();
      if (!hop.addressed || hop.next == ForwardingGraph::kNoNode ||
          base_graph.name(hop.next) == destination)
        continue;
      aft::DeviceAft& next = candidate_snapshot.devices.at(base_graph.name(hop.next));
      for (auto& [name, interface] : next.interfaces) {
        if (!interface.address || interface.address->address != *hop.source->ip_address)
          continue;
        interface.acl_in = std::vector<aft::AclRule>{
            {false, net::Ipv4Prefix::host(*loopback)}, {true, net::Ipv4Prefix()}};
        filtered = true;
      }
      if (filtered) break;
    }
  }
  ASSERT_TRUE(filtered) << "no transit hop to filter";

  ForwardingGraph candidate(candidate_snapshot);
  QueryOptions options = test_options();
  std::unique_ptr<IncrementalBase> verify_base =
      capture_incremental_base(base_graph, options);
  QueryOptions incremental = options;
  incremental.incremental = verify_base.get();
  incremental.incremental_max_dirty_fraction = 1.0;
  IncrementalStats stats;
  incremental.incremental_stats = &stats;
  EXPECT_EQ(render(pairwise_reachability(candidate, options)),
            render(pairwise_reachability(candidate, incremental)));
  EXPECT_FALSE(stats.fell_back) << stats.fallback_reason;
  EXPECT_GT(stats.retraced, 0u);
  EXPECT_GT(stats.spliced, 0u);
}

TEST(VerifyIncremental, NodeSetDeltaFallsBack) {
  emu::Topology topology = workload::fig2_topology(false);
  std::unique_ptr<emu::Emulation> base = boot(topology);
  gnmi::Snapshot base_snapshot = gnmi::Snapshot::capture(*base, "base");
  gnmi::Snapshot candidate_snapshot = base_snapshot;
  ASSERT_FALSE(candidate_snapshot.devices.empty());
  candidate_snapshot.devices.erase(candidate_snapshot.devices.begin());

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
  EXPECT_EQ(stats.fallback_reason, "node-set-delta");
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
