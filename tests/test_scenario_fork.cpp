// Fork-equivalence: a converged emulation forked and then perturbed must
// produce a gNMI snapshot byte-identical to a cold-booted emulation that
// receives the same perturbation after converging. This is the soundness
// property of the scenario engine — forking is a pure optimization, never
// a different semantics. Exercised for all four perturbation kinds and
// under message jitter (which forces the fork to copy the RNG mid-stream).
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "helpers.hpp"
#include "scenario/scenario.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace mfv {
namespace {

std::string snapshot_json(const emu::Emulation& emulation) {
  return gnmi::Snapshot::capture(emulation, "snap").to_json().dump();
}

/// Boots `topology` twice with identical options. The cold run applies
/// `perturbations` in place after converging; the other run forks first
/// and perturbs the fork. Both must land on byte-identical dataplanes.
void expect_fork_equivalence(const emu::Topology& topology,
                             const std::vector<scenario::Perturbation>& perturbations,
                             emu::EmulationOptions options = {}) {
  emu::Emulation cold(options);
  ASSERT_TRUE(cold.add_topology(topology).ok());
  cold.start_all();
  ASSERT_TRUE(cold.run_to_convergence());

  emu::Emulation base(options);
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());

  // Determinism of the boot itself (same seed, same event ordering).
  ASSERT_EQ(snapshot_json(cold), snapshot_json(base));

  std::unique_ptr<emu::Emulation> fork = base.fork();
  ASSERT_NE(fork, nullptr) << "converged base must be forkable";

  for (const scenario::Perturbation& perturbation : perturbations) {
    ASSERT_TRUE(scenario::ScenarioRunner::apply(cold, perturbation))
        << scenario::perturbation_to_string(perturbation);
    ASSERT_TRUE(scenario::ScenarioRunner::apply(*fork, perturbation))
        << scenario::perturbation_to_string(perturbation);
  }
  ASSERT_TRUE(cold.run_to_convergence());
  ASSERT_TRUE(fork->run_to_convergence());

  EXPECT_EQ(snapshot_json(cold), snapshot_json(*fork))
      << "forked run diverged from cold run";
  // The fork must not have disturbed the base it was copied from.
  EXPECT_EQ(snapshot_json(base), snapshot_json(cold)) << "perturbation leaked into base"
      << " (only when the perturbation list is empty should these match)";
}

/// Like expect_fork_equivalence but without the base-unchanged assertion
/// (used when the perturbation intentionally changes the dataplane).
void expect_fork_matches_cold(const emu::Topology& topology,
                              const std::vector<scenario::Perturbation>& perturbations,
                              emu::EmulationOptions options = {}) {
  emu::Emulation cold(options);
  ASSERT_TRUE(cold.add_topology(topology).ok());
  cold.start_all();
  ASSERT_TRUE(cold.run_to_convergence());

  emu::Emulation base(options);
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());
  std::string base_before = snapshot_json(base);

  std::unique_ptr<emu::Emulation> fork = base.fork();
  ASSERT_NE(fork, nullptr) << "converged base must be forkable";

  for (const scenario::Perturbation& perturbation : perturbations) {
    ASSERT_TRUE(scenario::ScenarioRunner::apply(cold, perturbation))
        << scenario::perturbation_to_string(perturbation);
    ASSERT_TRUE(scenario::ScenarioRunner::apply(*fork, perturbation))
        << scenario::perturbation_to_string(perturbation);
  }
  ASSERT_TRUE(cold.run_to_convergence());
  ASSERT_TRUE(fork->run_to_convergence());

  EXPECT_EQ(snapshot_json(cold), snapshot_json(*fork))
      << "forked run diverged from cold run";
  EXPECT_EQ(snapshot_json(base), base_before) << "perturbing the fork mutated the base";
}

emu::Topology small_wan(bool line = false) {
  workload::WanOptions options;
  options.routers = 6;
  options.seed = 11;
  options.extra_chords = line ? 0 : 2;
  options.line = line;
  return workload::wan_topology(options);
}

// -- the four perturbation kinds --------------------------------------------

TEST(ScenarioFork, LinkCutMatchesColdRun) {
  emu::Topology topology = small_wan();
  const emu::LinkSpec& victim = topology.links[1];
  expect_fork_matches_cold(topology, {scenario::LinkCut{victim.a, victim.b}});
}

TEST(ScenarioFork, LinkRestoreMatchesColdRun) {
  // Base converges, a link is cut and re-converges; the perturbation under
  // test restores it. Both runs do cut+restore after their first
  // convergence so the restore is exercised from an identical state.
  emu::Topology topology = small_wan();
  const emu::LinkSpec& victim = topology.links[2];
  expect_fork_matches_cold(topology, {scenario::LinkCut{victim.a, victim.b},
                                      scenario::LinkRestore{victim.a, victim.b}});
}

TEST(ScenarioFork, ConfigReplaceMatchesColdRun) {
  // E1's perturbation: swap in the configs that shut the R2-R3 eBGP
  // session down.
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
  ASSERT_FALSE(perturbations.empty()) << "fig2 bug flag changed no configs";
  expect_fork_matches_cold(base, perturbations);
}

TEST(ScenarioFork, RouteWithdrawMatchesColdRun) {
  workload::WanOptions options;
  options.routers = 5;
  options.seed = 3;
  options.extra_chords = 1;
  options.border_count = 1;
  options.routes_per_peer = 20;
  options.ibgp_mesh = true;
  emu::Topology topology = workload::wan_topology(options);
  ASSERT_EQ(topology.external_peers.size(), 1u);

  // Partial withdraw of half the feed...
  std::vector<net::Ipv4Prefix> half;
  for (size_t i = 0; i < topology.external_peers[0].routes.size(); i += 2)
    half.push_back(topology.external_peers[0].routes[i].prefix);
  expect_fork_matches_cold(topology,
                           {scenario::RouteWithdraw{"peer0", half}});
  // ...and a full withdraw (empty prefix list = everything).
  expect_fork_matches_cold(topology, {scenario::RouteWithdraw{"peer0", {}}});
}

// -- jitter: the fork must copy the RNG mid-stream ---------------------------

TEST(ScenarioFork, LinkCutUnderJitterMatchesColdRun) {
  emu::Topology topology = small_wan();
  emu::EmulationOptions options;
  options.seed = 42;
  options.message_jitter_micros = 50;
  const emu::LinkSpec& victim = topology.links[0];
  expect_fork_matches_cold(topology, {scenario::LinkCut{victim.a, victim.b}}, options);
}

TEST(ScenarioFork, ConfigReplaceUnderJitterMatchesColdRun) {
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
  emu::EmulationOptions options;
  options.seed = 7;
  options.message_jitter_micros = 100;
  expect_fork_matches_cold(base, perturbations, options);
}

// -- fork preconditions ------------------------------------------------------

TEST(ScenarioFork, ForkRefusesNonIdleKernel) {
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(small_wan()).ok());
  emulation.start_all();
  // Events are pending (boot callbacks scheduled, nothing run yet).
  EXPECT_EQ(emulation.fork(), nullptr);
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_NE(emulation.fork(), nullptr);
}

TEST(ScenarioFork, NoopForkIsByteIdentical) {
  emu::Topology topology = small_wan();
  expect_fork_equivalence(topology, {});
}

// -- in-flight frames die with the link (satellite fix) ----------------------

TEST(ScenarioFork, LinkDownDropsInFlightFrames) {
  emu::Emulation emulation;
  auto r1 = test::base_router("r1", 1);
  test::wire(r1, 1, "10.1.12.0/31");
  auto r2 = test::base_router("r2", 2);
  test::wire(r2, 1, "10.1.12.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  test::link(emulation, "r1", 1, "r2", 1);  // default 1000us latency
  emulation.start_all();

  // Run halfway into the first hello exchange: frames are on the wire.
  emulation.kernel().run_for(util::Duration::micros(500));
  uint64_t dropped_before = emulation.messages_dropped();
  ASSERT_TRUE(emulation.set_link_up({"r1", "Ethernet1"}, {"r2", "Ethernet1"}, false));
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_GT(emulation.messages_dropped(), dropped_before)
      << "frames in flight when the link went down must be dropped";
}

TEST(ScenarioFork, FlapFasterThanLatencyStillDropsFrames) {
  emu::Emulation emulation;
  auto r1 = test::base_router("r1", 1);
  test::wire(r1, 1, "10.1.12.0/31");
  auto r2 = test::base_router("r2", 2);
  test::wire(r2, 1, "10.1.12.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  test::link(emulation, "r1", 1, "r2", 1);
  emulation.start_all();

  emulation.kernel().run_for(util::Duration::micros(500));
  uint64_t dropped_before = emulation.messages_dropped();
  // Down and instantly back up: the wire's contents must still be lost —
  // the down/up epoch, not the link state at delivery time, decides.
  ASSERT_TRUE(emulation.set_link_up({"r1", "Ethernet1"}, {"r2", "Ethernet1"}, false));
  ASSERT_TRUE(emulation.set_link_up({"r1", "Ethernet1"}, {"r2", "Ethernet1"}, true));
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_GT(emulation.messages_dropped(), dropped_before)
      << "a flap faster than the link latency must still kill in-flight frames";
  // The adjacency must nevertheless re-form over the restored link.
  emu::Emulation* self = &emulation;
  ASSERT_NE(self->router("r1"), nullptr);
}

// -- ScenarioRunner ----------------------------------------------------------

TEST(ScenarioFork, RunnerSweepsEveryCutOnALine) {
  emu::Topology topology = small_wan(/*line=*/true);
  emu::Emulation base;
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());

  scenario::ScenarioRunner runner(base);
  std::vector<scenario::Scenario> scenarios = scenario::single_link_cuts(topology);
  ASSERT_EQ(scenarios.size(), topology.links.size());

  auto results = runner.run(scenarios);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), scenarios.size());
  for (const scenario::ScenarioResult& result : *results) {
    EXPECT_TRUE(result.applied) << result.name;
    EXPECT_TRUE(result.converged) << result.name;
    // Every link of a line is a bridge: each cut must break pairs.
    EXPECT_GT(result.broken_pairs, 0u) << result.name;
    EXPECT_GT(result.events, 0u) << result.name;
  }
}

TEST(ScenarioFork, RunnerThreadedMatchesSerial) {
  emu::Topology topology = small_wan();
  emu::Emulation base;
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());

  std::vector<scenario::Scenario> scenarios = scenario::single_link_cuts(topology);

  scenario::ScenarioRunnerOptions serial_options;
  serial_options.threads = 1;
  scenario::ScenarioRunner serial(base, serial_options);
  auto serial_results = serial.run(scenarios);
  ASSERT_TRUE(serial_results.ok());

  scenario::ScenarioRunnerOptions threaded_options;
  threaded_options.threads = 4;
  scenario::ScenarioRunner threaded(base, threaded_options);
  auto threaded_results = threaded.run(scenarios);
  ASSERT_TRUE(threaded_results.ok());

  ASSERT_EQ(serial_results->size(), threaded_results->size());
  for (size_t i = 0; i < serial_results->size(); ++i) {
    EXPECT_EQ((*serial_results)[i].name, (*threaded_results)[i].name);
    EXPECT_EQ((*serial_results)[i].broken_pairs, (*threaded_results)[i].broken_pairs);
    EXPECT_EQ((*serial_results)[i].snapshot.to_json().dump(),
              (*threaded_results)[i].snapshot.to_json().dump())
        << (*serial_results)[i].name;
  }
}

/// Base-reachable cells a fork breaks, counted pair by pair.
size_t brute_force_broken_pairs(const verify::PairwiseResult& base,
                                const verify::PairwiseResult& fork) {
  size_t broken = 0;
  for (const verify::PairwiseCell& cell : fork.cells) {
    if (cell.reachable) continue;
    for (const verify::PairwiseCell& before : base.cells)
      if (before.reachable && before.source == cell.source &&
          before.destination == cell.destination)
        ++broken;
  }
  return broken;
}

TEST(ScenarioFork, BrokenPairsMatchBruteForceCount) {
  workload::WanOptions ring;
  ring.routers = 6;
  ring.seed = 11;
  ring.extra_chords = 0;
  // Every cut of the line and every double cut of the plain ring
  // partitions the network.
  struct Sweep {
    emu::Topology topology;
    size_t k;
  };
  for (const Sweep& sweep : {Sweep{small_wan(/*line=*/true), 1},
                             Sweep{workload::wan_topology(ring), 2}}) {
    emu::Emulation base;
    ASSERT_TRUE(base.add_topology(sweep.topology).ok());
    base.start_all();
    ASSERT_TRUE(base.run_to_convergence());

    scenario::ScenarioRunnerOptions options;
    options.incremental = true;
    scenario::ScenarioRunner runner(base, options);
    ASSERT_TRUE(runner.base_pairwise().full_mesh());
    auto results = runner.run(scenario::k_link_cuts(sweep.topology, sweep.k));
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty());
    for (const scenario::ScenarioResult& result : *results) {
      EXPECT_GT(result.broken_pairs, 0u) << result.name;
      EXPECT_EQ(result.broken_pairs,
                brute_force_broken_pairs(runner.base_pairwise(), result.pairwise))
          << result.name;
    }
  }
}

TEST(ScenarioFork, RunnerRejectsNonIdleBase) {
  emu::Emulation base;
  ASSERT_TRUE(base.add_topology(small_wan()).ok());
  base.start_all();  // pending events, never run
  scenario::ScenarioRunner runner(base);
  auto results = runner.run(scenario::single_link_cuts(small_wan()));
  EXPECT_FALSE(results.ok());
}

/// Everything a runner result reports, for comparing two sweeps.
std::string describe(const scenario::ScenarioResult& result) {
  std::string text = result.name + (result.applied ? " applied" : "") +
                     (result.converged ? " converged" : "") +
                     " t=" + std::to_string(result.reconvergence.count_micros()) +
                     " events=" + std::to_string(result.events) +
                     " broken=" + std::to_string(result.broken_pairs) +
                     " spliced=" + std::to_string(result.incremental.spliced) +
                     " retraced=" + std::to_string(result.incremental.retraced) + " cells:";
  for (const verify::PairwiseCell& cell : result.pairwise.cells)
    text += " " + cell.source + ">" + cell.destination + (cell.reachable ? "+" : "-");
  return text + " " + result.snapshot.to_json().dump();
}

TEST(ScenarioFork, RunnerFailedScenarioCarriesNoAnswer) {
  emu::Topology topology = small_wan();
  emu::Emulation base;
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());
  scenario::ScenarioRunner runner(base);

  std::vector<scenario::Scenario> scenarios = scenario::single_link_cuts(topology);
  ASSERT_GE(scenarios.size(), 2u);
  auto clean = runner.run(scenarios);
  ASSERT_TRUE(clean.ok());

  // A real cut followed by a bogus one: the half-perturbed network must
  // not be verified, and the other scenarios must not notice.
  const size_t bogus = 1;
  std::vector<scenario::Scenario> with_bogus = scenarios;
  with_bogus.insert(
      with_bogus.begin() + bogus,
      scenario::Scenario{"bogus",
                         {scenario::LinkCut{topology.links[0].a, topology.links[0].b},
                          scenario::LinkCut{{"nope", "Ethernet1"}, {"r1", "Ethernet1"}}}});
  auto results = runner.run(with_bogus);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), scenarios.size() + 1);

  const scenario::ScenarioResult& failed = (*results)[bogus];
  EXPECT_FALSE(failed.applied);
  EXPECT_FALSE(failed.converged);
  EXPECT_TRUE(failed.pairwise.cells.empty());
  EXPECT_EQ(failed.pairwise.total_pairs, 0u);
  EXPECT_EQ(failed.broken_pairs, 0u);
  for (size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(describe((*results)[i < bogus ? i : i + 1]), describe((*clean)[i]));
}

TEST(ScenarioFork, RunnerOutOfBudgetScenariosApplyButDoNotConverge) {
  emu::Topology topology = small_wan();
  emu::Emulation base;
  ASSERT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  ASSERT_TRUE(base.run_to_convergence());

  scenario::ScenarioRunnerOptions options;
  options.max_events = 1;
  scenario::ScenarioRunner runner(base, options);
  auto results = runner.run(scenario::single_link_cuts(topology));
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  for (const scenario::ScenarioResult& result : *results) {
    EXPECT_TRUE(result.applied) << result.name;
    EXPECT_FALSE(result.converged) << result.name;
    EXPECT_TRUE(result.pairwise.cells.empty()) << result.name;
    EXPECT_EQ(result.broken_pairs, 0u) << result.name;
  }
}

TEST(ScenarioFork, KLinkCutsEnumeratesCombinations) {
  emu::Topology topology = small_wan(/*line=*/true);  // 5 links on 6 routers
  ASSERT_EQ(topology.links.size(), 5u);
  EXPECT_EQ(scenario::k_link_cuts(topology, 1).size(), 5u);
  EXPECT_EQ(scenario::k_link_cuts(topology, 2).size(), 10u);  // C(5,2)
  EXPECT_EQ(scenario::k_link_cuts(topology, 5).size(), 1u);
  EXPECT_TRUE(scenario::k_link_cuts(topology, 6).empty());
  for (const scenario::Scenario& scenario : scenario::k_link_cuts(topology, 2))
    EXPECT_EQ(scenario.perturbations.size(), 2u) << scenario.name;
}

// -- Session::fork_snapshot (the E1 fast path) -------------------------------

TEST(ScenarioFork, SessionForkSnapshotReproducesE1) {
  api::Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig2_topology(false), "base").ok());

  emu::Topology bug = workload::fig2_topology(true);
  emu::Topology baseline = workload::fig2_topology(false);
  std::vector<scenario::Perturbation> perturbations;
  for (const emu::NodeSpec& node : bug.nodes) {
    const emu::NodeSpec* before = baseline.find_node(node.name);
    if (before != nullptr && before->config_text != node.config_text)
      perturbations.push_back(
          scenario::ConfigReplace{node.name, node.config_text, node.vendor});
  }
  ASSERT_TRUE(session.fork_snapshot("base", "bug", perturbations).ok());

  // The forked snapshot answers E1 exactly like the cold-booted one: AS3
  // loses AS2/AS1 reachability.
  auto diff = session.differential_reachability("base", "bug");
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->empty());
  auto loopback2 = net::Ipv4Address::parse(workload::fig2_loopback(2));
  bool found = false;
  for (const auto& row : diff->regressions())
    if (row.source == "R3" && row.destination.contains(*loopback2)) found = true;
  EXPECT_TRUE(found) << "R3 -> AS2 loopback regression missing from forked snapshot";

  // Incremental reconvergence is recorded and the fork stays forkable.
  const api::SnapshotInfo* info = session.info("bug");
  ASSERT_NE(info, nullptr);
  EXPECT_GT(info->convergence_time.count_micros(), 0);
  EXPECT_TRUE(session.fork_snapshot("bug", "bug2", {}).ok());
}

TEST(ScenarioFork, SessionForkSnapshotValidatesInputs) {
  api::Session session;
  ASSERT_TRUE(session.init_snapshot(workload::fig3_line_topology(), "base").ok());
  EXPECT_EQ(session.fork_snapshot("missing", "x", {}).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(session.fork_snapshot("base", "base", {}).code(),
            util::StatusCode::kAlreadyExists);
  util::Status missing = session.fork_snapshot(
      "base", "x", {scenario::LinkCut{{"nope", "Ethernet1"}, {"R1", "Ethernet1"}}});
  EXPECT_EQ(missing.code(), util::StatusCode::kNotFound);
  EXPECT_NE(missing.message().find("nope"), std::string::npos) << missing.to_string();
  EXPECT_FALSE(session.has_snapshot("x"));
  // Model-based snapshots have no live emulation to fork.
  ASSERT_TRUE(session
                  .init_snapshot(workload::fig3_line_topology(), "model",
                                 api::Backend::kModelBased)
                  .ok());
  EXPECT_EQ(session.fork_snapshot("model", "y", {}).code(),
            util::StatusCode::kInvalidArgument);

  // A base with pending events cannot be forked. A session's snapshots are
  // read-only and always quiescent, so this is checked on VerifiedState::fork,
  // the builder every session fork goes through.
  emu::Emulation pending;
  ASSERT_TRUE(pending.add_topology(workload::fig3_line_topology()).ok());
  pending.start_all();
  ASSERT_TRUE(pending.run_to_convergence());
  const emu::LinkSpec link = workload::fig3_line_topology().links.front();
  ASSERT_TRUE(pending.set_link_up(link.a, link.b, false));
  EXPECT_EQ(scenario::VerifiedState::fork(pending, {}, "z").status().code(),
            util::StatusCode::kFailedPrecondition);

  api::SessionOptions starved;
  starved.max_events = 1;
  api::Session budget(starved);
  EXPECT_EQ(budget.init_snapshot(workload::fig3_line_topology(), "base").code(),
            util::StatusCode::kInternal);
  EXPECT_FALSE(budget.has_snapshot("base"));
}

}  // namespace
}  // namespace mfv
