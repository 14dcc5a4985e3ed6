// wan200-k2-sweep: the ROADMAP headline what-if sweep. Every double-link
// cut over the first 14 links of a 200-router IS-IS WAN (91 scenarios),
// forked from a base booted during set-up and verified incrementally.
#include <cstdio>
#include <map>
#include <set>

#include "gnmi/gnmi.hpp"
#include "layers.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace mfvbench {

using namespace mfv;
using Scope = Tracer::Scope;

namespace {

constexpr unsigned kThreads = 4;
/// Set-ups timed in each of the two batches (one takes about 0.7 s).
constexpr int kSetupsPerBatch = 4;
/// Generator seed of the sweep WAN, fixed so every run sweeps the same
/// network; the run seed orders the scenarios.
constexpr uint64_t kWanSeed = 11;

struct SweepSetup {
  emu::Topology topology;
  std::unique_ptr<emu::Emulation> base;
  std::unique_ptr<scenario::ScenarioRunner> runner;
  std::vector<scenario::Scenario> scenarios;
};

verify::QueryOptions sweep_verify() {
  verify::QueryOptions options = scenario::ScenarioRunnerOptions{}.verify;
  options.scope = net::Ipv4Prefix::parse("10.1.0.0/16");
  return options;
}

std::unique_ptr<SweepSetup> setup_sweep(RunContext& context) {
  auto setup = std::make_unique<SweepSetup>();
  workload::WanOptions wan;
  wan.routers = context.args.smoke ? 20 : 200;
  wan.seed = kWanSeed;
  setup->topology = workload::wan_topology(wan);

  setup->base = std::make_unique<emu::Emulation>();
  {
    Scope span(context.tracer, "config.parse", 0);
    util::Status added = setup->base->add_topology(setup->topology);
    if (!added.ok()) {
      context.report.fail("sweep topology rejected: " + added.to_string());
      return nullptr;
    }
  }
  {
    Scope span(context.tracer, "emu.boot", 0);
    setup->base->start_all();
    if (!setup->base->run_to_convergence()) {
      context.report.fail("sweep base did not converge");
      return nullptr;
    }
  }
  context.sample("emu.boot_events", static_cast<double>(setup->base->kernel().executed()));

  scenario::ScenarioRunnerOptions runner_options;
  runner_options.threads = kThreads;
  runner_options.keep_snapshots = false;
  runner_options.incremental = true;
  runner_options.verify = sweep_verify();
  {
    Scope span(context.tracer, "scenario.init", 0);
    setup->runner = std::make_unique<scenario::ScenarioRunner>(*setup->base, runner_options);
  }

  emu::Topology cut_links = setup->topology;
  const size_t links = context.args.smoke ? 6 : 14;
  if (cut_links.links.size() > links) cut_links.links.resize(links);
  setup->scenarios = scenario::k_link_cuts(cut_links, 2);
  return setup;
}

bool same_pairwise(const verify::PairwiseResult& a, const verify::PairwiseResult& b) {
  if (a.reachable_pairs != b.reachable_pairs || a.total_pairs != b.total_pairs ||
      a.cells.size() != b.cells.size())
    return false;
  for (size_t i = 0; i < a.cells.size(); ++i)
    if (a.cells[i].source != b.cells[i].source ||
        a.cells[i].destination != b.cells[i].destination ||
        a.cells[i].reachable != b.cells[i].reachable)
      return false;
  return true;
}

}  // namespace

void run_sweep(RunContext& context) {
  Tracer* tracer = context.tracer;
  std::unique_ptr<SweepSetup> setup;
  Setups setups(context, [&] { setup.reset(); }, [&] { setup = setup_sweep(context); });
  setups.run(kSetupsPerBatch);
  if (setup == nullptr) return;
  const std::vector<scenario::Scenario>& scenarios = setup->scenarios;

  // Operation i runs scenario order[i]: back-to-back seeded shuffles of
  // the whole sweep, so a run covers every scenario about equally often.
  std::vector<size_t> order;
  util::Pcg32 rng(mix_seed(context.args.seed, 3));
  while (order.size() < 64 * scenarios.size()) {
    std::vector<size_t> round(scenarios.size());
    for (size_t i = 0; i < round.size(); ++i) round[i] = i;
    for (size_t i = round.size(); i > 1; --i)
      std::swap(round[i - 1], round[rng.next_below(static_cast<uint32_t>(i))]);
    order.insert(order.end(), round.begin(), round.end());
  }
  auto scenario_of = [&](uint64_t index) -> const scenario::Scenario& {
    return scenarios[order[index % order.size()]];
  };

  // Scenarios whose spliced matrix is re-checked against a cold sweep.
  std::set<size_t> sampled;
  for (uint64_t stream = 0; sampled.size() < std::min<size_t>(kThreads, scenarios.size());
       ++stream)
    sampled.insert(mix_seed(context.args.seed, 200 + stream) % scenarios.size());
  std::mutex kept_mutex;
  std::map<size_t, verify::PairwiseResult> kept;

  auto check = [&](uint64_t index, const scenario::ScenarioResult& result,
                   const verify::PairwiseResult& pairwise) {
    if (!result.applied || !result.converged) {
      context.report.fail("op " + std::to_string(index) + " (" + result.name + "): " +
                          (result.applied ? "did not reconverge" : "cut target missing"));
      return false;
    }
    size_t scenario_index = order[index % order.size()];
    if (sampled.count(scenario_index) > 0) {
      std::lock_guard<std::mutex> lock(kept_mutex);
      kept.emplace(scenario_index, pairwise);
    }
    return true;
  };
  auto runner_op = [&](unsigned, uint64_t index) {
    util::Result<std::vector<scenario::ScenarioResult>> results =
        setup->runner->run({scenario_of(index)});
    if (!results.ok() || results->size() != 1) {
      context.report.fail("op " + std::to_string(index) + ": runner failed: " +
                          results.status().to_string());
      return false;
    }
    return check(index, results->front(), results->front().pairwise);
  };

  // A traced run times the runner's per-scenario steps, replayed with a
  // span per call against an equivalent base capture (the runner keeps its
  // own private), in both its untraced and its traced windows.
  std::unique_ptr<verify::ForwardingGraph> base_graph;
  std::unique_ptr<verify::IncrementalBase> base_capture;
  verify::QueryOptions verify = sweep_verify();
  if (tracer != nullptr) {
    {
      Scope span(tracer, "verify.graph_build", 0);
      base_graph = std::make_unique<verify::ForwardingGraph>(setup->runner->base_snapshot());
    }
    verify.metrics = &tracer->registry();
    {
      Scope span(tracer, "verify.base_capture", 0);
      base_capture = verify::capture_incremental_base(*base_graph, verify);
    }
    context.sample("gnmi.aft_entries",
                   static_cast<double>(setup->runner->base_snapshot().total_entries()));
  }
  const ForkBase base{setup->base.get(), base_graph.get(), base_capture.get()};
  auto replay_op = [&](unsigned, uint64_t index) {
    Scope span(context.tracer, "sweep.scenario", index + 1);
    ForkStepResult step = fork_steps(context, base, scenario_of(index).perturbations, verify,
                                     /*differential=*/false, index + 1, span.id());
    if (!step.ok) return false;
    scenario::ScenarioResult result;
    result.name = scenario_of(index).name;
    result.applied = result.converged = true;
    return check(index, result, step.pairwise);
  };
  const std::function<bool(unsigned, uint64_t)> op =
      tracer == nullptr ? std::function<bool(unsigned, uint64_t)>(runner_op) : replay_op;

  std::atomic<uint64_t> next{0};
  const uint64_t warmup = 2 * kThreads;
  context.tracer = nullptr;
  run_threads(kThreads, [&](unsigned thread) {
    for (uint64_t i = thread; i < warmup; i += kThreads) op(thread, i);
  });
  next = warmup;
  context.report.record("ops_warmup", std::to_string(warmup));
  if (tracer == nullptr)
    emit_end_to_end(context, timed_phase(kThreads, context.args.seconds, next, op));
  else
    traced_phases(context, tracer, kThreads, context.args.seconds, next, op);
  context.report.attempt(next.load());

  // Correctness: each sampled fork's spliced matrix equals a cold
  // pairwise_reachability of the same fork.
  std::vector<std::pair<size_t, verify::PairwiseResult>> to_check(kept.begin(), kept.end());
  if (context.args.corrupt && !to_check.empty() && !to_check[0].second.cells.empty())
    to_check[0].second.cells[0].reachable = !to_check[0].second.cells[0].reachable;
  run_threads(kThreads, [&](unsigned thread) {
    for (size_t i = thread; i < to_check.size(); i += kThreads) {
      const auto& [scenario_index, spliced] = to_check[i];
      std::unique_ptr<emu::Emulation> fork = setup->base->fork();
      for (const scenario::Perturbation& perturbation :
           scenarios[scenario_index].perturbations)
        scenario::ScenarioRunner::apply(*fork, perturbation);
      fork->run_to_convergence();
      verify::ForwardingGraph graph(gnmi::Snapshot::capture(*fork, "cold"));
      if (!same_pairwise(spliced, verify::pairwise_reachability(graph, sweep_verify())))
        context.report.fail("scenario " + scenarios[scenario_index].name +
                            ": spliced pairwise differs from a cold sweep of the same fork");
    }
  });
  context.report.record("correctness_samples", std::to_string(to_check.size()));

  if (tracer != nullptr) {
    // Off the sweep's path, for the full per-layer set: one differential,
    // one daemon pass and a 2-run exploration on the sweep's own WAN.
    context.report.record("off_path", "verify.differential_ms service.* explore.*");
    fork_steps(context, base, scenario_of(0).perturbations, verify, /*differential=*/true, 0, 0);
    probe_daemon(context, setup->topology, scenario_of(0).perturbations, verify.scope);
    probe_explore(context, setup->topology);
    return;
  }
  // Last, as it replaces the set-up everything above refers to.
  setups.run(kSetupsPerBatch);
  setups.emit();
}

}  // namespace mfvbench
