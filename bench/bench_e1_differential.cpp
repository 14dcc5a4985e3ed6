// Experiment E1 (Fig. 2): "Model-free verification can successfully
// uncover reachability impact."
//
// Reproduces the paper's demonstration: the 6-node network (AS1/AS2/AS3,
// iBGP + eBGP + IS-IS, configs 62-82 lines) is emulated twice — baseline
// and with the R2-R3 eBGP session taken down — and Differential
// Reachability exhaustively compares all flows. The paper reports the query
// "correctly discovers the loss of connectivity from routers in AS3 to
// routers in AS2". Timing sections measure the cost of each pipeline stage.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_json.hpp"
#include "api/session.hpp"
#include "scenario/scenario.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace mfv;

/// The E1 change as perturbations: the configs that differ between the
/// healthy and bug topologies, expressed as ConfigReplace operations.
std::vector<scenario::Perturbation> e1_perturbations() {
  emu::Topology healthy = workload::fig2_topology(false);
  emu::Topology bug = workload::fig2_topology(true);
  std::vector<scenario::Perturbation> perturbations;
  for (const emu::NodeSpec& node : bug.nodes) {
    const emu::NodeSpec* before = healthy.find_node(node.name);
    if (before != nullptr && before->config_text != node.config_text)
      perturbations.push_back(
          scenario::ConfigReplace{node.name, node.config_text, node.vendor});
  }
  return perturbations;
}

void report() {
  api::Session session;
  if (!session.init_snapshot(workload::fig2_topology(false), "base").ok()) return;

  // Candidate snapshot built both ways: a second cold boot (the paper's
  // pipeline) and a fork of the converged base with the config delta
  // applied (the scenario engine). Both are byte-equivalent dataplanes
  // (tests/test_scenario_fork.cpp); timings quantify the saving.
  auto cold_begin = std::chrono::steady_clock::now();
  if (!session.init_snapshot(workload::fig2_topology(true), "bug").ok()) return;
  double cold_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - cold_begin)
                       .count();
  auto fork_begin = std::chrono::steady_clock::now();
  if (!session.fork_snapshot("base", "bug-forked", e1_perturbations()).ok()) return;
  double fork_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - fork_begin)
                       .count();
  auto diff = session.differential_reachability("base", "bug");
  if (!diff.ok()) return;
  auto regressions = diff->regressions();

  // Count regressions from AS3 sources toward AS2 loopbacks.
  size_t as3_to_as2 = 0;
  for (const auto& row : regressions) {
    if (row.source != "R3" && row.source != "R4" && row.source != "R6") continue;
    for (int i : {2, 5})
      if (row.destination.contains(
              *net::Ipv4Address::parse(workload::fig2_loopback(i))))
        ++as3_to_as2;
  }

  std::printf("=== E1: Differential reachability on the Fig. 2 network ===\n");
  std::printf("%-46s %-22s %s\n", "metric", "paper", "measured");
  std::printf("%-46s %-22s %zu nodes / %zu flows\n", "topology / flows compared",
              "6 nodes, all packets", session.snapshot("base")->devices.size(),
              diff->flows);
  std::printf("%-46s %-22s %s\n", "loss AS3->AS2 discovered", "yes",
              as3_to_as2 > 0 ? "yes" : "NO");
  std::printf("%-46s %-22s %zu rows (%zu AS3->AS2)\n", "regression rows", "reported",
              regressions.size(), as3_to_as2);
  std::printf("%-46s %-22s %s\n", "baseline convergence (virtual)", "n/a",
              session.info("base")->convergence_time.to_string().c_str());
  std::printf("%-46s %-22s %.2f ms cold / %.2f ms forked (%.1fx)\n",
              "candidate snapshot build (wall)", "full re-emulation", cold_ms, fork_ms,
              fork_ms > 0 ? cold_ms / fork_ms : 0.0);

  // The forked candidate answers the query identically.
  auto forked_diff = session.differential_reachability("base", "bug-forked");
  size_t forked_as3_to_as2 = 0;
  if (forked_diff.ok()) {
    for (const auto& row : forked_diff->regressions()) {
      if (row.source != "R3" && row.source != "R4" && row.source != "R6") continue;
      for (int i : {2, 5})
        if (row.destination.contains(
                *net::Ipv4Address::parse(workload::fig2_loopback(i))))
          ++forked_as3_to_as2;
    }
  }
  std::printf("%-46s %-22s %s (%zu AS3->AS2 rows)\n", "forked snapshot finds the loss",
              "same verdict", forked_as3_to_as2 == as3_to_as2 ? "yes" : "NO",
              forked_as3_to_as2);
  {
    mfv::util::Json fields = mfv::util::Json::object();
    fields["build"] = "cold";
    fields["ms"] = cold_ms;
    mfvbench::timing("E1_TIMING", fields);
    fields = mfv::util::Json::object();
    fields["build"] = "forked";
    fields["ms"] = fork_ms;
    fields["speedup"] = fork_ms > 0 ? cold_ms / fork_ms : 0.0;
    mfvbench::timing("E1_TIMING", fields);
  }

  // The same query on the memoized engine, with and without sharded
  // execution. Emitted as machine-readable E1_TIMING lines for experiment
  // scripts.
  auto timed = [&](const char* label, verify::QueryOptions options) {
    auto begin = std::chrono::steady_clock::now();
    auto result = session.differential_reachability("base", "bug", options);
    auto end = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(end - begin).count();
    mfv::util::Json fields = mfv::util::Json::object();
    fields["engine"] = label;
    fields["threads"] = static_cast<uint64_t>(options.threads);
    fields["flows"] = static_cast<uint64_t>(result.ok() ? result->flows : 0);
    fields["ms"] = ms;
    mfvbench::timing("E1_TIMING", fields);
  };
  verify::QueryOptions cached_serial;
  cached_serial.threads = 1;
  timed("cached-serial", cached_serial);
  verify::QueryOptions parallel;
  parallel.threads = 8;
  timed("cached-parallel", parallel);
  std::printf("\n");
}

void BM_EmulateFig2ToConvergence(benchmark::State& state) {
  emu::Topology topology = workload::fig2_topology(false);
  for (auto _ : state) {
    api::Session session;
    bool ok = session.init_snapshot(topology, "s").ok();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_EmulateFig2ToConvergence)->Unit(benchmark::kMillisecond);

void BM_ForkFig2WithConfigDelta(benchmark::State& state) {
  // The incremental alternative to BM_EmulateFig2ToConvergence: fork the
  // converged base and apply the E1 config delta.
  emu::Emulation base;
  if (!base.add_topology(workload::fig2_topology(false)).ok()) return;
  base.start_all();
  base.run_to_convergence();
  std::vector<scenario::Perturbation> perturbations = e1_perturbations();
  for (auto _ : state) {
    std::unique_ptr<emu::Emulation> fork = base.fork();
    for (const scenario::Perturbation& perturbation : perturbations)
      scenario::ScenarioRunner::apply(*fork, perturbation);
    fork->run_to_convergence();
    gnmi::Snapshot snapshot = gnmi::Snapshot::capture(*fork, "bug");
    benchmark::DoNotOptimize(snapshot.total_entries());
  }
}
BENCHMARK(BM_ForkFig2WithConfigDelta)->Unit(benchmark::kMillisecond);

void BM_DifferentialQuery(benchmark::State& state) {
  api::Session session;
  if (!session.init_snapshot(workload::fig2_topology(false), "base").ok()) return;
  if (!session.init_snapshot(workload::fig2_topology(true), "bug").ok()) return;
  verify::QueryOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto diff = session.differential_reachability("base", "bug", options);
    benchmark::DoNotOptimize(diff->rows.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DifferentialQuery)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SnapshotExtraction(benchmark::State& state) {
  emu::Emulation emulation;
  if (!emulation.add_topology(workload::fig2_topology(false)).ok()) return;
  emulation.start_all();
  emulation.run_to_convergence();
  for (auto _ : state) {
    gnmi::Snapshot snapshot = gnmi::Snapshot::capture(emulation, "s");
    benchmark::DoNotOptimize(snapshot.total_entries());
  }
}
BENCHMARK(BM_SnapshotExtraction)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_e1_differential");
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
