// Ablation A3 (§6 "Exhaustive search across configuration scenarios"):
// checking that the network survives any single link cut. The paper
// prescribes one emulation per scenario and warns the approach "can be
// overly compute intensive for others such as searching any k link cuts,
// which grows exponentially".
//
// This report runs the sweep both ways on the same WAN:
//   * cold     — one full emulation boot per scenario (the paper's path);
//   * forked   — the scenario engine: boot once, fork the converged base
//                per scenario, apply the cut, re-converge incrementally
//                and splice the pairwise answer from the base's (serial
//                and sharded across the thread pool).
// Fork-equivalence (tests/test_scenario_fork.cpp) guarantees both produce
// identical snapshots, so the speedup column is a pure-cost comparison.
// The forked path also makes the k=2 sweep (C(links,2) scenarios) cheap
// enough to actually run rather than just count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_json.hpp"
#include "gnmi/gnmi.hpp"
#include "scenario/scenario.hpp"
#include "verify/queries.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mfv;

struct SweepStats {
  size_t scenarios = 0;
  size_t breaking_cuts = 0;
  size_t worst_broken_pairs = 0;
  std::string worst_cut;
  double ms = 0.0;
  /// Aggregated splice counters of the forked sweeps.
  verify::IncrementalStats incremental;
  size_t fallbacks = 0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A3 asks "does the network survive the cut", i.e. router-to-router
/// reachability — scope the pairwise sweep to the loopback range rather
/// than the full flow space (which the external full-feed routes blow up).
verify::QueryOptions a3_verify_options() {
  verify::QueryOptions options = scenario::ScenarioRunnerOptions{}.verify;
  options.scope = net::Ipv4Prefix::parse("10.1.0.0/16");
  return options;
}

/// The paper's approach: a fresh emulation booted to convergence per
/// scenario, then the cut, then re-convergence and the pairwise query.
/// Verify options match the scenario engine's per-scenario defaults, so
/// the query cost is identical on both sides of the comparison.
SweepStats sweep_cold(const emu::Topology& topology) {
  SweepStats stats;
  double begin = now_ms();
  verify::QueryOptions verify_options = a3_verify_options();

  emu::Emulation base;
  if (!base.add_topology(topology).ok()) return stats;
  base.start_all();
  base.run_to_convergence();
  verify::PairwiseResult base_pairwise = verify::pairwise_reachability(
      verify::ForwardingGraph(gnmi::Snapshot::capture(base, "base")), verify_options);

  for (const emu::LinkSpec& cut : topology.links) {
    emu::Emulation emulation;
    if (!emulation.add_topology(topology).ok()) continue;
    emulation.start_all();
    emulation.run_to_convergence();
    emulation.set_link_up(cut.a, cut.b, false);
    emulation.run_to_convergence();
    ++stats.scenarios;

    verify::ForwardingGraph graph(gnmi::Snapshot::capture(emulation, "cut"));
    verify::PairwiseResult pairwise = verify::pairwise_reachability(graph, verify_options);
    size_t broken = base_pairwise.reachable_pairs - pairwise.reachable_pairs;
    if (broken > 0) {
      ++stats.breaking_cuts;
      if (broken > stats.worst_broken_pairs) {
        stats.worst_broken_pairs = broken;
        stats.worst_cut = cut.a.to_string() + " <-> " + cut.b.to_string();
      }
    }
  }
  stats.ms = now_ms() - begin;
  return stats;
}

/// The scenario engine: fork the already-converged base per scenario.
/// The timer covers runner construction (base snapshot + base pairwise)
/// so the comparison against sweep_cold is end-to-end fair; the one-time
/// base boot itself is charged to neither side (cold pays it per scenario,
/// forked pays it once — passing it in pre-converged mirrors the real
/// usage where the base already exists).
SweepStats sweep_forked(const emu::Emulation& base,
                        const std::vector<scenario::Scenario>& scenarios,
                        unsigned threads) {
  SweepStats stats;
  double begin = now_ms();

  scenario::ScenarioRunnerOptions options;
  options.threads = threads;
  options.keep_snapshots = false;
  options.verify = a3_verify_options();
  scenario::ScenarioRunner runner(base, options);
  auto results = runner.run(scenarios);
  if (!results.ok()) return stats;

  for (const scenario::ScenarioResult& result : *results) {
    ++stats.scenarios;
    stats.incremental.accumulate(result.incremental);
    if (result.incremental.fell_back) ++stats.fallbacks;
    if (result.broken_pairs > 0) {
      ++stats.breaking_cuts;
      if (result.broken_pairs > stats.worst_broken_pairs) {
        stats.worst_broken_pairs = result.broken_pairs;
        stats.worst_cut = result.name;
      }
    }
  }
  stats.ms = now_ms() - begin;
  return stats;
}

uint64_t choose(uint64_t n, uint64_t k) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < k; ++i) result = result * (n - i) / (i + 1);
  return result;
}

void print_row(const char* label, const SweepStats& stats, double cold_ms) {
  double per_sec = stats.ms > 0 ? 1000.0 * static_cast<double>(stats.scenarios) / stats.ms
                                : 0.0;
  double speedup = stats.ms > 0 ? cold_ms / stats.ms : 0.0;
  std::printf("  %-18s %9zu %10.1f %13.1f %11.2fx %8zu\n", label, stats.scenarios,
              stats.ms, per_sec, speedup, stats.breaking_cuts);
}

/// One A3_TIMING row (legacy line + JSON); `cold_ms` > 0 adds a speedup.
void record_sweep(const char* sweep, const char* approach, const SweepStats& stats,
                  double cold_ms) {
  mfv::util::Json fields = mfv::util::Json::object();
  fields["sweep"] = sweep;
  fields["approach"] = approach;
  fields["scenarios"] = static_cast<uint64_t>(stats.scenarios);
  fields["ms"] = stats.ms;
  if (cold_ms > 0 && stats.ms > 0) fields["speedup"] = cold_ms / stats.ms;
  if (stats.incremental.destinations > 0 || stats.fallbacks > 0) {
    fields["splice_hits"] = static_cast<uint64_t>(stats.incremental.spliced);
    fields["retraced"] = static_cast<uint64_t>(stats.incremental.retraced);
    fields["dirty_destinations"] =
        static_cast<uint64_t>(stats.incremental.dirty_destinations);
    fields["fallbacks"] = static_cast<uint64_t>(stats.fallbacks);
  }
  mfvbench::timing("A3_TIMING", fields);
}

void report() {
  // A ring with a few chords: some links are redundant, bridge links are
  // not (rings with chords keep 2-connectivity except at chord-free spans).
  // The iBGP mesh + external route feeds make the cold boot realistically
  // expensive (session establishment + full-feed propagation); a link cut
  // only has to re-run the IGP and shift affected BGP next-hops, which is
  // exactly the asymmetry the fork path exploits.
  workload::WanOptions options;
  options.routers = 12;
  options.seed = 13;
  options.extra_chords = 2;
  options.ibgp_mesh = true;
  options.border_count = 2;
  options.routes_per_peer = 200;
  emu::Topology topology = workload::wan_topology(options);

  emu::Emulation base;
  if (!base.add_topology(topology).ok()) return;
  base.start_all();
  base.run_to_convergence();

  std::vector<scenario::Scenario> k1 = scenario::single_link_cuts(topology);
  SweepStats cold = sweep_cold(topology);
  SweepStats forked_serial = sweep_forked(base, k1, /*threads=*/1);
  SweepStats forked_threaded = sweep_forked(base, k1, /*threads=*/0);

  std::printf("=== A3: Exhaustive what-if search, per-scenario emulation vs forking ===\n");
  std::printf("topology: %zu routers, %zu links (ring + chords)\n\n",
              topology.nodes.size(), topology.links.size());
  std::printf("single-link-cut sweep (k=1):\n");
  std::printf("  %-18s %9s %10s %13s %12s %8s\n", "approach", "scenarios", "ms",
              "scenarios/sec", "vs cold", "breaking");
  print_row("cold boot", cold, cold.ms);
  print_row("forked serial", forked_serial, cold.ms);
  print_row("forked threaded", forked_threaded, cold.ms);
  if (cold.breaking_cuts != forked_serial.breaking_cuts ||
      cold.breaking_cuts != forked_threaded.breaking_cuts)
    std::printf("  WARNING: breaking-cut counts disagree between approaches\n");
  if (forked_serial.worst_broken_pairs > 0)
    std::printf("  worst cut: %s (%zu pairs lost)\n", forked_serial.worst_cut.c_str(),
                forked_serial.worst_broken_pairs);
  std::printf("  forked splice: %zu spliced / %zu retraced cells, %zu fallbacks\n",
              forked_threaded.incremental.spliced, forked_threaded.incremental.retraced,
              forked_threaded.fallbacks);
  record_sweep("k1", "cold", cold, 0);
  record_sweep("k1", "forked-serial", forked_serial, cold.ms);
  record_sweep("k1", "forked-threaded", forked_threaded, cold.ms);

  // The exponential the paper warns about — now with the k=2 sweep
  // actually executed on the scenario engine instead of only counted.
  std::printf("\nscenario-count growth:\n");
  uint64_t links = topology.links.size();
  for (uint64_t k = 1; k <= 3; ++k)
    std::printf("  k=%llu: %llu scenarios\n", static_cast<unsigned long long>(k),
                static_cast<unsigned long long>(choose(links, k)));

  std::vector<scenario::Scenario> k2 = scenario::k_link_cuts(topology, 2);
  SweepStats k2_stats = sweep_forked(base, k2, /*threads=*/0);
  double k2_per_sec =
      k2_stats.ms > 0 ? 1000.0 * static_cast<double>(k2_stats.scenarios) / k2_stats.ms : 0.0;
  std::printf("\ndouble-link-cut sweep (k=2, forked threaded):\n");
  std::printf("  scenarios run               : %zu in %.1f ms (%.1f scenarios/sec)\n",
              k2_stats.scenarios, k2_stats.ms, k2_per_sec);
  std::printf("  cuts that break reachability: %zu\n", k2_stats.breaking_cuts);
  if (k2_stats.worst_broken_pairs > 0)
    std::printf("  worst pair of cuts          : %s (%zu pairs lost)\n",
                k2_stats.worst_cut.c_str(), k2_stats.worst_broken_pairs);
  std::printf("  spliced / retraced cells    : %zu / %zu (%zu fallbacks)\n",
              k2_stats.incremental.spliced, k2_stats.incremental.retraced,
              k2_stats.fallbacks);
  record_sweep("k2", "forked-threaded", k2_stats, 0);

  // The headline sweep: a 200-router WAN, k=2 restricted to cuts among
  // the first 14 links (C(14,2) = 91 scenarios).
  workload::WanOptions big_options;
  big_options.routers = 200;
  big_options.seed = 11;
  emu::Topology big = workload::wan_topology(big_options);
  emu::Emulation big_base;
  if (!big_base.add_topology(big).ok()) return;
  big_base.start_all();
  big_base.run_to_convergence();
  emu::Topology big_cuts = big;
  if (big_cuts.links.size() > 14) big_cuts.links.resize(14);
  std::vector<scenario::Scenario> big_k2 = scenario::k_link_cuts(big_cuts, 2);
  SweepStats big_stats = sweep_forked(big_base, big_k2, /*threads=*/0);
  std::printf("\n200-router WAN, k=2 over first 14 links (%zu scenarios):\n",
              big_k2.size());
  std::printf("  forked threaded             : %.1f ms (%zu spliced / %zu retraced "
              "cells, %zu fallbacks)\n",
              big_stats.ms, big_stats.incremental.spliced, big_stats.incremental.retraced,
              big_stats.fallbacks);
  record_sweep("k2-200r", "forked-threaded", big_stats, 0);

  // Negative control: a line topology, where every link is a bridge — the
  // sweep must flag every cut.
  workload::WanOptions line_options;
  line_options.routers = 8;
  line_options.seed = 13;
  line_options.line = true;
  emu::Topology line = workload::wan_topology(line_options);
  emu::Emulation line_base;
  if (!line_base.add_topology(line).ok()) return;
  line_base.start_all();
  line_base.run_to_convergence();
  SweepStats line_stats =
      sweep_forked(line_base, scenario::single_link_cuts(line), /*threads=*/0);
  std::printf("\nline-topology control (%zu links, all bridges):\n", line.links.size());
  std::printf("  cuts that break reachability: %zu/%zu\n", line_stats.breaking_cuts,
              line_stats.scenarios);
  std::printf("  worst cut                   : %s (%zu pairs lost)\n",
              line_stats.worst_cut.c_str(), line_stats.worst_broken_pairs);
  std::printf("\n");
}

void BM_SingleCutScenarioColdBoot(benchmark::State& state) {
  workload::WanOptions options;
  options.routers = 12;
  options.seed = 13;
  emu::Topology topology = workload::wan_topology(options);
  const emu::LinkSpec& cut = topology.links.front();
  for (auto _ : state) {
    emu::Emulation emulation;
    if (!emulation.add_topology(topology).ok()) return;
    emulation.start_all();
    emulation.run_to_convergence();
    emulation.set_link_up(cut.a, cut.b, false);
    emulation.run_to_convergence();
    verify::ForwardingGraph graph(gnmi::Snapshot::capture(emulation, "cut"));
    auto pairwise = verify::pairwise_reachability(graph);
    benchmark::DoNotOptimize(pairwise.reachable_pairs);
  }
}
BENCHMARK(BM_SingleCutScenarioColdBoot)->Unit(benchmark::kMillisecond);

void BM_SingleCutScenarioForked(benchmark::State& state) {
  // Same scenario as BM_SingleCutScenarioColdBoot, on the fork path: the
  // converged base is built once outside the loop.
  workload::WanOptions options;
  options.routers = 12;
  options.seed = 13;
  emu::Topology topology = workload::wan_topology(options);
  emu::Emulation base;
  if (!base.add_topology(topology).ok()) return;
  base.start_all();
  base.run_to_convergence();
  const emu::LinkSpec& cut = topology.links.front();
  for (auto _ : state) {
    std::unique_ptr<emu::Emulation> fork = base.fork();
    fork->set_link_up(cut.a, cut.b, false);
    fork->run_to_convergence();
    verify::ForwardingGraph graph(gnmi::Snapshot::capture(*fork, "cut"));
    auto pairwise = verify::pairwise_reachability(graph);
    benchmark::DoNotOptimize(pairwise.reachable_pairs);
  }
}
BENCHMARK(BM_SingleCutScenarioForked)->Unit(benchmark::kMillisecond);

void BM_ForkConvergedBase(benchmark::State& state) {
  // The raw cost of Emulation::fork() itself (deep copy, no re-convergence).
  workload::WanOptions options;
  options.routers = 12;
  options.seed = 13;
  emu::Topology topology = workload::wan_topology(options);
  emu::Emulation base;
  if (!base.add_topology(topology).ok()) return;
  base.start_all();
  base.run_to_convergence();
  for (auto _ : state) {
    std::unique_ptr<emu::Emulation> fork = base.fork();
    benchmark::DoNotOptimize(fork.get());
  }
}
BENCHMARK(BM_ForkConvergedBase)->Unit(benchmark::kMillisecond);

void BM_IncrementalCutReconvergence(benchmark::State& state) {
  // Cut + heal on one long-lived emulation (reconfiguration path; the
  // in-place lower bound the fork path approaches without the healing).
  workload::WanOptions options;
  options.routers = 12;
  options.seed = 13;
  emu::Topology topology = workload::wan_topology(options);
  emu::Emulation emulation;
  if (!emulation.add_topology(topology).ok()) return;
  emulation.start_all();
  emulation.run_to_convergence();
  const emu::LinkSpec& cut = topology.links.front();
  for (auto _ : state) {
    emulation.set_link_up(cut.a, cut.b, false);
    emulation.run_to_convergence();
    emulation.set_link_up(cut.a, cut.b, true);
    emulation.run_to_convergence();
  }
}
BENCHMARK(BM_IncrementalCutReconvergence)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_a3_linkcuts");
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
