// Ablation A1: verification engine cost versus network size.
//
// Supports §3's claim that dataplane verification provides "exhaustive
// search" cheaply once the dataplane exists: measures packet-class counts
// and query latencies as the WAN grows, and the trade-off the paper
// discusses in §6 — per-scenario emulation is the expensive stage,
// verification of a snapshot is fast.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_json.hpp"
#include "gnmi/gnmi.hpp"
#include "obs/metrics.hpp"
#include "verify/queries.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mfv;

gnmi::Snapshot converge(int routers) {
  emu::Emulation emulation;
  if (!emulation.add_topology(workload::wan_topology({.routers = routers, .seed = 11})).ok())
    return {};
  emulation.start_all();
  emulation.run_to_convergence();
  return gnmi::Snapshot::capture(emulation, "wan");
}

void report() {
  std::printf("=== A1: Verification cost vs network size (IS-IS WANs) ===\n");
  std::printf("%-9s %-12s %-10s %-14s %-12s\n", "routers", "fib-entries", "classes",
              "flows", "full-mesh");
  for (int routers : {10, 20, 40, 80}) {
    gnmi::Snapshot snapshot = converge(routers);
    verify::ForwardingGraph graph(snapshot);
    verify::QueryOptions options;
    options.sources = {"wan0"};  // one source, all destination classes
    auto result = verify::reachability(graph, options);
    auto pairwise = verify::pairwise_reachability(graph);
    std::printf("%-9d %-12zu %-10zu %-14zu %s\n", routers, snapshot.total_entries(),
                result.classes, result.flows * static_cast<size_t>(routers),
                pairwise.full_mesh() ? "yes" : "NO");
  }
  std::printf("\n");
}

/// Serial-vs-parallel comparison of the memoized engine on the headline
/// 200-router sweep. Emits machine-readable `A1_TIMING`/`A1_SPEEDUP`
/// lines so experiment scripts can scrape the numbers.
void engine_report() {
  constexpr int kRouters = 200;
  gnmi::Snapshot snapshot = converge(kRouters);
  verify::ForwardingGraph graph(snapshot);

  auto run = [&](const char* label, verify::QueryOptions options) {
    auto begin = std::chrono::steady_clock::now();
    auto result = verify::reachability(graph, options);
    auto end = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(end - begin).count();
    mfv::util::Json fields = mfv::util::Json::object();
    fields["routers"] = kRouters;
    fields["engine"] = label;
    fields["threads"] = static_cast<uint64_t>(options.threads);
    fields["flows"] = static_cast<uint64_t>(result.flows);
    fields["ms"] = ms;
    mfvbench::timing("A1_TIMING", fields);
    return ms;
  };

  std::printf("=== A1: engine comparison, %d-router reachability sweep ===\n",
              kRouters);
  verify::QueryOptions cached_serial;
  cached_serial.threads = 1;
  double cached_serial_ms = run("cached-serial", cached_serial);

  verify::QueryOptions parallel;
  parallel.threads = 8;
  double parallel_ms = run("cached-parallel", parallel);

  mfv::util::Json speedup = mfv::util::Json::object();
  speedup["routers"] = kRouters;
  speedup["cached_parallel"] = cached_serial_ms / parallel_ms;
  mfvbench::timing("A1_SPEEDUP", speedup);
  std::printf("\n");
}

/// Observability tax: the cached-parallel sweep with no metrics sink versus
/// the same sweep publishing into a live obs::MetricsRegistry. Both sides
/// run kReps times and keep the best wall time (noise floor, not average),
/// and the registry snapshot itself rides along in the JSON report.
void obs_overhead_report() {
  constexpr int kRouters = 200;
  constexpr int kReps = 5;
  gnmi::Snapshot snapshot = converge(kRouters);
  verify::ForwardingGraph graph(snapshot);

  obs::MetricsRegistry registry;
  auto best_of = [&](obs::MetricsRegistry* metrics) {
    verify::QueryOptions options;
    options.threads = 8;
    options.metrics = metrics;
    double best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto begin = std::chrono::steady_clock::now();
      auto result = verify::reachability(graph, options);
      auto end = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(result.flows);
      double ms = std::chrono::duration<double, std::milli>(end - begin).count();
      if (rep == 0 || ms < best) best = ms;
    }
    return best;
  };

  std::printf("=== A1: observability overhead, %d-router cached-parallel sweep ===\n",
              kRouters);
  double plain_ms = best_of(nullptr);
  double instrumented_ms = best_of(&registry);

  mfv::util::Json fields = mfv::util::Json::object();
  fields["routers"] = kRouters;
  fields["reps"] = kReps;
  fields["plain_ms"] = plain_ms;
  fields["instrumented_ms"] = instrumented_ms;
  fields["overhead_pct"] = (instrumented_ms / plain_ms - 1.0) * 100.0;
  mfvbench::timing("A1_OBS", fields);
  mfvbench::JsonReport::instance().attach("metrics", registry.to_json());
  std::printf("\n");
}

void BM_ReachabilityQuery(benchmark::State& state) {
  gnmi::Snapshot snapshot = converge(static_cast<int>(state.range(0)));
  verify::ForwardingGraph graph(snapshot);
  verify::QueryOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    auto result = verify::reachability(graph, options);
    benchmark::DoNotOptimize(result.flows);
  }
  state.counters["routers"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
// Rows: the memoized engine at one thread and at eight (plus sharding).
BENCHMARK(BM_ReachabilityQuery)
    ->Args({10, 1})->Args({20, 1})->Args({40, 1})
    ->Args({10, 8})->Args({20, 8})->Args({40, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DifferentialQuery(benchmark::State& state) {
  gnmi::Snapshot snapshot = converge(static_cast<int>(state.range(0)));
  verify::ForwardingGraph base(snapshot);
  verify::ForwardingGraph candidate(snapshot);
  verify::QueryOptions options;
  options.threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    auto result = verify::differential_reachability(base, candidate, options);
    benchmark::DoNotOptimize(result.flows);
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_DifferentialQuery)
    ->Args({10, 1})->Args({20, 1})->Args({40, 1})
    ->Args({10, 8})->Args({20, 8})->Args({40, 8})
    ->Unit(benchmark::kMillisecond);

void BM_GraphConstruction(benchmark::State& state) {
  gnmi::Snapshot snapshot = converge(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    verify::ForwardingGraph graph(snapshot);
    benchmark::DoNotOptimize(graph.nodes().size());
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(20)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_SingleTraceroute(benchmark::State& state) {
  gnmi::Snapshot snapshot = converge(40);
  verify::ForwardingGraph graph(snapshot);
  auto destination = verify::device_loopback(snapshot, "wan39");
  for (auto _ : state) {
    auto trace = verify::trace_flow(graph, "wan0", *destination);
    benchmark::DoNotOptimize(trace.paths.size());
  }
}
BENCHMARK(BM_SingleTraceroute)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_a1_verify");
  report();
  engine_report();
  obs_overhead_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
