// mfvbench: end-to-end benchmark of MFV through its public entry points.
//
//   mfvbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--corrupt] [--trace-out FILE] [--workdir DIR]
//            [--commit ID]
//
// Prints a run record, every metric by name with its unit and sample
// count, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from a separate traced run (see README.md).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "util/json.hpp"

namespace {

using namespace mfvbench;

struct WorkloadSpec {
  const char* name;
  void (*run)(RunContext&);
  /// Worker threads the workload keeps busy plus client connections; the
  /// benchmark refuses to start when their sum exceeds the host's cores.
  unsigned load_threads;
  unsigned connections;
};

const WorkloadSpec kWorkloads[] = {
    {"wan200-k2-sweep", run_sweep, 4, 0},
    {"precheck-cold", run_precheck, 1, 1},
    {"service-whatif", run_whatif, 2, 2},
    {"explore-boot", run_explore, 1, 0},
};

int usage(const char* why) {
  std::fprintf(stderr, "mfvbench: %s\nusage: mfvbench --workload NAME --seed N --seconds S "
                       "--trace 0|1 [--smoke] [--corrupt] [--trace-out FILE]\n", why);
  return 2;
}

#ifndef MFVBENCH_BUILD_TYPE
#define MFVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef MFVBENCH_COMPILER
#define MFVBENCH_COMPILER "unknown"
#endif

}  // namespace

int main(int argc, char** argv) {
  RunContext context;
  context.process_start = Clock::now();
  Args& args = context.args;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--smoke") args.smoke = true;
    else if (flag == "--corrupt") args.corrupt = true;
    else if ((v = value()) == nullptr) return usage(("missing value for " + flag).c_str());
    else if (flag == "--workload") args.workload = v;
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10), have_seed = true;
    else if (flag == "--seconds") args.seconds = std::atoi(v), have_seconds = true;
    else if (flag == "--trace") args.trace = std::string(v) == "1", have_trace = true;
    else if (flag == "--trace-out") args.trace_out = v;
    else if (flag == "--workdir") args.workdir = v;
    else if (flag == "--commit") commit = v;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (!have_seed || !have_seconds || !have_trace || args.seconds < 1)
    return usage("--seed, --seconds (>= 1) and --trace are required");
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads)
    if (args.workload == candidate.name) spec = &candidate;
  if (spec == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());

  // Cores this process may run on, as nproc counts them.
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const long cores =
      sched_getaffinity(0, sizeof affinity, &affinity) == 0 ? CPU_COUNT(&affinity) : 1;
  if (static_cast<long>(spec->load_threads + spec->connections) > cores) {
    std::fprintf(stderr,
                 "mfvbench: %s needs %u load threads + %u connections but the host has %ld "
                 "cores; refusing to run an oversubscribed measurement\n",
                 spec->name, spec->load_threads, spec->connections, cores);
    return 3;
  }

  Report& report = context.report;
  report.record("workload", args.workload);
  report.record("seed", std::to_string(args.seed));
  report.record("seconds", std::to_string(args.seconds));
  report.record("trace", args.trace ? "1" : "0");
  report.record("nproc", std::to_string(cores));
  report.record("build_type", MFVBENCH_BUILD_TYPE);
  report.record("compiler", MFVBENCH_COMPILER);
  report.record("commit", commit);
  report.record("load_threads", std::to_string(spec->load_threads));
  report.record("connections", std::to_string(spec->connections));
  if (args.smoke) report.record("mode", "smoke (tiny inputs)");

  // Sized so no span of a run is ever dropped (obs.spans_dropped reports it).
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(size_t{1} << 21);
  context.tracer = tracer.get();
  spec->run(context);
  if (tracer != nullptr) {
    context.tracer = tracer.get();
    emit_layer_metrics(context);
    if (!args.trace_out.empty()) {
      bool written = tracer->write_chrome_trace(args.trace_out);
      report.record("chrome_trace", written ? args.trace_out : "could not write " + args.trace_out);
    }
  }

  for (const auto& [key, value] : report.records())
    std::printf("RECORD %s=%s\n", key.c_str(), value.c_str());
  for (const Metric& metric : report.metrics())
    std::printf("METRIC %-30s %14.6f %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  for (const auto& [name, reason] : report.unmeasured())
    std::printf("UNMEASURED %s: %s\n", name.c_str(), reason.c_str());
  std::vector<std::string> failures = report.failures();
  for (size_t i = 0; i < failures.size() && i < 20; ++i)
    std::printf("FAILURE %s\n", failures[i].c_str());

  // The final line: end-to-end metrics untraced, per-layer ones traced.
  std::map<std::string, const Metric*> by_name;
  for (const Metric& metric : report.metrics()) by_name[metric.name] = &metric;
  std::vector<std::string> wanted;
  if (args.trace) {
    for (const LayerMetricSpec& layer : layer_metric_specs()) wanted.push_back(layer.name);
  } else {
    wanted = {"throughput_per_s", "p50_ms", "tail_ms", "setup_s", "peak_rss_mb"};
  }
  mfv::util::Json metrics = mfv::util::Json::object();
  bool complete = true;
  for (const std::string& name : wanted) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      complete = false;
      continue;
    }
    mfv::util::Json entry = mfv::util::Json::object();
    entry["value"] = it->second->value;
    entry["unit"] = it->second->unit;
    metrics[name] = std::move(entry);
  }
  if (!complete) report.fail("not every metric of the run was measured");
  const bool correct = report.failed() == 0;
  mfv::util::Json result = mfv::util::Json::object();
  result["correct"] = correct;
  result["attempted"] = std::max<uint64_t>(1, report.attempted());
  result["failed"] = report.failed();
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return 0;
}
