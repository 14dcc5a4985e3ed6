#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "daemon.hpp"
#include "explore/canonical.hpp"
#include "explore/explore.hpp"
#include "gnmi/gnmi.hpp"
#include "util/cow.hpp"

namespace mfvbench {

using namespace mfv;
using Scope = Tracer::Scope;

std::unique_ptr<BootedBase> boot_base(RunContext& context, const emu::Topology& topology,
                                      const verify::QueryOptions& verify) {
  auto base = std::make_unique<BootedBase>();
  base->emulation = std::make_unique<emu::Emulation>();
  {
    Scope span(context.tracer, "config.parse", 0);
    util::Status added = base->emulation->add_topology(topology);
    if (!added.ok()) {
      context.report.fail("base topology rejected: " + added.to_string());
      return nullptr;
    }
  }
  {
    Scope span(context.tracer, "emu.boot", 0);
    base->emulation->start_all();
    if (!base->emulation->run_to_convergence()) {
      context.report.fail("base did not converge");
      return nullptr;
    }
  }
  context.sample("emu.boot_events",
                 static_cast<double>(base->emulation->kernel().executed()));
  {
    Scope span(context.tracer, "gnmi.capture", 0);
    base->snapshot = gnmi::Snapshot::capture(*base->emulation, "base");
  }
  context.sample("gnmi.aft_entries", static_cast<double>(base->snapshot.total_entries()));
  {
    Scope span(context.tracer, "verify.graph_build", 0);
    base->graph = std::make_unique<verify::ForwardingGraph>(base->snapshot);
  }
  {
    Scope span(context.tracer, "verify.base_capture", 0);
    base->incremental = verify::capture_incremental_base(*base->graph, verify);
  }
  return base;
}

ForkStepResult fork_steps(RunContext& context, const ForkBase& base,
                          const std::vector<scenario::Perturbation>& perturbations,
                          const verify::QueryOptions& verify, bool differential,
                          uint64_t op, uint64_t parent) {
  ForkStepResult result;
  const uint64_t clones_before = util::cow_clone_count().load();
  std::unique_ptr<emu::Emulation> fork;
  {
    Scope span(context.tracer, "emu.fork", op, parent);
    fork = base.emulation->fork();
  }
  if (fork == nullptr) {
    context.report.fail("op " + std::to_string(op) + ": base not quiescent, fork refused");
    return result;
  }
  const uint64_t events_before = fork->kernel().executed();
  Clock::time_point reconverge_start = Clock::now();
  bool applied = true;
  bool converged = false;
  {
    Scope span(context.tracer, "emu.reconverge", op, parent);
    for (const scenario::Perturbation& perturbation : perturbations)
      applied = scenario::ScenarioRunner::apply(*fork, perturbation) && applied;
    converged = fork->run_to_convergence();
  }
  const double events = static_cast<double>(fork->kernel().executed() - events_before);
  context.sample("emu.reconverge_events", events);
  context.sample_sum("reconverge_us", 1e3 * ms_since(reconverge_start));
  context.sample_sum("reconverge_events", events);
  if (!applied || !converged) {
    context.report.fail("op " + std::to_string(op) + ": perturbation " +
                        (applied ? "did not reconverge" : "target missing"));
    return result;
  }

  gnmi::Snapshot snapshot;
  {
    Scope span(context.tracer, "gnmi.capture", op, parent);
    snapshot = gnmi::Snapshot::capture(*fork, "fork");
  }
  std::unique_ptr<verify::ForwardingGraph> graph;
  {
    Scope span(context.tracer, "verify.graph_build", op, parent);
    graph = std::make_unique<verify::ForwardingGraph>(snapshot);
  }
  verify::IncrementalStats stats;
  verify::QueryOptions spliced = verify;
  spliced.incremental = base.incremental;
  spliced.incremental_stats = &stats;
  {
    Scope span(context.tracer, "verify.pairwise", op, parent);
    result.pairwise = verify::pairwise_reachability(*graph, spliced);
  }
  context.sample_sum("verify.spliced", static_cast<double>(stats.spliced));
  context.sample_sum("verify.retraced", static_cast<double>(stats.retraced));
  context.sample_sum("verify.fallbacks", stats.fell_back ? 1.0 : 0.0);
  if (differential) {
    Scope span(context.tracer, "verify.differential", op, parent);
    verify::QueryOptions cold = verify;
    cold.prime_lpm = false;  // the base graph may be shared across threads
    verify::differential_reachability(*base.graph, *graph, cold);
  }
  {
    Scope span(context.tracer, "emu.teardown", op, parent);
    fork.reset();
  }
  context.sample("emu.cow_clones",
                 static_cast<double>(util::cow_clone_count().load() - clones_before));
  result.ok = true;
  return result;
}

void replay_layers(RunContext& context, const LayerInput& input) {
  std::unique_ptr<BootedBase> base = boot_base(context, *input.topology, input.verify);
  if (base == nullptr) return;
  {
    Scope span(context.tracer, "scenario.init", 0);
    scenario::ScenarioRunnerOptions options;
    options.threads = 1;
    options.keep_snapshots = false;
    options.incremental = true;
    options.verify = input.verify;
    scenario::ScenarioRunner runner(*base->emulation, options);
  }
  for (const std::vector<scenario::Perturbation>& perturbations : input.fork_ops)
    fork_steps(context, base->view(), perturbations, input.verify, /*differential=*/true, 0,
               0);
  for (const emu::Topology& candidate : input.cold_candidates) {
    std::unique_ptr<BootedBase> cold = boot_base(context, candidate, input.verify);
    if (cold == nullptr) continue;
    Scope span(context.tracer, "verify.differential", 0);
    verify::differential_reachability(*base->graph, *cold->graph, input.verify);
  }
}

void sample_explore(RunContext& context, const ExploreCounts& counts, double wall_ms) {
  const double runs = static_cast<double>(std::max<uint64_t>(1, counts.runs));
  context.sample("explore.runs", static_cast<double>(counts.runs));
  context.sample("explore.unique_ratio", static_cast<double>(counts.unique_states) / runs);
  context.sample("explore.por_pruned", static_cast<double>(counts.por_pruned));
  context.sample("explore.ms_per_run", wall_ms / runs);
}

uint64_t replay_explore_calls(RunContext& context, const emu::Emulation& base) {
  std::unique_ptr<emu::Emulation> branch = base.fork();
  if (branch == nullptr) {
    context.report.fail("explore base refused to fork");
    return 0;
  }
  branch->start_all();
  branch->run_to_convergence();
  {
    Scope span(context.tracer, "explore.canonicalize", 0);
    explore::canonicalize(*branch);
  }
  explore::ExploreInput input;
  input.base = &base;
  input.start = true;
  Scope span(context.tracer, "explore.replay", 0);
  util::Result<explore::CanonicalState> replayed = explore::replay_schedule(input, {});
  if (!replayed.ok()) {
    context.report.fail("default schedule replay failed: " + replayed.status().to_string());
    return 0;
  }
  return replayed->hash;
}

void probe_explore(RunContext& context, const emu::Topology& topology) {
  emu::Emulation base;
  util::Status added = base.add_topology(topology);
  if (!added.ok()) {
    context.report.fail("explore probe topology rejected: " + added.to_string());
    return;
  }
  explore::ExploreInput input;
  input.base = &base;
  input.start = true;
  explore::ExploreOptions options;
  options.threads = 1;
  options.max_runs = 2;
  options.verify_properties = false;
  Clock::time_point start = Clock::now();
  Scope span(context.tracer, "explore.explore", 0);
  util::Result<explore::ExploreResult> result = explore::explore(input, options);
  span.end();
  if (!result.ok()) {
    context.report.fail("explore probe failed: " + result.status().to_string());
    return;
  }
  sample_explore(context, {result->runs, result->unique_states, result->por_skipped_branches},
                 ms_since(start));
  replay_explore_calls(context, base);
}

void probe_daemon(RunContext& context, const emu::Topology& topology,
                  const std::vector<scenario::Perturbation>& perturbations,
                  const std::optional<net::Ipv4Prefix>& scope) {
  const double rss_before = current_rss_mb();
  Daemon daemon(context, /*workers=*/1, /*byte_budget=*/512u << 20, "probe");
  if (!daemon.started()) return;
  service::Client client = daemon.connect(context);
  if (!client.connected()) return;

  service::Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = topology.to_json();
  Reply uploaded = call(context, client, upload, "service.upload_configs", 0, 0);
  if (!uploaded.ok) return;
  const std::string submission = uploaded.response.result.find("submission")->as_string();

  service::Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = submission;
  if (!call(context, client, snapshot, "service.snapshot", 0, 0).ok) return;

  service::Request fork = make_request(3, "fork_scenario");
  fork.params["base"] = submission;
  util::Json list = util::Json::array();
  for (const scenario::Perturbation& perturbation : perturbations)
    list.push_back(scenario::perturbation_to_json(perturbation));
  fork.params["perturbations"] = std::move(list);
  Reply forked = call(context, client, fork, "service.fork_scenario", 0, 0);
  if (!forked.ok) return;
  const std::string fork_id = forked.response.result.find("snapshot")->as_string();

  service::Request pairwise = make_request(4, "query");
  pairwise.params["snapshot"] = fork_id;
  pairwise.params["kind"] = "pairwise";
  if (scope) pairwise.params["scope"] = scope->to_string();
  call(context, client, pairwise, "service.query_pairwise", 0, 0);

  service::Request differential = make_request(5, "query");
  differential.params["snapshot"] = fork_id;
  differential.params["base"] = submission;
  differential.params["kind"] = "differential";
  if (scope) differential.params["scope"] = scope->to_string();
  call(context, client, differential, "service.query_differential", 0, 0);
  sample_store(context, daemon, rss_before);
}

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"config.parse_ms", "ms"},
      {"emu.boot_ms", "ms"},
      {"emu.boot_events", "count"},
      {"emu.fork_ms", "ms"},
      {"emu.teardown_ms", "ms"},
      {"emu.cow_clones", "count"},
      {"emu.reconverge_ms", "ms"},
      {"emu.reconverge_events", "count"},
      {"emu.reconverge_us_per_event", "us"},
      {"gnmi.capture_ms", "ms"},
      {"gnmi.aft_entries", "count"},
      {"verify.graph_build_ms", "ms"},
      {"verify.base_capture_ms", "ms"},
      {"verify.pairwise_ms", "ms"},
      {"verify.splice_ratio", "ratio"},
      {"verify.fallbacks", "count"},
      {"verify.differential_ms", "ms"},
      {"verify.trace_cache_hit_ratio", "ratio"},
      {"scenario.init_ms", "ms"},
      {"scenario.parallel_efficiency", "ratio"},
      {"service.upload_ms", "ms"},
      {"service.converge_ms", "ms"},
      {"service.verify_ms", "ms"},
      {"service.wire_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.store_evictions", "count"},
      {"service.store_charged_mb", "MB"},
      {"service.rss_per_charged_mb", "ratio"},
      {"explore.runs", "count"},
      {"explore.unique_ratio", "ratio"},
      {"explore.por_pruned", "count"},
      {"explore.ms_per_run", "ms"},
      {"explore.replay_ms", "ms"},
      {"explore.canonicalize_ms", "ms"},
      {"proc.cores_busy", "cores"},
      {"obs.spans_dropped", "count"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

namespace {

/// Metric name -> span name for metrics that are a median span duration.
const char* span_for(const std::string& metric) {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"config.parse_ms", "config.parse"},
      {"emu.boot_ms", "emu.boot"},
      {"emu.fork_ms", "emu.fork"},
      {"emu.teardown_ms", "emu.teardown"},
      {"emu.reconverge_ms", "emu.reconverge"},
      {"gnmi.capture_ms", "gnmi.capture"},
      {"verify.graph_build_ms", "verify.graph_build"},
      {"verify.base_capture_ms", "verify.base_capture"},
      {"verify.pairwise_ms", "verify.pairwise"},
      {"verify.differential_ms", "verify.differential"},
      {"scenario.init_ms", "scenario.init"},
      {"service.upload_ms", "service.upload_configs"},
      {"explore.replay_ms", "explore.replay"},
      {"explore.canonicalize_ms", "explore.canonicalize"},
  };
  for (const auto& [name, span] : table)
    if (metric == name) return span;
  return nullptr;
}

std::string count_note(size_t count) { return "n=" + std::to_string(count); }

}  // namespace

void emit_layer_metrics(RunContext& context) {
  Tracer& tracer = *context.tracer;
  const Samples& samples = context.samples;
  Report& report = context.report;

  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    const std::string name = spec.name;
    if (const char* span = span_for(name)) {
      size_t count = 0;
      double value = tracer.median_ms(span, &count);
      if (count > 0) report.metric(name, value, spec.unit, "median of " + count_note(count));
      else report.unmeasured(name, std::string("no ") + span + " span was recorded");
      continue;
    }
    if (name == "emu.reconverge_us_per_event") {
      double events = samples.total("reconverge_events");
      if (events > 0)
        report.metric(name, samples.total("reconverge_us") / events, spec.unit,
                      "total reconverge time / total events");
      else report.unmeasured(name, "no reconvergence ran");
      continue;
    }
    if (name == "verify.splice_ratio" || name == "verify.fallbacks") {
      double spliced = samples.total("verify.spliced");
      double retraced = samples.total("verify.retraced");
      if (!samples.has_total("verify.fallbacks")) {
        report.unmeasured(name, "no spliced pairwise query ran");
      } else if (name == "verify.fallbacks") {
        report.metric(name, samples.total("verify.fallbacks"), spec.unit, "total");
      } else {
        double cells = spliced + retraced;
        report.metric(name, cells > 0 ? spliced / cells : 0.0, spec.unit,
                      "spliced / (spliced + retraced) cells");
      }
      continue;
    }
    if (name == "verify.trace_cache_hit_ratio") {
      double hits = static_cast<double>(tracer.registry().counter("trace_cache_hits").value());
      double misses =
          static_cast<double>(tracer.registry().counter("trace_cache_misses").value());
      if (hits + misses > 0)
        report.metric(name, hits / (hits + misses), spec.unit,
                      "registry trace_cache_hits / (hits + misses)");
      else report.unmeasured(name, "no trace-cache lookups were counted");
      continue;
    }
    if (name == "obs.spans_dropped") {
      report.metric(name, static_cast<double>(tracer.dropped()), spec.unit,
                    count_note(tracer.recorded()) + " spans kept");
      continue;
    }
    std::vector<double> values = samples.values(name);
    if (values.empty()) {
      report.unmeasured(name, "not observed on this workload");
      continue;
    }
    if (name == "service.queue_wait_ms") {
      double mean = std::accumulate(values.begin(), values.end(), 0.0) /
                    static_cast<double>(values.size());
      report.metric(name, mean, spec.unit, "mean of " + count_note(values.size()));
    } else {
      report.metric(name, median(values), spec.unit, "median of " + count_note(values.size()));
    }
  }

  std::printf("SELF_TIME %-32s %7s %12s %12s\n", "span", "spans", "total_ms", "self_ms");
  for (const Tracer::SelfTime& entry : tracer.self_times())
    std::printf("SELF_TIME %-32s %7zu %12.2f %12.2f\n", entry.name.c_str(), entry.spans,
                entry.total_ms, entry.self_ms);
}

}  // namespace mfvbench
