// Per-layer measurement for traced runs. Each workload records spans
// around the library calls its own operations make; the replays here
// measure every other layer on the same workload's inputs, so a traced
// run of any workload reports the full per-layer metric set.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "emu/emulation.hpp"
#include "emu/topology.hpp"
#include "scenario/scenario.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/incremental/incremental.hpp"
#include "verify/queries.hpp"

namespace mfvbench {

/// What a forked what-if needs from its converged base (not owned).
struct ForkBase {
  const mfv::emu::Emulation* emulation = nullptr;
  const mfv::verify::ForwardingGraph* graph = nullptr;
  const mfv::verify::IncrementalBase* incremental = nullptr;
};

/// A booted base network with the verify state splicing needs.
struct BootedBase {
  std::unique_ptr<mfv::emu::Emulation> emulation;
  mfv::gnmi::Snapshot snapshot;
  std::unique_ptr<mfv::verify::ForwardingGraph> graph;
  std::unique_ptr<mfv::verify::IncrementalBase> incremental;

  ForkBase view() const { return {emulation.get(), graph.get(), incremental.get()}; }
};

/// Parses, boots, captures and indexes `topology`, recording config.parse,
/// emu.boot, gnmi.capture, verify.graph_build and verify.base_capture
/// spans. Returns null (and records a failure) when the network does not
/// load or converge.
std::unique_ptr<BootedBase> boot_base(RunContext& context, const mfv::emu::Topology& topology,
                                      const mfv::verify::QueryOptions& verify);

/// One forked what-if, step by step as ScenarioRunner::run performs it:
/// fork, apply + reconverge, capture, graph, spliced pairwise, optional
/// differential against the base, teardown. Every step is a span under
/// `parent`. Returns the spliced pairwise result.
struct ForkStepResult {
  bool ok = false;
  mfv::verify::PairwiseResult pairwise;
};
ForkStepResult fork_steps(RunContext& context, const ForkBase& base,
                          const std::vector<mfv::scenario::Perturbation>& perturbations,
                          const mfv::verify::QueryOptions& verify, bool differential,
                          uint64_t op, uint64_t parent);

/// Replays the layers a workload's own operations do not reach, on that
/// workload's inputs: base boot, runner construction, the forked steps of
/// `fork_ops`, and cold builds (parse, boot, capture, graph, base capture,
/// differential against the base) of `cold_candidates`.
struct LayerInput {
  const mfv::emu::Topology* topology = nullptr;
  mfv::verify::QueryOptions verify;
  std::vector<std::vector<mfv::scenario::Perturbation>> fork_ops;
  std::vector<mfv::emu::Topology> cold_candidates;
};
void replay_layers(RunContext& context, const LayerInput& input);

/// Boot exploration of `topology` capped at two runs, without property
/// checks, then a replay of the default schedule and canonicalization of
/// a converged branch (explore.* metrics).
void probe_explore(RunContext& context, const mfv::emu::Topology& topology);

/// Records explore.* samples from one finished exploration.
struct ExploreCounts {
  uint64_t runs = 0;
  uint64_t unique_states = 0;
  uint64_t por_pruned = 0;
};
void sample_explore(RunContext& context, const ExploreCounts& counts, double wall_ms);

/// Replays canonicalize() on a converged boot of `base` and
/// replay_schedule() of the default schedule, each under its own span.
/// Returns the replayed default-schedule hash (0 on failure).
uint64_t replay_explore_calls(RunContext& context, const mfv::emu::Emulation& base);

/// One-shot daemon pass (upload, snapshot, fork, pairwise, differential)
/// for workloads that do not run the daemon themselves.
void probe_daemon(RunContext& context, const mfv::emu::Topology& topology,
                  const std::vector<mfv::scenario::Perturbation>& perturbations,
                  const std::optional<mfv::net::Ipv4Prefix>& scope);

/// Derives every per-layer metric from the spans and samples of the run
/// and appends them to the report; also prints the self-time table.
void emit_layer_metrics(RunContext& context);

/// Names and units of the per-layer metrics, in report order.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs();

}  // namespace mfvbench
