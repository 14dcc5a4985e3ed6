// Scenario engine: incremental what-if sweeps from a converged base.
//
// The paper's headline limitation (§6) is that exhaustive what-if search is
// "overly compute intensive": one emulation per scenario, each re-booted
// and re-converged from a cold start. But scenarios share almost all of
// that work — the converged base. This engine snapshots the base once,
// then per scenario forks the full emulation state (Emulation::fork),
// applies a perturbation delta, runs only the *incremental* re-convergence,
// and verifies the resulting gnmi::Snapshot pairwise, splicing the answer
// from the base's captured one (verify/incremental).
// Scenarios shard across util::parallel_for_shards' per-call threads;
// every fork is an independent emulation, so workers share nothing
// mutable.
//
// VerifiedState's boot and fork builders are the one implementation of
// converge → capture → compile, shared by the runner, api::Session and the
// service's snapshot store (DESIGN.md §6).
//
// The soundness argument — a forked-and-reconverged snapshot is
// byte-identical to a cold boot that reaches the same converged state and
// then takes the same perturbation — is proven per perturbation kind in
// tests/test_scenario_fork.cpp and spelled out in DESIGN.md.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "emu/emulation.hpp"
#include "emu/topology.hpp"
#include "gnmi/gnmi.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/incremental/incremental.hpp"
#include "verify/queries.hpp"
#include "verify/trace_cache.hpp"

namespace mfv::scenario {

/// Takes one link down.
struct LinkCut {
  net::PortRef a;
  net::PortRef b;
};

/// Brings a link back up (one cut earlier in the same scenario, or down in
/// the base).
struct LinkRestore {
  net::PortRef a;
  net::PortRef b;
};

/// Replaces one node's running configuration (the E1 "config delta" case).
struct ConfigReplace {
  net::NodeName node;
  std::string config_text;
  config::Vendor vendor = config::Vendor::kCeos;
};

/// An external BGP peer withdraws routes (empty = everything it advertised).
struct RouteWithdraw {
  std::string peer;
  std::vector<net::Ipv4Prefix> prefixes;
};

using Perturbation = std::variant<LinkCut, LinkRestore, ConfigReplace, RouteWithdraw>;

std::string perturbation_to_string(const Perturbation& perturbation);

/// Wire forms for the service protocol (mfv::service fork_scenario verb).
/// The JSON round-trip is lossless — unlike perturbation_to_string, it
/// carries full content (config text, vendor, prefix lists), so it is also
/// the canonical byte string the snapshot store hashes into delta keys.
util::Json perturbation_to_json(const Perturbation& perturbation);
util::Result<Perturbation> perturbation_from_json(const util::Json& json);
/// Parses a JSON array of perturbations; fails on the first invalid one.
util::Result<std::vector<Perturbation>> perturbations_from_json(const util::Json& json);

/// How the VerifiedState builders converge and index a state.
struct BuildOptions {
  /// Emulation settings of a boot (a fork inherits its base's).
  emu::EmulationOptions emulation;
  /// Event budget of the build's convergence run.
  uint64_t max_events = 100000000ull;
  /// Registry the state's TraceCache mirrors its counters into.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One converged network state, ready to query. Immutable once built, so
/// const queries on it may run concurrently.
struct VerifiedState {
  /// Quiescent emulation; the fork() source for further what-ifs (null for
  /// imported and model-based snapshots).
  std::unique_ptr<emu::Emulation> emulation;
  /// Compiled dataplane; owns the captured snapshot (graph->snapshot()).
  std::unique_ptr<verify::ForwardingGraph> graph;
  /// Thread-safe memoization over `graph`, shared by every query on it.
  std::unique_ptr<verify::TraceCache> cache;
  /// Virtual time of the build's convergence: a boot's converged_at(), a
  /// fork's reconvergence (fork → quiescence).
  util::Duration convergence_time;
  /// Events the build's convergence run executed.
  uint64_t events = 0;
  /// Control-plane messages the emulation has delivered in all.
  uint64_t messages = 0;

  /// The compile step every builder shares: indexes `snapshot` into a
  /// graph and its cache. No emulation, zero convergence statistics.
  static VerifiedState compile(gnmi::Snapshot snapshot,
                               obs::MetricsRegistry* metrics = nullptr);
  /// Captures a quiescent emulation's AFTs as snapshot `name` and compiles
  /// them. The emulation is only read, not taken.
  static VerifiedState capture(const emu::Emulation& emulation, const std::string& name,
                               obs::MetricsRegistry* metrics = nullptr);
  /// Boots `topology` to convergence and captures it as `name`. Fails
  /// with the topology's own status when it does not load, and INTERNAL
  /// when the event budget runs out.
  static util::Result<VerifiedState> boot(const emu::Topology& topology,
                                          const std::string& name,
                                          const BuildOptions& options = {});
  /// Forks `base`, applies `perturbations` in order, reconverges and
  /// captures the result as `name`. Fails with FAILED_PRECONDITION when
  /// `base` is not quiescent, NOT_FOUND (naming the first missing target)
  /// before converging, and INTERNAL when the event budget runs out.
  static util::Result<VerifiedState> fork(const emu::Emulation& base,
                                          const std::vector<Perturbation>& perturbations,
                                          const std::string& name,
                                          const BuildOptions& options = {});
};

/// One what-if scenario: a named list of deltas applied to the base.
struct Scenario {
  std::string name;
  std::vector<Perturbation> perturbations;
};

struct ScenarioResult {
  std::string name;
  /// False when a perturbation target did not exist (unknown link, node,
  /// or peer); the scenario then neither converged nor carries an answer.
  bool applied = false;
  /// False when the scenario did not apply, or re-convergence exceeded
  /// the event budget. Only a converged scenario carries an answer.
  bool converged = false;
  /// Virtual time the incremental re-convergence took (fork → quiescence).
  util::Duration reconvergence;
  /// Events executed during re-convergence (the work a cold boot repeats).
  uint64_t events = 0;
  /// Perturbed dataplane (empty when keep_snapshots is off).
  gnmi::Snapshot snapshot;
  /// Loopback-to-loopback matrix of the perturbed network.
  verify::PairwiseResult pairwise;
  /// Base-reachable pairs this scenario breaks.
  size_t broken_pairs = 0;
  /// Dirty/splice/fallback accounting of the spliced pairwise query.
  verify::IncrementalStats incremental;
};

struct ScenarioRunnerOptions {
  /// Worker threads for the scenario sweep: 0 = hardware concurrency,
  /// 1 = serial. Results are identical for every thread count (scenarios
  /// write into shard-indexed slots; see util::parallel_for_shards).
  unsigned threads = 0;
  /// Event budget per scenario re-convergence.
  uint64_t max_events = 100000000ull;
  /// Keep each scenario's snapshot in its result (turn off for very large
  /// sweeps where only the verdict matters).
  bool keep_snapshots = true;
  /// Ignored: every scenario's pairwise query splices from the base's
  /// captured answer (verify/incremental). The field stays only because
  /// the benchmark harness still assigns it (mfvbench/sweep.cpp,
  /// mfvbench/layers.cpp) and goes together with those assignments.
  bool incremental = false;
  /// Options for the per-scenario verify queries. One thread per query
  /// by default: parallelism comes from scenario sharding, and nesting
  /// pools inside workers oversubscribes the machine.
  verify::QueryOptions verify = [] {
    verify::QueryOptions options;
    options.threads = 1;
    return options;
  }();
  /// Optional metrics sink for the scenario_* family: forks taken,
  /// fork depth (perturbations per scenario) and reconvergence virtual
  /// time as histograms, re-convergence events, and the process-wide
  /// CoW clone delta across the sweep. nullptr = no instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Forks a converged base emulation per scenario and verifies the results.
class ScenarioRunner {
 public:
  /// Snapshots and indexes the converged base. The base must be quiescent
  /// (kernel idle) — run() fails otherwise — and must outlive the runner
  /// and stay untouched while sweeps execute.
  explicit ScenarioRunner(const emu::Emulation& base, ScenarioRunnerOptions options = {});

  const gnmi::Snapshot& base_snapshot() const { return base_state_.graph->snapshot(); }
  const verify::PairwiseResult& base_pairwise() const { return base_pairwise_; }

  /// Builds every scenario with VerifiedState::fork and verifies the
  /// converged ones, sharded across workers. Slot i of the returned
  /// vector is scenario i.
  util::Result<std::vector<ScenarioResult>> run(const std::vector<Scenario>& scenarios) const;

  /// Applies one perturbation to an emulation; false if its target does
  /// not exist. Shared with the cold-boot paths (benches, the equivalence
  /// test) so both pipelines perturb identically.
  static bool apply(emu::Emulation& emulation, const Perturbation& perturbation);

 private:
  const emu::Emulation& base_;
  ScenarioRunnerOptions options_;
  bool base_idle_ = false;
  /// The base's captured dataplane (its emulation stays with the caller).
  VerifiedState base_state_;
  /// The base's pairwise answer in splice-ready form; immutable after the
  /// constructor, shared read-only across shards.
  std::unique_ptr<verify::IncrementalBase> incremental_base_;
  verify::PairwiseResult base_pairwise_;
};

// ---------------------------------------------------------------------------
// Sweep builders

/// One scenario per link: the A3 single-cut sweep.
std::vector<Scenario> single_link_cuts(const emu::Topology& topology);

/// Every k-combination of link cuts — the exponential sweep the paper
/// calls "overly compute intensive" per cold-boot scenario; tractable when
/// each combination is a fork plus an incremental re-convergence.
std::vector<Scenario> k_link_cuts(const emu::Topology& topology, size_t k);

}  // namespace mfv::scenario
