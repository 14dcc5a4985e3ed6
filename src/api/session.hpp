// Top-level verification session: the Pybatfish-style front end.
//
// A Session manages named dataplane snapshots and answers verification
// questions against them. Snapshots can be produced by either backend:
//
//   * kModelFree  — the paper's contribution: emulate the control plane
//     (mfv::emu) until convergence, extract AFTs via gNMI, verify those.
//   * kModelBased — the baseline: parse configs with the reference model
//     parser and simulate a dataplane (mfv::model), Batfish-style.
//
// Both produce the same gnmi::Snapshot type, so every query runs
// identically on either — the "drop-in backend" design of §4. Differential
// queries can compare any two snapshots: pre/post change (E1) or
// model-free vs model-based on identical configs (E3).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "emu/emulation.hpp"
#include "gnmi/gnmi.hpp"
#include "model/ibdp.hpp"
#include "scenario/scenario.hpp"
#include "util/status.hpp"
#include "verify/queries.hpp"

namespace mfv::api {

enum class Backend { kModelFree, kModelBased };

std::string backend_name(Backend backend);

struct SessionOptions {
  emu::EmulationOptions emulation;
  model::ModelOptions model;
  /// Cap on emulation events per snapshot (guards divergence).
  uint64_t max_events = 100000000ull;
};

/// Metadata recorded when a snapshot is initialized.
struct SnapshotInfo {
  Backend backend = Backend::kModelFree;
  /// Virtual time at which the dataplane stabilized (model-free only).
  util::Duration convergence_time;
  /// Control-plane messages exchanged (model-free only).
  uint64_t messages = 0;
  /// Parser diagnostics per node (error lines for the vendor parsers,
  /// unrecognized lines for the reference model parser).
  std::map<net::NodeName, config::DiagnosticList> diagnostics;
  /// Reference-parser unrecognized-line count (model-based only).
  size_t unrecognized_lines = 0;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});
  ~Session();

  /// Builds a named snapshot from a topology using the given backend.
  /// Fails if a snapshot with that name exists or the backend fails.
  util::Status init_snapshot(const emu::Topology& topology, const std::string& name,
                             Backend backend = Backend::kModelFree);

  /// Registers an externally produced snapshot (e.g. loaded from JSON).
  util::Status add_snapshot(gnmi::Snapshot snapshot, const std::string& name,
                            SnapshotInfo info = {});

  /// Builds snapshot `name` by forking the live emulation behind
  /// model-free snapshot `base`, applying `perturbations`, and running the
  /// incremental re-convergence — the cheap path for what-if snapshots
  /// (E1's config delta, A3's link cuts) that skips the cold boot the
  /// paper's per-scenario pipeline repeats. The new snapshot keeps its own
  /// live emulation, so it can itself be forked or perturbed further. The
  /// recorded convergence_time is the incremental re-convergence only.
  /// Fails as VerifiedState::fork does, and with INVALID_ARGUMENT for a
  /// base without a live emulation.
  util::Status fork_snapshot(const std::string& base, const std::string& name,
                             const std::vector<scenario::Perturbation>& perturbations);

  bool has_snapshot(const std::string& name) const;
  const gnmi::Snapshot* snapshot(const std::string& name) const;
  const SnapshotInfo* info(const std::string& name) const;
  std::vector<std::string> snapshot_names() const;

  /// The live emulation behind a model-free snapshot (for CLI poking);
  /// nullptr for model-based or imported snapshots.
  emu::Emulation* emulation(const std::string& name);

  // -- questions (Pybatfish-style) --
  util::Result<verify::ReachabilityResult> reachability(
      const std::string& snapshot, const verify::QueryOptions& options = {}) const;
  util::Result<verify::DifferentialResult> differential_reachability(
      const std::string& base, const std::string& candidate,
      const verify::QueryOptions& options = {}) const;
  util::Result<verify::TraceResult> traceroute(const std::string& snapshot,
                                               const net::NodeName& source,
                                               net::Ipv4Address destination) const;
  /// Every query runs on the sharded, memoized engine described in
  /// DESIGN.md §5; options.threads only sets how many class shards run at
  /// once, never the answer.
  util::Result<verify::PairwiseResult> pairwise_reachability(
      const std::string& snapshot, const verify::QueryOptions& options = {}) const;
  util::Result<verify::ReachabilityResult> detect_loops(
      const std::string& snapshot, const verify::QueryOptions& options = {}) const;
  /// Tabular FIB view (Pybatfish `routes()`): all of `node`'s entries, or
  /// the whole snapshot when `node` is empty.
  util::Result<std::vector<verify::RouteRow>> routes(const std::string& snapshot,
                                                     const net::NodeName& node = "") const;

 private:
  /// One named snapshot, built when it is added, so const queries only read
  /// it and may run concurrently. Its cache serves every query that brings
  /// none (each destination class is solved once per *session*).
  struct Entry {
    SnapshotInfo info;
    scenario::VerifiedState state;
  };

  /// Registers a model-free build as `name`, or returns its failure.
  util::Status add_converged(const std::string& name,
                             util::Result<scenario::VerifiedState> state);
  const Entry* find(const std::string& name) const;
  const scenario::VerifiedState* state_for(const std::string& name) const;

  SessionOptions options_;
  std::map<std::string, Entry> snapshots_;
};

}  // namespace mfv::api
