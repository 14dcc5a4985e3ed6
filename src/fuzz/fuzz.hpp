// Differential fuzzing harness: seed-replayable random cases driven
// against the pipeline's equivalence oracles.
//
// The verifier's trustworthiness rests on a stack of "these two ways of
// computing the same thing agree" claims: the memoized sweep engine
// matches independent per-flow trace_flow walks, a forked emulation
// matches a cold boot, a snapshot-store hit matches a rebuild, and a
// written config parses back to the text that was written. Each claim is proven on
// hand-picked examples in the unit tests; this module hunts for the
// examples nobody picked. A FuzzCase is fully materialized — topology
// with config bytes, perturbation sequence, or a synthetic adversarial
// dataplane — so any case (and any minimized repro) replays exactly from
// its JSON form with no dependence on generator internals.
//
// See DESIGN.md §8 for the oracle definitions and the minimizer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "emu/topology.hpp"
#include "gnmi/gnmi.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace mfv::fuzz {

/// How the case's network came to be.
enum class Mode {
  /// Generated WAN topology, emulated to convergence. Exercises the
  /// emulation-dependent oracles (fork, store) and the config dialects.
  kWan,
  /// Directly constructed adversarial dataplane snapshot — forwarding
  /// loops, multi-label MPLS cycles, ECMP fans, ACL drops — with no
  /// emulation behind it. Orders of magnitude faster per iteration and
  /// reaches dataplane shapes a converged control plane never emits.
  kSynthetic,
};

std::string mode_name(Mode mode);

/// Oracle bits (maskable so the CLI can run one family in isolation).
enum Oracle : uint32_t {
  /// reachability + detect_loops: the memoized engine at 1 and at 4
  /// threads must reproduce per-flow trace_flow walks (caps lifted) over
  /// every (source, class) pair, row for row.
  kOracleEngines = 1u << 0,
  /// Emulation::fork + perturb + re-converge vs cold boot + identical
  /// perturbations: byte-identical snapshot JSON.
  kOracleFork = 1u << 1,
  /// SnapshotStore cache hit vs independent rebuild of the same key:
  /// byte-identical snapshot JSON, for base and forked keys.
  kOracleStore = 1u << 2,
  /// Config dialect round-trips (write∘parse fixpoint in both dialects)
  /// plus address-literal canonicalization: any literal the parser
  /// accepts must round-trip byte-identically through to_string().
  kOracleDialect = 1u << 3,
  /// Sharded event kernel vs serial kernel: boot + perturb + re-converge
  /// with EmulationOptions::shards > 1 must produce byte-identical
  /// snapshot JSON and identical message/event/clock counters.
  kOracleSharded = 1u << 4,
  /// Incremental re-verification vs cold: the splicing engine
  /// (verify/incremental, seeded with the base's captured pairwise answer)
  /// must reproduce the cold pairwise cells byte for byte. WAN cases
  /// splice the fork after perturb + re-converge; synthetic cases splice
  /// each single edit of the snapshot (interface state, packet filters,
  /// FIB and label entries, addresses), enumerated from the snapshot
  /// itself.
  kOracleIncremental = 1u << 5,
  /// Exhaustive exploration soundness (src/explore): jitter-sampled
  /// converged states of the case's topology must canonicalize into the
  /// exhaustively explored, deduped state set. Sampled jitter stays below
  /// the addressed-message latency, so sampling can only flip delivery
  /// pairs the exploration branches on. Skips (passes) when the topology
  /// is too large or the exploration hit a cap — membership is only a
  /// theorem for complete enumerations.
  kOracleExplore = 1u << 6,
  /// Incremental FIB compile and IS-IS diff install vs full rebuilds:
  /// after boot and after each perturbation's re-convergence (on a fork),
  /// every router's exported tables (default instance, VRF instances,
  /// label entries) must equal a from-scratch compile of its RIBs, and its
  /// IS-IS routes must equal a full replace_protocol reinstall of its last
  /// SPF run.
  kOracleFib = 1u << 7,

  kOracleAll = kOracleEngines | kOracleFork | kOracleStore | kOracleDialect |
               kOracleSharded | kOracleIncremental | kOracleExplore | kOracleFib,
};

std::string oracle_name(uint32_t oracle);
/// Parses an oracle name ("engines", "fork", ..., "fib") or "all".
std::optional<uint32_t> parse_oracle(std::string_view name);

/// One self-contained fuzz case. Exactly one of topology/snapshot is
/// populated (by mode); literals ride along in either mode.
struct FuzzCase {
  uint64_t seed = 0;
  Mode mode = Mode::kSynthetic;

  /// kWan: materialized topology (config bytes included) and the
  /// perturbation sequence applied on top of the converged base.
  emu::Topology topology;
  std::vector<scenario::Perturbation> perturbations;

  /// kSynthetic: the adversarial dataplane.
  gnmi::Snapshot snapshot;

  /// Address/prefix literal strings for the canonicalization check.
  std::vector<std::string> literals;

  /// Oracles this case can exercise, judged by content (a literals-only
  /// case reports just the dialect oracle, etc.).
  uint32_t oracles() const;

  util::Json to_json() const;
  static util::Result<FuzzCase> from_json(const util::Json& json);
  static util::Result<FuzzCase> from_json_text(std::string_view text);
};

/// Deterministically expands `seed` into a case: same seed, same bytes.
FuzzCase generate_case(uint64_t seed);

/// The synthetic adversarial snapshot generator (exposed for tests):
/// random AFTs over a small device set with IP next-hop cycles, MPLS
/// push/swap/pop label cycles, ECMP groups, drops, unresolvable
/// next-hops, and interface ACLs.
gnmi::Snapshot synth_snapshot(uint64_t seed);

}  // namespace mfv::fuzz
