// explore-boot: capped boot exploration of an 8-router WAN with two
// border peers and an iBGP mesh — the only workload that reaches explore's
// branching, canonical hashing and dedup.
#include <algorithm>
#include <set>

#include "explore/explore.hpp"
#include "layers.hpp"
#include "util/hash.hpp"
#include "workload/generator.hpp"

namespace mfvbench {

using namespace mfv;
using Scope = Tracer::Scope;

namespace {

/// Runs per operation: one branch worker makes a capped exploration
/// deterministic, and this cap makes each operation one fixed piece of
/// work of roughly 100-300 ms on the reference host.
constexpr uint64_t kMaxRuns = 48;
/// Set-ups timed in each of the two batches (one takes about 4 ms).
constexpr int kSetupsPerBatch = 5;

/// Generator seed of the explored WAN (the generator's default), fixed so
/// every run explores the same network: across generator seeds a run's
/// peak memory ranged from 6.6 to 8.9 MB. The run seed picks the off-path
/// cut of a traced run.
constexpr uint64_t kWanSeed = 1;

struct ExploreSetup {
  emu::Topology topology;
  std::unique_ptr<emu::Emulation> base;  // constructed, never started
  uint64_t default_hash = 0;
};

std::unique_ptr<ExploreSetup> setup_explore(RunContext& context) {
  auto setup = std::make_unique<ExploreSetup>();
  workload::WanOptions wan;
  wan.routers = context.args.smoke ? 4 : 8;
  wan.seed = kWanSeed;
  wan.border_count = 2;
  wan.routes_per_peer = context.args.smoke ? 2 : 4;
  wan.ibgp_mesh = true;
  setup->topology = workload::wan_topology(wan);
  setup->base = std::make_unique<emu::Emulation>();
  {
    Scope span(context.tracer, "config.parse", 0);
    util::Status added = setup->base->add_topology(setup->topology);
    if (!added.ok()) {
      context.report.fail("explore topology rejected: " + added.to_string());
      return nullptr;
    }
  }
  // The base boot of this workload: the default delivery schedule, whose
  // hash every exploration must contain.
  setup->default_hash = replay_explore_calls(context, *setup->base);
  if (setup->default_hash == 0) return nullptr;
  return setup;
}

}  // namespace

void run_explore(RunContext& context) {
  Tracer* tracer = context.tracer;
  std::unique_ptr<ExploreSetup> setup;
  Setups setups(context, [&] { setup.reset(); }, [&] { setup = setup_explore(context); });
  setups.run(kSetupsPerBatch);
  if (setup == nullptr) return;

  explore::ExploreInput input;
  input.base = setup->base.get();
  input.start = true;
  explore::ExploreOptions options;
  options.threads = 1;
  options.max_runs = context.args.smoke ? 8 : kMaxRuns;

  // The warm-up exploration fixes the reference: every later one must
  // reach exactly the same state hashes after the same number of runs.
  std::set<std::string> reference;
  uint64_t reference_runs = 0;
  std::string default_state;
  auto op = [&](unsigned, uint64_t index) {
    Scope span(context.tracer, "explore.op", index + 1);
    Clock::time_point start = Clock::now();
    Scope call(context.tracer, "explore.explore", index + 1, span.id());
    util::Result<explore::ExploreResult> result = explore::explore(input, options);
    call.end();
    if (!result.ok()) {
      context.report.fail("op " + std::to_string(index) + ": " + result.status().to_string());
      return false;
    }
    sample_explore(context, {result->runs, result->unique_states, result->por_skipped_branches},
                   ms_since(start));
    std::set<std::string> hashes;
    for (const explore::StateSummary& state : result->states) hashes.insert(state.hash);
    if (index == 0) {
      reference = hashes;
      reference_runs = result->runs;
      context.report.record("explore_events_per_op", std::to_string(result->events_total));
      for (const explore::StateSummary& state : result->states)
        if (std::all_of(state.schedule.begin(), state.schedule.end(),
                        [](uint32_t choice) { return choice == 0; }))
          default_state = state.hash;
      return true;
    }
    if (hashes != reference || result->runs != reference_runs) {
      context.report.fail("op " + std::to_string(index) +
                          ": exploration reached a different state set than the first");
      return false;
    }
    return true;
  };

  std::atomic<uint64_t> next{0};
  const uint64_t warmup = 1;
  context.tracer = nullptr;
  op(0, next.fetch_add(1));
  context.report.record("ops_warmup", std::to_string(warmup));
  if (tracer == nullptr)
    emit_end_to_end(context, timed_phase(1, context.args.seconds, next, op));
  else
    traced_phases(context, tracer, 1, context.args.seconds, next, op);
  context.report.attempt(next.load());

  // Replaying the default schedule reproduces the default state's hash.
  uint64_t replayed = replay_explore_calls(context, *setup->base);
  std::string replayed_hex = util::hex64(context.args.corrupt ? replayed ^ 1 : replayed);
  if (default_state.empty() || replayed_hex != default_state ||
      reference.count(replayed_hex) == 0)
    context.report.fail("default schedule replays to " + replayed_hex +
                        ", exploration recorded " + default_state);
  context.report.record("correctness_samples", "1");

  if (tracer != nullptr) {
    replay_explore_calls(context, *setup->base);
    // Off the exploration's path, for the full per-layer set: a boot, a
    // forked link cut and a daemon pass on the same WAN.
    context.report.record("off_path", "emu.* gnmi.* verify.* scenario.init_ms service.*");
    LayerInput input;
    input.topology = &setup->topology;
    const std::vector<emu::LinkSpec>& links = setup->topology.links;
    const emu::LinkSpec& link = links[mix_seed(context.args.seed, 4) % links.size()];
    input.fork_ops = {{scenario::LinkCut{link.a, link.b}}};
    input.verify.metrics = &tracer->registry();
    replay_layers(context, input);
    probe_daemon(context, setup->topology, input.fork_ops[0], std::nullopt);
    return;
  }
  // Last, as it replaces the set-up everything above refers to.
  setups.run(kSetupsPerBatch);
  setups.emit();
}

}  // namespace mfvbench
