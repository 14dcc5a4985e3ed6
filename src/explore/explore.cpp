#include "explore/explore.hpp"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "gnmi/gnmi.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/queries.hpp"

namespace mfv::explore {

namespace {

/// What one branch execution produced.
struct RunOutcome {
  CanonicalState state;
  gnmi::Snapshot snapshot;
  std::vector<uint32_t> schedule;
  std::vector<uint32_t> fanouts;
  std::vector<std::string> deliveries;
  bool truncated = false;
  bool converged = true;
  uint64_t events = 0;
  emu::EventKernel::ControlledRunStats stats;
};

/// Executes one schedule: fork the base, boot/perturb, run controlled.
util::Result<RunOutcome> run_branch(const ExploreInput& input,
                                    const std::vector<uint32_t>& prefix,
                                    const ExploreOptions& options) {
  std::unique_ptr<emu::Emulation> emulation = input.base->fork();
  if (emulation == nullptr)
    return util::failed_precondition(
        "explore: base emulation is not forkable (kernel not idle)");
  if (input.start) emulation->start_all();
  for (const scenario::Perturbation& perturbation : input.perturbations)
    scenario::ScenarioRunner::apply(*emulation, perturbation);

  RunOutcome out;
  size_t k = 0;
  const emu::Emulation* emu_ptr = emulation.get();
  auto chooser = [&](const std::vector<emu::EventKernel::RaceCandidate>& candidates)
      -> size_t {
    if (k >= options.max_choice_points) {
      out.truncated = true;
      return 0;
    }
    uint32_t pick = k < prefix.size() ? prefix[k] : 0;
    if (pick >= candidates.size()) pick = 0;
    out.schedule.push_back(pick);
    out.fanouts.push_back(static_cast<uint32_t>(candidates.size()));
    const emu::EventKernel::RaceCandidate& chosen = candidates[pick];
    std::string desc = "from=" + emu_ptr->actor_name(chosen.from);
    desc += " to=" + emu_ptr->actor_name(chosen.owner);
    desc += " dest=" +
            net::Ipv4Address(static_cast<uint32_t>(chosen.channel)).to_string();
    desc += " t=" + std::to_string(chosen.key.when.count_micros()) + "us";
    desc += " alt=" + std::to_string(pick) + "/" + std::to_string(candidates.size());
    out.deliveries.push_back(std::move(desc));
    ++k;
    return pick;
  };

  uint64_t before = emulation->kernel().executed();
  out.converged =
      emulation->kernel().run_controlled(chooser, &out.stats, options.max_events_per_run);
  out.events = emulation->kernel().executed() - before;
  out.state = canonicalize(*emulation);
  out.snapshot = gnmi::Snapshot::capture(*emulation, "explore");
  return out;
}

/// Length-then-lexicographic schedule order: the canonical representative
/// schedule per state is the smallest one, making summaries deterministic
/// across worker counts.
bool schedule_less(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

/// Per-unique-state bookkeeping during the search.
struct StateInfo {
  uint64_t occurrences = 0;
  std::vector<uint32_t> schedule;
  std::vector<std::string> deliveries;
  gnmi::Snapshot snapshot;
};

/// A reachability row in cross-state comparable form.
struct Cell {
  net::NodeName source;
  uint32_t first = 0;
  uint32_t last = 0;
  bool success = false;
  std::string rendered;  // "source|first-last|dispositions"
};

std::vector<Cell> cells_of(const verify::ReachabilityResult& result) {
  std::vector<Cell> cells;
  cells.reserve(result.rows.size());
  for (const verify::ReachabilityRow& row : result.rows) {
    Cell cell;
    cell.source = row.source;
    cell.first = row.destination.first.bits();
    cell.last = row.destination.last.bits();
    cell.success = !row.dispositions.any_failure();
    cell.rendered = row.source + "|" + row.destination.first.to_string() + "-" +
                    row.destination.last.to_string() + "|" +
                    row.dispositions.to_string();
    cells.push_back(std::move(cell));
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.rendered < b.rendered; });
  return cells;
}

util::Json schedule_to_json(const std::vector<uint32_t>& schedule) {
  util::Json array = util::Json::array();
  for (uint32_t choice : schedule) array.push_back(util::Json(static_cast<int64_t>(choice)));
  return array;
}

}  // namespace

util::Json Witness::to_json() const {
  util::Json json = util::Json::object();
  json["choices"] = schedule_to_json(choices);
  util::Json delivery_array = util::Json::array();
  for (const std::string& delivery : deliveries) delivery_array.push_back(util::Json(delivery));
  json["deliveries"] = std::move(delivery_array);
  json["state_hash"] = state_hash;
  return json;
}

util::Result<Witness> Witness::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("witness: not an object");
  Witness witness;
  const util::Json* choices = json.find("choices");
  if (choices == nullptr || !choices->is_array())
    return util::invalid_argument("witness: missing choices array");
  for (const util::Json& choice : choices->as_array()) {
    int64_t value = choice.as_int();
    if (value < 0) return util::invalid_argument("witness: negative choice");
    witness.choices.push_back(static_cast<uint32_t>(value));
  }
  if (const util::Json* deliveries = json.find("deliveries");
      deliveries != nullptr && deliveries->is_array())
    for (const util::Json& delivery : deliveries->as_array())
      witness.deliveries.push_back(delivery.as_string());
  if (const util::Json* hash = json.find("state_hash")) witness.state_hash = hash->as_string();
  return witness;
}

util::Json PropertyReport::to_json() const {
  util::Json json = util::Json::object();
  json["property"] = property;
  json["holds_on_all"] = holds_on_all;
  json["failing_states"] = static_cast<int64_t>(failing_states);
  if (!detail.empty()) json["detail"] = detail;
  if (witness) json["witness"] = witness->to_json();
  return json;
}

bool ExploreResult::contains(const CanonicalState& state) const {
  std::string hex = util::hex64(state.hash);
  for (const StateSummary& summary : states) {
    if (summary.hash != hex) continue;
    if (summary.bytes.empty() || summary.bytes == state.bytes) return true;
  }
  return false;
}

util::Json ExploreResult::to_json() const {
  util::Json json = util::Json::object();
  json["runs"] = static_cast<int64_t>(runs);
  json["unique_states"] = static_cast<int64_t>(unique_states);
  json["dedup_hits"] = static_cast<int64_t>(dedup_hits);
  json["hash_collisions"] = static_cast<int64_t>(hash_collisions);
  json["choice_points"] = static_cast<int64_t>(choice_points);
  json["candidate_total"] = static_cast<int64_t>(candidate_total);
  json["por_skipped_branches"] = static_cast<int64_t>(por_skipped_branches);
  json["naive_interleavings"] = static_cast<int64_t>(naive_interleavings);
  json["truncated_runs"] = static_cast<int64_t>(truncated_runs);
  json["complete"] = complete;
  json["events_total"] = static_cast<int64_t>(events_total);
  util::Json state_array = util::Json::array();
  for (const StateSummary& summary : states) {
    util::Json entry = util::Json::object();
    entry["hash"] = summary.hash;
    entry["occurrences"] = static_cast<int64_t>(summary.occurrences);
    entry["schedule"] = schedule_to_json(summary.schedule);
    state_array.push_back(std::move(entry));
  }
  json["states"] = std::move(state_array);
  util::Json property_array = util::Json::array();
  for (const PropertyReport& report : properties) property_array.push_back(report.to_json());
  json["properties"] = std::move(property_array);
  return json;
}

util::Result<ExploreResult> explore(const ExploreInput& input,
                                    const ExploreOptions& options) {
  if (input.base == nullptr) return util::invalid_argument("explore: null base emulation");
  if (!input.base->kernel().idle())
    return util::failed_precondition("explore: base kernel must be idle");

  // Shared search state. Workers pull schedule prefixes, run whole
  // branches outside the lock, and push extensions back.
  std::mutex mutex;
  std::condition_variable work_ready;
  std::vector<std::vector<uint32_t>> queue;
  queue.push_back({});
  size_t active = 0;
  bool capped = false;  // a cap stopped expansion; result.complete = false
  util::Status first_error = util::Status();

  ExploreResult result;
  StateSet set;
  std::map<size_t, StateInfo> info;
  uint64_t scheduled_runs = 1;  // queued + executed (caps expansion)

  auto worker = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      while (queue.empty() && active > 0 && first_error.ok()) work_ready.wait(lock);
      if (queue.empty() || !first_error.ok()) {
        work_ready.notify_all();
        return;
      }
      std::vector<uint32_t> prefix = std::move(queue.back());
      queue.pop_back();
      ++active;
      lock.unlock();

      util::Result<RunOutcome> outcome = run_branch(input, prefix, options);

      lock.lock();
      --active;
      if (!outcome.ok()) {
        if (first_error.ok()) first_error = outcome.status();
        work_ready.notify_all();
        return;
      }
      RunOutcome& run = *outcome;
      ++result.runs;
      result.choice_points += run.stats.choice_points;
      result.candidate_total += run.stats.candidate_total;
      result.por_skipped_branches += run.stats.commuting_skipped;
      result.events_total += run.events;
      if (run.truncated) {
        ++result.truncated_runs;
        capped = true;
      }
      if (!run.converged) capped = true;

      StateSet::Insert inserted = set.insert(run.state);
      StateInfo& state_info = info[inserted.id];
      ++state_info.occurrences;
      if (inserted.inserted) {
        state_info.schedule = run.schedule;
        state_info.deliveries = run.deliveries;
        state_info.snapshot = std::move(run.snapshot);
      } else {
        ++result.dedup_hits;
        if (schedule_less(run.schedule, state_info.schedule)) {
          state_info.schedule = run.schedule;
          state_info.deliveries = run.deliveries;
        }
      }

      // Chess-style frontier extension: alternatives at every choice
      // point past this run's prefix. Positions inside the prefix were
      // branched by whoever enqueued it.
      bool full = set.size() >= options.max_states;
      if (full) capped = true;
      for (size_t k = prefix.size(); !full && k < run.fanouts.size(); ++k) {
        for (uint32_t alt = 1; alt < run.fanouts[k]; ++alt) {
          if (scheduled_runs >= options.max_runs) {
            capped = true;
            break;
          }
          std::vector<uint32_t> extension(run.schedule.begin(),
                                          run.schedule.begin() + static_cast<long>(k));
          extension.push_back(alt);
          queue.push_back(std::move(extension));
          ++scheduled_runs;
        }
      }
      work_ready.notify_all();
    }
  };

  unsigned threads = options.threads == 0 ? util::ThreadPool::default_threads()
                                          : options.threads;
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }
  if (!first_error.ok()) return first_error;

  result.unique_states = set.size();
  result.hash_collisions = set.collisions();
  result.complete = !capped;
  result.naive_interleavings = result.runs + result.por_skipped_branches;

  // Deterministic output order: states sorted by canonical hash (ids were
  // assigned in racy completion order under multiple workers).
  std::vector<size_t> order;
  order.reserve(set.size());
  for (size_t id = 0; id < set.size(); ++id) order.push_back(id);
  std::sort(order.begin(), order.end(), [&set](size_t a, size_t b) {
    const CanonicalState& sa = set.state(a);
    const CanonicalState& sb = set.state(b);
    if (sa.hash != sb.hash) return sa.hash < sb.hash;
    return sa.bytes < sb.bytes;
  });
  for (size_t id : order) {
    StateSummary summary;
    summary.hash = util::hex64(set.state(id).hash);
    summary.occurrences = info[id].occurrences;
    summary.schedule = info[id].schedule;
    if (options.keep_state_bytes) summary.bytes = set.state(id).bytes;
    result.states.push_back(std::move(summary));
  }

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options.metrics;
    registry.counter("explore_runs").add(result.runs);
    registry.counter("explore_unique_states").add(result.unique_states);
    registry.counter("explore_dedup_hits").add(result.dedup_hits);
    registry.counter("explore_por_skipped").add(result.por_skipped_branches);
    registry.counter("explore_hash_collisions").add(result.hash_collisions);
    registry.counter("explore_truncated_runs").add(result.truncated_runs);
    static const std::vector<int64_t> depth_boundaries{0, 1, 2, 4, 8, 16, 32, 64};
    obs::Histogram& depth = registry.histogram("explore_choice_points_per_run",
                                               depth_boundaries);
    // One aggregate observation per run is enough signal at far lower
    // cost than per-run tracking through the worker lock.
    depth.observe(result.runs > 0
                      ? static_cast<int64_t>(result.choice_points / result.runs)
                      : 0);
    registry.counter("explore_events").add(result.events_total);
  }

  if (!options.verify_properties || result.states.empty()) return result;

  // -- property evaluation, once per unique state ---------------------------
  std::vector<std::unique_ptr<verify::ForwardingGraph>> graphs;
  graphs.reserve(order.size());
  for (size_t id : order)
    graphs.push_back(std::make_unique<verify::ForwardingGraph>(std::move(info[id].snapshot)));

  verify::QueryOptions query;
  query.scope = options.scope;
  query.threads = options.verify_threads == 0 ? 1 : options.verify_threads;
  query.metrics = options.metrics;

  std::vector<std::vector<Cell>> state_cells(order.size());
  std::vector<bool> state_loops(order.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    state_cells[i] = cells_of(verify::reachability(*graphs[i], query));
    state_loops[i] = !verify::detect_loops(*graphs[i], query).rows.empty();
  }

  auto witness_for = [&](size_t sorted_index) {
    Witness witness;
    size_t id = order[sorted_index];
    witness.choices = info[id].schedule;
    witness.deliveries = info[id].deliveries;
    witness.state_hash = util::hex64(set.state(id).hash);
    return witness;
  };

  // loop_free: no state may contain a forwarding loop.
  PropertyReport loop_report;
  loop_report.property = "loop_free";
  for (size_t i = 0; i < order.size(); ++i) {
    if (!state_loops[i]) continue;
    loop_report.holds_on_all = false;
    ++loop_report.failing_states;
    if (!loop_report.witness) {
      loop_report.witness = witness_for(i);
      loop_report.detail = "state " + loop_report.witness->state_hash +
                           " contains a forwarding loop";
    }
  }
  result.properties.push_back(std::move(loop_report));

  // blackhole_free: a flow must not fail in one converged state while
  // another state delivers it (the racy black-hole A2 can only sample
  // for). Interval overlap per source across states.
  PropertyReport blackhole_report;
  blackhole_report.property = "blackhole_free";
  for (size_t i = 0; i < order.size() && blackhole_report.failing_states < order.size();
       ++i) {
    bool failing = false;
    std::string detail;
    for (const Cell& cell : state_cells[i]) {
      if (cell.success) continue;
      for (size_t j = 0; j < order.size() && !failing; ++j) {
        if (j == i) continue;
        for (const Cell& other : state_cells[j]) {
          if (!other.success || other.source != cell.source) continue;
          if (other.first > cell.last || other.last < cell.first) continue;
          failing = true;
          detail = cell.rendered + " fails but delivers in state " +
                   util::hex64(set.state(order[j]).hash);
          break;
        }
      }
      if (failing) break;
    }
    if (!failing) continue;
    blackhole_report.holds_on_all = false;
    ++blackhole_report.failing_states;
    if (!blackhole_report.witness) {
      blackhole_report.witness = witness_for(i);
      blackhole_report.detail = detail;
    }
  }
  result.properties.push_back(std::move(blackhole_report));

  // forwarding_stable: every reachable converged state answers every flow
  // identically (differential across the state set; reference = state 0).
  PropertyReport stable_report;
  stable_report.property = "forwarding_stable";
  for (size_t i = 1; i < order.size(); ++i) {
    if (state_cells[i].size() == state_cells[0].size()) {
      size_t diff = state_cells[0].size();
      for (size_t c = 0; c < state_cells[0].size(); ++c) {
        if (state_cells[i][c].rendered != state_cells[0][c].rendered) {
          diff = c;
          break;
        }
      }
      if (diff == state_cells[0].size()) continue;
      if (!stable_report.witness) {
        stable_report.detail = "state " + util::hex64(set.state(order[i]).hash) +
                               " differs: " + state_cells[i][diff].rendered + " vs " +
                               state_cells[0][diff].rendered;
      }
    } else if (!stable_report.witness) {
      stable_report.detail = "state " + util::hex64(set.state(order[i]).hash) +
                             " has a different flow partition than the reference";
    }
    stable_report.holds_on_all = false;
    ++stable_report.failing_states;
    if (!stable_report.witness) stable_report.witness = witness_for(i);
  }
  result.properties.push_back(std::move(stable_report));

  return result;
}

util::Result<CanonicalState> replay_schedule(const ExploreInput& input,
                                             const std::vector<uint32_t>& choices,
                                             const ExploreOptions& options) {
  if (input.base == nullptr) return util::invalid_argument("replay: null base emulation");
  util::Result<RunOutcome> outcome = run_branch(input, choices, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->state);
}

}  // namespace mfv::explore
