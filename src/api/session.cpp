#include "api/session.hpp"

namespace mfv::api {

namespace {

/// `options` with the session-owned caches filled into empty cache slots.
verify::QueryOptions with_session_caches(const verify::QueryOptions& options,
                                         const scenario::VerifiedState& snapshot,
                                         const scenario::VerifiedState* candidate = nullptr) {
  verify::QueryOptions out = options;
  if (out.cache == nullptr) out.cache = snapshot.cache.get();
  if (candidate != nullptr && out.candidate_cache == nullptr)
    out.candidate_cache = candidate->cache.get();
  return out;
}

}  // namespace

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kModelFree: return "model-free";
    case Backend::kModelBased: return "model-based";
  }
  return "?";
}

Session::Session(SessionOptions options) : options_(std::move(options)) {}
Session::~Session() = default;

util::Status Session::init_snapshot(const emu::Topology& topology, const std::string& name,
                                    Backend backend) {
  if (snapshots_.count(name))
    return util::already_exists("snapshot '" + name + "' already exists");
  if (backend == Backend::kModelFree)
    return add_converged(name, scenario::VerifiedState::boot(
                                   topology, name, {options_.emulation, options_.max_events}));

  model::ModelResult result = model::run_model(topology, options_.model);
  SnapshotInfo info;
  info.backend = backend;
  info.unrecognized_lines = result.total_unrecognized();
  for (const auto& [node, parse] : result.parse_results)
    info.diagnostics[node] = parse.diagnostics;
  return add_snapshot(std::move(result.snapshot), name, std::move(info));
}

util::Status Session::fork_snapshot(const std::string& base, const std::string& name,
                                    const std::vector<scenario::Perturbation>& perturbations) {
  if (snapshots_.count(name))
    return util::already_exists("snapshot '" + name + "' already exists");
  const Entry* entry = find(base);
  if (entry == nullptr) return util::not_found("no snapshot '" + base + "'");
  if (entry->state.emulation == nullptr)
    return util::invalid_argument("snapshot '" + base +
                                  "' has no live emulation to fork (model-based or imported)");
  return add_converged(name, scenario::VerifiedState::fork(
                                 *entry->state.emulation, perturbations, name,
                                 {options_.emulation, options_.max_events}));
}

util::Status Session::add_snapshot(gnmi::Snapshot snapshot, const std::string& name,
                                   SnapshotInfo info) {
  if (snapshots_.count(name))
    return util::already_exists("snapshot '" + name + "' already exists");
  snapshot.name = name;
  snapshots_.emplace(name,
                     Entry{std::move(info), scenario::VerifiedState::compile(std::move(snapshot))});
  return util::Status::ok_status();
}

util::Status Session::add_converged(const std::string& name,
                                    util::Result<scenario::VerifiedState> state) {
  if (!state.ok()) return state.status();
  SnapshotInfo info;
  info.convergence_time = state->convergence_time;
  info.messages = state->messages;
  info.diagnostics = state->emulation->parse_diagnostics();
  snapshots_.emplace(name, Entry{std::move(info), std::move(*state)});
  return util::Status::ok_status();
}

bool Session::has_snapshot(const std::string& name) const {
  return snapshots_.count(name) > 0;
}

const Session::Entry* Session::find(const std::string& name) const {
  auto it = snapshots_.find(name);
  return it == snapshots_.end() ? nullptr : &it->second;
}

const gnmi::Snapshot* Session::snapshot(const std::string& name) const {
  const Entry* entry = find(name);
  return entry == nullptr ? nullptr : &entry->state.graph->snapshot();
}

const SnapshotInfo* Session::info(const std::string& name) const {
  const Entry* entry = find(name);
  return entry == nullptr ? nullptr : &entry->info;
}

std::vector<std::string> Session::snapshot_names() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : snapshots_) names.push_back(name);
  return names;
}

emu::Emulation* Session::emulation(const std::string& name) {
  auto it = snapshots_.find(name);
  return it == snapshots_.end() ? nullptr : it->second.state.emulation.get();
}

const scenario::VerifiedState* Session::state_for(const std::string& name) const {
  const Entry* entry = find(name);
  return entry == nullptr ? nullptr : &entry->state;
}

util::Result<verify::ReachabilityResult> Session::reachability(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const scenario::VerifiedState* state = state_for(snapshot);
  if (state == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::reachability(*state->graph, with_session_caches(options, *state));
}

util::Result<verify::DifferentialResult> Session::differential_reachability(
    const std::string& base, const std::string& candidate,
    const verify::QueryOptions& options) const {
  const scenario::VerifiedState* base_state = state_for(base);
  if (base_state == nullptr) return util::not_found("no snapshot '" + base + "'");
  const scenario::VerifiedState* candidate_state = state_for(candidate);
  if (candidate_state == nullptr)
    return util::not_found("no snapshot '" + candidate + "'");
  return verify::differential_reachability(
      *base_state->graph, *candidate_state->graph,
      with_session_caches(options, *base_state, candidate_state));
}

util::Result<verify::TraceResult> Session::traceroute(const std::string& snapshot,
                                                      const net::NodeName& source,
                                                      net::Ipv4Address destination) const {
  const scenario::VerifiedState* state = state_for(snapshot);
  if (state == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::trace_flow(*state->graph, source, destination);
}

util::Result<verify::PairwiseResult> Session::pairwise_reachability(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const scenario::VerifiedState* state = state_for(snapshot);
  if (state == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::pairwise_reachability(*state->graph, with_session_caches(options, *state));
}

util::Result<verify::ReachabilityResult> Session::detect_loops(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const scenario::VerifiedState* state = state_for(snapshot);
  if (state == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::detect_loops(*state->graph, with_session_caches(options, *state));
}

util::Result<std::vector<verify::RouteRow>> Session::routes(
    const std::string& snapshot, const net::NodeName& node) const {
  const scenario::VerifiedState* state = state_for(snapshot);
  if (state == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::routes(*state->graph, node);
}

}  // namespace mfv::api
