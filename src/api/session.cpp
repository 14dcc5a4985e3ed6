#include "api/session.hpp"

#include "verify/trace_cache.hpp"

namespace mfv::api {

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

  Entry entry;
  entry.info.backend = backend;
  gnmi::Snapshot snapshot;

  if (backend == Backend::kModelFree) {
    auto emulation = std::make_unique<emu::Emulation>(options_.emulation);
    util::Status status = emulation->add_topology(topology);
    if (!status.ok()) return status;
    emulation->start_all();
    if (!emulation->run_to_convergence(options_.max_events))
      return util::internal_error("snapshot '" + name +
                                  "' did not converge within the event budget");
    entry.info.convergence_time =
        emulation->converged_at() - util::TimePoint(0);
    entry.info.messages = emulation->messages_delivered();
    entry.info.diagnostics = emulation->parse_diagnostics();
    snapshot = gnmi::Snapshot::capture(*emulation, name);
    entry.emulation = std::move(emulation);
  } else {
    model::ModelResult result = model::run_model(topology, options_.model);
    snapshot = std::move(result.snapshot);
    entry.info.unrecognized_lines = result.total_unrecognized();
    for (const auto& [node, parse] : result.parse_results)
      entry.info.diagnostics[node] = parse.diagnostics;
  }

  insert(name, std::move(snapshot), std::move(entry));
  return util::Status::ok_status();
}

util::Status Session::fork_snapshot(const std::string& base, const std::string& name,
                                    const std::vector<scenario::Perturbation>& perturbations) {
  if (snapshots_.count(name))
    return util::already_exists("snapshot '" + name + "' already exists");
  auto it = snapshots_.find(base);
  if (it == snapshots_.end()) return util::not_found("no snapshot '" + base + "'");
  if (it->second.emulation == nullptr)
    return util::invalid_argument("snapshot '" + base +
                                  "' has no live emulation to fork (model-based or imported)");
  std::unique_ptr<emu::Emulation> fork = it->second.emulation->fork();
  if (fork == nullptr)
    return util::invalid_argument("snapshot '" + base +
                                  "' emulation is not quiescent; cannot fork");
  util::TimePoint forked_at = fork->kernel().now();
  for (const scenario::Perturbation& perturbation : perturbations)
    if (!scenario::ScenarioRunner::apply(*fork, perturbation))
      return util::not_found("perturbation target missing: " +
                             scenario::perturbation_to_string(perturbation));
  if (!fork->run_to_convergence(options_.max_events))
    return util::internal_error("snapshot '" + name +
                                "' did not re-converge within the event budget");

  Entry entry;
  entry.info.backend = it->second.info.backend;
  entry.info.convergence_time = fork->kernel().now() - forked_at;
  entry.info.messages = fork->messages_delivered();
  entry.info.diagnostics = fork->parse_diagnostics();
  gnmi::Snapshot snapshot = gnmi::Snapshot::capture(*fork, name);
  entry.emulation = std::move(fork);
  insert(name, std::move(snapshot), std::move(entry));
  return util::Status::ok_status();
}

util::Status Session::add_snapshot(gnmi::Snapshot snapshot, const std::string& name,
                                   SnapshotInfo info) {
  if (snapshots_.count(name))
    return util::already_exists("snapshot '" + name + "' already exists");
  Entry entry;
  entry.info = std::move(info);
  insert(name, std::move(snapshot), std::move(entry));
  return util::Status::ok_status();
}

void Session::insert(const std::string& name, gnmi::Snapshot snapshot, Entry entry) {
  snapshot.name = name;
  entry.graph = std::make_unique<verify::ForwardingGraph>(std::move(snapshot));
  entry.cache = std::make_unique<verify::TraceCache>(*entry.graph);
  snapshots_.emplace(name, std::move(entry));
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
  return entry == nullptr ? nullptr : &entry->graph->snapshot();
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
  return it == snapshots_.end() ? nullptr : it->second.emulation.get();
}

const verify::ForwardingGraph* Session::graph_for(const std::string& name) const {
  const Entry* entry = find(name);
  return entry == nullptr ? nullptr : entry->graph.get();
}

verify::TraceCache* Session::cache_for(const std::string& name) const {
  const Entry* entry = find(name);
  return entry == nullptr ? nullptr : entry->cache.get();
}

verify::QueryOptions Session::with_session_caches(const verify::QueryOptions& options,
                                                  const std::string& snapshot,
                                                  const std::string& candidate) const {
  verify::QueryOptions out = options;
  if (out.cache == nullptr) out.cache = cache_for(snapshot);
  if (!candidate.empty() && out.candidate_cache == nullptr)
    out.candidate_cache = cache_for(candidate);
  return out;
}

util::Result<verify::ReachabilityResult> Session::reachability(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const verify::ForwardingGraph* graph = graph_for(snapshot);
  if (graph == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::reachability(*graph, with_session_caches(options, snapshot));
}

util::Result<verify::DifferentialResult> Session::differential_reachability(
    const std::string& base, const std::string& candidate,
    const verify::QueryOptions& options) const {
  const verify::ForwardingGraph* base_graph = graph_for(base);
  if (base_graph == nullptr) return util::not_found("no snapshot '" + base + "'");
  const verify::ForwardingGraph* candidate_graph = graph_for(candidate);
  if (candidate_graph == nullptr)
    return util::not_found("no snapshot '" + candidate + "'");
  return verify::differential_reachability(*base_graph, *candidate_graph,
                                           with_session_caches(options, base, candidate));
}

util::Result<verify::TraceResult> Session::traceroute(const std::string& snapshot,
                                                      const net::NodeName& source,
                                                      net::Ipv4Address destination) const {
  const verify::ForwardingGraph* graph = graph_for(snapshot);
  if (graph == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::trace_flow(*graph, source, destination);
}

util::Result<verify::PairwiseResult> Session::pairwise_reachability(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const verify::ForwardingGraph* graph = graph_for(snapshot);
  if (graph == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::pairwise_reachability(*graph, with_session_caches(options, snapshot));
}

util::Result<verify::ReachabilityResult> Session::detect_loops(
    const std::string& snapshot, const verify::QueryOptions& options) const {
  const verify::ForwardingGraph* graph = graph_for(snapshot);
  if (graph == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::detect_loops(*graph, with_session_caches(options, snapshot));
}

util::Result<std::vector<verify::RouteRow>> Session::routes(
    const std::string& snapshot, const net::NodeName& node) const {
  const verify::ForwardingGraph* graph = graph_for(snapshot);
  if (graph == nullptr) return util::not_found("no snapshot '" + snapshot + "'");
  return verify::routes(*graph, node);
}

}  // namespace mfv::api
