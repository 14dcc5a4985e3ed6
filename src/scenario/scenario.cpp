#include "scenario/scenario.hpp"

#include <functional>
#include <tuple>

#include "util/cow.hpp"
#include "util/thread_pool.hpp"

namespace mfv::scenario {

std::string perturbation_to_string(const Perturbation& perturbation) {
  return std::visit(
      [](const auto& p) -> std::string {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, LinkCut>) {
          return "cut " + p.a.to_string() + " <-> " + p.b.to_string();
        } else if constexpr (std::is_same_v<T, LinkRestore>) {
          return "restore " + p.a.to_string() + " <-> " + p.b.to_string();
        } else if constexpr (std::is_same_v<T, ConfigReplace>) {
          return "replace config of " + p.node;
        } else {
          std::string text = "withdraw from " + p.peer;
          if (p.prefixes.empty()) return text + " (all routes)";
          text += ":";
          for (const net::Ipv4Prefix& prefix : p.prefixes) text += " " + prefix.to_string();
          return text;
        }
      },
      perturbation);
}

namespace {

/// Cells reachable in `base` but not in `fork`: one merge over the two
/// cell lists, which are both source-major in node-name order.
size_t broken_pairs(const verify::PairwiseResult& base, const verify::PairwiseResult& fork) {
  auto key = [](const verify::PairwiseCell& cell) {
    return std::tie(cell.source, cell.destination);
  };
  size_t broken = 0;
  auto b = base.cells.begin();
  for (const verify::PairwiseCell& cell : fork.cells) {
    while (b != base.cells.end() && key(*b) < key(cell)) ++b;
    if (b == base.cells.end()) break;
    if (!cell.reachable && b->reachable && key(*b) == key(cell)) ++broken;
  }
  return broken;
}

util::Json port_to_json(const net::PortRef& port) {
  util::Json j = util::Json::object();
  j["node"] = port.node;
  j["interface"] = port.interface;
  return j;
}

util::Result<net::PortRef> port_from_json(const util::Json* json, const char* field) {
  if (json == nullptr || !json->is_object())
    return util::invalid_argument(std::string("perturbation missing port object '") +
                                  field + "'");
  const util::Json* node = json->find("node");
  const util::Json* interface = json->find("interface");
  if (node == nullptr || node->type() != util::Json::Type::kString ||
      interface == nullptr || interface->type() != util::Json::Type::kString)
    return util::invalid_argument(std::string("port '") + field +
                                  "' needs string members 'node' and 'interface'");
  return net::PortRef{node->as_string(), interface->as_string()};
}

}  // namespace

util::Json perturbation_to_json(const Perturbation& perturbation) {
  util::Json j = util::Json::object();
  std::visit(
      [&j](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, LinkCut>) {
          j["kind"] = "link_cut";
          j["a"] = port_to_json(p.a);
          j["b"] = port_to_json(p.b);
        } else if constexpr (std::is_same_v<T, LinkRestore>) {
          j["kind"] = "link_restore";
          j["a"] = port_to_json(p.a);
          j["b"] = port_to_json(p.b);
        } else if constexpr (std::is_same_v<T, ConfigReplace>) {
          j["kind"] = "config_replace";
          j["node"] = p.node;
          j["vendor"] = config::vendor_name(p.vendor);
          j["config"] = p.config_text;
        } else {
          j["kind"] = "route_withdraw";
          j["peer"] = p.peer;
          util::Json prefixes = util::Json::array();
          for (const net::Ipv4Prefix& prefix : p.prefixes)
            prefixes.push_back(prefix.to_string());
          j["prefixes"] = std::move(prefixes);
        }
      },
      perturbation);
  return j;
}

util::Result<Perturbation> perturbation_from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("perturbation must be an object");
  const util::Json* kind = json.find("kind");
  if (kind == nullptr || kind->type() != util::Json::Type::kString)
    return util::invalid_argument("perturbation needs a string 'kind'");
  const std::string& name = kind->as_string();

  if (name == "link_cut" || name == "link_restore") {
    auto a = port_from_json(json.find("a"), "a");
    if (!a.ok()) return a.status();
    auto b = port_from_json(json.find("b"), "b");
    if (!b.ok()) return b.status();
    if (name == "link_cut") return Perturbation(LinkCut{*a, *b});
    return Perturbation(LinkRestore{*a, *b});
  }
  if (name == "config_replace") {
    const util::Json* node = json.find("node");
    const util::Json* text = json.find("config");
    if (node == nullptr || node->type() != util::Json::Type::kString ||
        text == nullptr || text->type() != util::Json::Type::kString)
      return util::invalid_argument("config_replace needs string 'node' and 'config'");
    ConfigReplace replace{node->as_string(), text->as_string(), config::Vendor::kCeos};
    if (const util::Json* vendor = json.find("vendor")) {
      if (vendor->type() != util::Json::Type::kString)
        return util::invalid_argument("config_replace 'vendor' must be a string");
      if (vendor->as_string() == "vjun") replace.vendor = config::Vendor::kVjun;
      else if (vendor->as_string() == "ceos") replace.vendor = config::Vendor::kCeos;
      else
        return util::invalid_argument("unknown vendor '" + vendor->as_string() + "'");
    }
    return Perturbation(std::move(replace));
  }
  if (name == "route_withdraw") {
    const util::Json* peer = json.find("peer");
    if (peer == nullptr || peer->type() != util::Json::Type::kString)
      return util::invalid_argument("route_withdraw needs a string 'peer'");
    RouteWithdraw withdraw{peer->as_string(), {}};
    if (const util::Json* prefixes = json.find("prefixes")) {
      if (!prefixes->is_array())
        return util::invalid_argument("route_withdraw 'prefixes' must be an array");
      for (const util::Json& entry : prefixes->as_array()) {
        if (entry.type() != util::Json::Type::kString)
          return util::invalid_argument("route_withdraw prefixes must be strings");
        auto prefix = net::Ipv4Prefix::parse(entry.as_string());
        if (!prefix)
          return util::invalid_argument("bad prefix '" + entry.as_string() + "'");
        withdraw.prefixes.push_back(*prefix);
      }
    }
    return Perturbation(std::move(withdraw));
  }
  return util::invalid_argument("unknown perturbation kind '" + name + "'");
}

util::Result<std::vector<Perturbation>> perturbations_from_json(const util::Json& json) {
  if (!json.is_array())
    return util::invalid_argument("perturbations must be a JSON array");
  std::vector<Perturbation> out;
  for (const util::Json& entry : json.as_array()) {
    auto perturbation = perturbation_from_json(entry);
    if (!perturbation.ok()) return perturbation.status();
    out.push_back(std::move(*perturbation));
  }
  return out;
}

bool ScenarioRunner::apply(emu::Emulation& emulation, const Perturbation& perturbation) {
  return std::visit(
      [&emulation](const auto& p) -> bool {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, LinkCut>) {
          return emulation.set_link_up(p.a, p.b, false);
        } else if constexpr (std::is_same_v<T, LinkRestore>) {
          return emulation.set_link_up(p.a, p.b, true);
        } else if constexpr (std::is_same_v<T, ConfigReplace>) {
          return emulation.apply_config_text(p.node, p.config_text, p.vendor).ok();
        } else {
          return emulation.withdraw_external_routes(p.peer, p.prefixes);
        }
      },
      perturbation);
}

VerifiedState VerifiedState::compile(gnmi::Snapshot snapshot,
                                     obs::MetricsRegistry* metrics) {
  VerifiedState state;
  state.graph = std::make_unique<verify::ForwardingGraph>(std::move(snapshot));
  state.cache = std::make_unique<verify::TraceCache>(*state.graph, metrics);
  return state;
}

VerifiedState VerifiedState::capture(const emu::Emulation& emulation, const std::string& name,
                                     obs::MetricsRegistry* metrics) {
  return compile(gnmi::Snapshot::capture(emulation, name), metrics);
}

util::Result<VerifiedState> VerifiedState::boot(const emu::Topology& topology,
                                                const std::string& name,
                                                const BuildOptions& options) {
  auto emulation = std::make_unique<emu::Emulation>(options.emulation);
  util::Status status = emulation->add_topology(topology);
  if (!status.ok()) return status;
  emulation->start_all();
  if (!emulation->run_to_convergence(options.max_events))
    return util::internal_error("snapshot '" + name +
                                "' did not converge within the event budget");
  VerifiedState state = capture(*emulation, name, options.metrics);
  state.convergence_time = emulation->converged_at() - util::TimePoint(0);
  state.events = emulation->kernel().executed();
  state.messages = emulation->messages_delivered();
  state.emulation = std::move(emulation);
  return state;
}

util::Result<VerifiedState> VerifiedState::fork(const emu::Emulation& base,
                                                const std::vector<Perturbation>& perturbations,
                                                const std::string& name,
                                                const BuildOptions& options) {
  std::unique_ptr<emu::Emulation> fork = base.fork();
  if (fork == nullptr)
    return util::failed_precondition("cannot fork snapshot '" + name +
                                     "': its base emulation is not quiescent");
  const util::TimePoint forked_at = fork->kernel().now();
  const uint64_t events_before = fork->kernel().executed();
  for (const Perturbation& perturbation : perturbations)
    if (!ScenarioRunner::apply(*fork, perturbation))
      return util::not_found("snapshot '" + name + "': perturbation target missing: " +
                             perturbation_to_string(perturbation));
  if (!fork->run_to_convergence(options.max_events))
    return util::internal_error("snapshot '" + name +
                                "' did not re-converge within the event budget");
  VerifiedState state = capture(*fork, name, options.metrics);
  state.convergence_time = fork->kernel().now() - forked_at;
  state.events = fork->kernel().executed() - events_before;
  state.messages = fork->messages_delivered();
  state.emulation = std::move(fork);
  return state;
}

ScenarioRunner::ScenarioRunner(const emu::Emulation& base, ScenarioRunnerOptions options)
    : base_(base),
      options_(options),
      base_idle_(base.kernel().idle()),
      base_state_(VerifiedState::capture(base, "base")),
      incremental_base_(verify::capture_incremental_base(*base_state_.graph, options_.verify)),
      base_pairwise_(incremental_base_->pairwise()) {}

util::Result<std::vector<ScenarioResult>> ScenarioRunner::run(
    const std::vector<Scenario>& scenarios) const {
  if (!base_idle_)
    return util::invalid_argument(
        "scenario base is not quiescent: run it to convergence before forking");

  // Sweep-level instruments, resolved once (all null when no registry).
  // Counters and histograms are atomic, so shards update them freely.
  obs::Counter* forks_counter = nullptr;
  obs::Counter* events_counter = nullptr;
  obs::Counter* cow_clones_counter = nullptr;
  obs::Histogram* fork_depth = nullptr;
  obs::Histogram* reconvergence_us = nullptr;
  if (options_.metrics != nullptr) {
    forks_counter = &options_.metrics->counter("scenario_forks");
    events_counter = &options_.metrics->counter("scenario_events");
    cow_clones_counter = &options_.metrics->counter("scenario_cow_clones");
    fork_depth = &options_.metrics->histogram(
        "scenario_fork_depth", {1, 2, 4, 8, 16, 32});
    reconvergence_us = &options_.metrics->latency_histogram_us(
        "scenario_reconvergence_virtual_us");
  }
  const uint64_t cow_clones_before = util::cow_clone_count().load();

  const BuildOptions build{{}, options_.max_events, options_.verify.metrics};
  std::vector<ScenarioResult> results(scenarios.size());
  util::parallel_for_shards(options_.threads, scenarios.size(), [&](size_t index) {
    const Scenario& scenario = scenarios[index];
    ScenarioResult& result = results[index];
    result.name = scenario.name;

    if (forks_counter != nullptr) {
      forks_counter->add(1);
      fork_depth->observe(static_cast<int64_t>(scenario.perturbations.size()));
    }
    util::Result<VerifiedState> state =
        VerifiedState::fork(base_, scenario.perturbations, scenario.name, build);
    // A failed build carries no answer: NOT_FOUND is a missing target,
    // INTERNAL an exhausted event budget.
    result.applied = state.ok() || state.status().code() == util::StatusCode::kInternal;
    result.converged = state.ok();
    if (!state.ok()) return;
    result.reconvergence = state->convergence_time;
    result.events = state->events;
    if (events_counter != nullptr) {
      events_counter->add(result.events);
      reconvergence_us->observe(result.reconvergence.count_micros());
    }

    verify::QueryOptions verify_options = options_.verify;
    verify_options.cache = state->cache.get();
    // Shared read-only across shards; the splice is const over it.
    verify_options.incremental = incremental_base_.get();
    verify_options.incremental_stats = &result.incremental;
    result.pairwise = verify::pairwise_reachability(*state->graph, verify_options);
    result.broken_pairs = broken_pairs(base_pairwise_, result.pairwise);
    if (options_.keep_snapshots) result.snapshot = state->graph->snapshot();
  });

  // Process-wide delta, so clones by a concurrent unrelated sweep can
  // leak in; within one service the broker serializes sweeps enough for
  // this to be the number operators want (copies this sweep paid for).
  if (cow_clones_counter != nullptr)
    cow_clones_counter->add(util::cow_clone_count().load() - cow_clones_before);
  return results;
}

// ---------------------------------------------------------------------------
// Sweep builders

std::vector<Scenario> single_link_cuts(const emu::Topology& topology) {
  return k_link_cuts(topology, 1);
}

std::vector<Scenario> k_link_cuts(const emu::Topology& topology, size_t k) {
  std::vector<Scenario> scenarios;
  const std::vector<emu::LinkSpec>& links = topology.links;
  if (k == 0 || links.size() < k) return scenarios;

  std::vector<size_t> picked(k);
  std::function<void(size_t, size_t)> descend = [&](size_t start, size_t depth) {
    if (depth == k) {
      Scenario scenario;
      for (size_t index : picked) {
        const emu::LinkSpec& link = links[index];
        if (!scenario.name.empty()) scenario.name += " + ";
        scenario.name += link.a.to_string() + "<->" + link.b.to_string();
        scenario.perturbations.push_back(LinkCut{link.a, link.b});
      }
      scenario.name = "cut " + scenario.name;
      scenarios.push_back(std::move(scenario));
      return;
    }
    for (size_t i = start; i + (k - depth) <= links.size(); ++i) {
      picked[depth] = i;
      descend(i + 1, depth + 1);
    }
  };
  descend(0, 0);
  return scenarios;
}

}  // namespace mfv::scenario
