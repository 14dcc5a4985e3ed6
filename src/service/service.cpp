#include "service/service.hpp"

#include <algorithm>
#include <chrono>

#include "explore/explore.hpp"
#include "util/logging.hpp"

namespace mfv::service {

namespace {

int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

const util::Json* find_param(const Request& request, const char* key) {
  return request.params.find(key);
}

util::Result<std::string> string_param(const Request& request, const char* key) {
  const util::Json* value = find_param(request, key);
  if (value == nullptr || value->type() != util::Json::Type::kString)
    return util::invalid_argument(std::string("verb '") + request.verb +
                                  "' needs a string param '" + key + "'");
  return value->as_string();
}

bool bool_param(const Request& request, const char* key, bool fallback) {
  const util::Json* value = find_param(request, key);
  if (value == nullptr || value->type() != util::Json::Type::kBool) return fallback;
  return value->as_bool();
}

}  // namespace

ServiceOptions VerificationService::wire_observability(ServiceOptions options,
                                                       obs::MetricsRegistry* metrics) {
  options.store.metrics = metrics;
  options.broker.metrics = metrics;
  options.emulation.metrics = metrics;
  return options;
}

VerificationService::VerificationService(ServiceOptions options)
    : owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics : owned_metrics_.get()),
      owned_spans_(options.spans == nullptr
                       ? std::make_unique<obs::SpanCollector>(
                             obs::SpanCollectorOptions{options.span_capacity, {}},
                             metrics_)
                       : nullptr),
      spans_(options.spans != nullptr ? options.spans : owned_spans_.get()),
      requests_counter_(&metrics_->counter("service_requests")),
      options_(wire_observability(std::move(options), metrics_)),
      store_(options_.store),
      broker_(options_.broker, [this](const Request& request, const ExecContext& context) {
        return execute(request, context);
      }) {}

VerificationService::~VerificationService() { drain(); }

void VerificationService::submit(Request request, Broker::Callback callback) {
  broker_.submit(std::move(request), std::move(callback));
}

std::future<Response> VerificationService::submit(Request request) {
  return broker_.submit(std::move(request));
}

void VerificationService::drain() { broker_.drain(); }

Response VerificationService::execute(const Request& request, const ExecContext& context) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_counter_->add(1);
  metrics_->counter("service_tenant_requests_" + request.tenant_or_default()).add(1);
  auto start = std::chrono::steady_clock::now();
  util::Json timing = util::Json::object();
  timing["queue_wait_us"] = context.queue_wait_us;

  obs::TraceSpan span(spans_, "request");
  span.attr("verb", request.verb);
  span.attr("tenant", request.tenant_or_default());

  Response response;
  if (request.verb == "upload_configs") response = upload_configs(request);
  else if (request.verb == "snapshot") response = snapshot(request, timing, span.id());
  else if (request.verb == "query") response = query(request, timing, span.id());
  else if (request.verb == "fork_scenario")
    response = fork_scenario(request, timing, span.id());
  else if (request.verb == "explore") response = explore(request, timing, span.id());
  else if (request.verb == "stats") response = stats(request);
  else if (request.verb == "metrics") response = metrics_snapshot(request);
  else
    response = Response::failure(
        request.id, util::invalid_argument("unknown verb '" + request.verb + "'"));

  response.id = request.id;
  if (response.ok()) {
    timing["total_us"] = elapsed_us(start);
    response.result["timing"] = std::move(timing);
  } else {
    util::log_line(util::LogLevel::kDebug, "service",
                   "request " + std::to_string(request.id) + " " + request.verb +
                       " failed: " + response.status().to_string());
  }
  return response;
}

Response VerificationService::upload_configs(const Request& request) {
  const util::Json* topology_json = find_param(request, "topology");
  if (topology_json == nullptr)
    return Response::failure(request.id,
                             util::invalid_argument("upload_configs needs a 'topology' param"));
  util::Result<emu::Topology> topology = emu::Topology::from_json(*topology_json);
  if (!topology.ok()) return Response::failure(request.id, topology.status());

  SnapshotKey key = key_for_topology(*topology);
  const std::string id = key.to_string();
  // Uploads are tenant-scoped: the same content uploaded by two tenants
  // dedupes within each namespace but never across them.
  const std::string upload_key = request.tenant_or_default() + "/" + id;

  bool deduped;
  size_t nodes = topology->nodes.size();
  size_t links = topology->links.size();
  size_t peers = topology->external_peers.size();
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    deduped = uploads_.count(upload_key) > 0;
    if (!deduped)
      uploads_.emplace(upload_key,
                       std::make_shared<const emu::Topology>(std::move(*topology)));
  }

  util::Json result = util::Json::object();
  result["submission"] = id;
  result["tenant"] = request.tenant_or_default();
  result["nodes"] = nodes;
  result["links"] = links;
  result["external_peers"] = peers;
  result["deduped"] = deduped;
  return Response::success(request.id, std::move(result));
}

Response VerificationService::snapshot(const Request& request, util::Json& timing,
                                       uint64_t parent_span) {
  util::Result<std::string> id = string_param(request, "submission");
  if (!id.ok()) return Response::failure(request.id, id.status());
  std::optional<SnapshotKey> key = SnapshotKey::parse(*id);
  if (!key)
    return Response::failure(request.id,
                             util::invalid_argument("malformed submission id '" + *id + "'"));

  const std::string& tenant = request.tenant_or_default();
  util::Result<std::shared_ptr<const emu::Topology>> topology = find_upload(tenant, *id);
  if (!topology.ok()) return Response::failure(request.id, topology.status());

  auto converge_start = std::chrono::steady_clock::now();
  const uint64_t content_check = content_check_for_topology(**topology);
  util::Result<SnapshotStore::Lease> lease =
      store_.get_or_build(tenant, *key, [this, &topology, &id, parent_span]() {
        obs::TraceSpan converge(spans_, "converge", parent_span);
        converge.attr("snapshot", *id);
        return make_entry(scenario::VerifiedState::boot(
            **topology, *id, {options_.emulation, options_.max_events, metrics_}));
      }, content_check);
  if (!lease.ok()) return Response::failure(request.id, lease.status());
  timing["converge_us"] = lease->hit ? int64_t{0} : elapsed_us(converge_start);

  util::Json result = util::Json::object();
  result["snapshot"] = *id;
  result["hit"] = lease->hit;
  result["entries"] = lease->entry->graph->snapshot().total_entries();
  result["convergence_virtual_us"] = lease->entry->convergence_time.count_micros();
  result["messages"] = lease->entry->messages;
  return Response::success(request.id, std::move(result));
}

util::Result<std::shared_ptr<const emu::Topology>> VerificationService::find_upload(
    const std::string& tenant, const std::string& id) {
  std::lock_guard<std::mutex> lock(uploads_mutex_);
  auto it = uploads_.find(tenant + "/" + id);
  if (it == uploads_.end())
    return util::not_found("no uploaded topology '" + id + "' in tenant '" + tenant +
                           "'; call upload_configs first");
  return it->second;
}

util::Result<SnapshotStore::Lease> VerificationService::resolve_snapshot(
    const Request& request, const char* field) {
  util::Result<std::string> id = string_param(request, field);
  if (!id.ok()) return id.status();
  std::optional<SnapshotKey> key = SnapshotKey::parse(*id);
  if (!key) return util::invalid_argument("malformed snapshot id '" + *id + "'");
  SnapshotStore::EntryPtr entry = store_.find(request.tenant_or_default(), *key);
  if (entry == nullptr)
    return util::not_found("no stored snapshot '" + *id + "' in tenant '" +
                           request.tenant_or_default() +
                           "' (evicted or never built); rebuild it with the "
                           "snapshot or fork_scenario verb");
  return SnapshotStore::Lease{std::move(entry), /*hit=*/true};
}

verify::QueryOptions VerificationService::query_options(
    const Request& request, const StoredSnapshot& entry) const {
  verify::QueryOptions options;
  options.threads = options_.query_threads;
  options.cache = entry.cache.get();
  options.metrics = metrics_;
  if (const util::Json* sources = find_param(request, "sources");
      sources != nullptr && sources->is_array())
    for (const util::Json& source : sources->as_array())
      if (source.type() == util::Json::Type::kString)
        options.sources.push_back(source.as_string());
  return options;
}

Response VerificationService::query(const Request& request, util::Json& timing,
                                    uint64_t parent_span) {
  util::Result<SnapshotStore::Lease> lease = resolve_snapshot(request, "snapshot");
  if (!lease.ok()) return Response::failure(request.id, lease.status());
  const StoredSnapshot& entry = *lease->entry;

  std::string kind = "reachability";
  if (const util::Json* kind_param = find_param(request, "kind")) {
    if (kind_param->type() != util::Json::Type::kString)
      return Response::failure(request.id,
                               util::invalid_argument("query 'kind' must be a string"));
    kind = kind_param->as_string();
  }

  verify::QueryOptions options = query_options(request, entry);
  if (const util::Json* scope = find_param(request, "scope")) {
    if (scope->type() != util::Json::Type::kString)
      return Response::failure(request.id,
                               util::invalid_argument("query 'scope' must be a string prefix"));
    auto prefix = net::Ipv4Prefix::parse(scope->as_string());
    if (!prefix)
      return Response::failure(
          request.id, util::invalid_argument("bad scope prefix '" + scope->as_string() + "'"));
    options.scope = *prefix;
  }
  size_t max_rows = bool_param(request, "full", false) ? 0 : options_.max_rows;

  auto verify_start = std::chrono::steady_clock::now();
  obs::TraceSpan verify_span(spans_, "verify", parent_span);
  verify_span.attr("kind", kind);
  util::Json result = util::Json::object();
  result["snapshot"] = entry.key.to_string();
  result["kind"] = kind;

  if (kind == "reachability") {
    result["answer"] = render_reachability(verify::reachability(*entry.graph, options),
                                           max_rows);
  } else if (kind == "pairwise") {
    result["answer"] = render_pairwise(verify::pairwise_reachability(*entry.graph, options));
  } else if (kind == "loops") {
    result["answer"] =
        render_reachability(verify::detect_loops(*entry.graph, options), max_rows);
  } else if (kind == "routes") {
    std::string node;
    if (const util::Json* node_param = find_param(request, "node");
        node_param != nullptr && node_param->type() == util::Json::Type::kString)
      node = node_param->as_string();
    result["answer"] = render_routes(verify::routes(*entry.graph, node), max_rows);
  } else if (kind == "differential") {
    util::Result<SnapshotStore::Lease> base = resolve_snapshot(request, "base");
    if (!base.ok()) return Response::failure(request.id, base.status());
    // Store entries play the candidate role; 'base' is the reference.
    verify::QueryOptions diff_options = options;
    diff_options.cache = base->entry->cache.get();
    diff_options.candidate_cache = entry.cache.get();
    result["base"] = base->entry->key.to_string();
    result["answer"] = render_differential(
        verify::differential_reachability(*base->entry->graph, *entry.graph, diff_options),
        max_rows);
  } else {
    return Response::failure(request.id,
                             util::invalid_argument("unknown query kind '" + kind + "'"));
  }

  timing["verify_us"] = elapsed_us(verify_start);
  return Response::success(request.id, std::move(result));
}

Response VerificationService::fork_scenario(const Request& request, util::Json& timing,
                                            uint64_t parent_span) {
  util::Result<SnapshotStore::Lease> base = resolve_snapshot(request, "base");
  if (!base.ok()) return Response::failure(request.id, base.status());
  const SnapshotStore::EntryPtr& base_entry = base->entry;
  if (base_entry->emulation == nullptr)
    return Response::failure(request.id,
                             util::failed_precondition("base snapshot has no live emulation"));

  const util::Json* perturbations_json = find_param(request, "perturbations");
  if (perturbations_json == nullptr)
    return Response::failure(
        request.id, util::invalid_argument("fork_scenario needs a 'perturbations' param"));
  util::Result<std::vector<scenario::Perturbation>> perturbations =
      scenario::perturbations_from_json(*perturbations_json);
  if (!perturbations.ok()) return Response::failure(request.id, perturbations.status());

  SnapshotKey key = key_for_fork(base_entry->key, *perturbations);
  const std::string id = key.to_string();

  auto converge_start = std::chrono::steady_clock::now();
  const uint64_t content_check =
      content_check_for_fork(base_entry->content_check, *perturbations);
  util::Result<SnapshotStore::Lease> lease = store_.get_or_build(
      request.tenant_or_default(), key,
      [this, &base_entry, &perturbations, &id, parent_span]() {
        obs::TraceSpan converge(spans_, "converge", parent_span);
        converge.attr("snapshot", id);
        return make_entry(scenario::VerifiedState::fork(
            *base_entry->emulation, *perturbations, id,
            {options_.emulation, options_.max_events, metrics_}));
      }, content_check);
  if (!lease.ok()) return Response::failure(request.id, lease.status());
  timing["converge_us"] = lease->hit ? int64_t{0} : elapsed_us(converge_start);

  util::Json result = util::Json::object();
  result["snapshot"] = id;
  result["base"] = base_entry->key.to_string();
  result["hit"] = lease->hit;
  result["perturbations"] = perturbations->size();
  result["entries"] = lease->entry->graph->snapshot().total_entries();
  result["reconvergence_virtual_us"] = lease->entry->convergence_time.count_micros();
  return Response::success(request.id, std::move(result));
}

Response VerificationService::explore(const Request& request, util::Json& timing,
                                      uint64_t parent_span) {
  namespace xpl = mfv::explore;
  xpl::ExploreOptions options;
  options.metrics = metrics_;
  if (const util::Json* v = find_param(request, "max_runs"))
    options.max_runs = static_cast<uint64_t>(std::max<int64_t>(1, v->as_int()));
  if (const util::Json* v = find_param(request, "max_states"))
    options.max_states = static_cast<uint64_t>(std::max<int64_t>(1, v->as_int()));
  if (const util::Json* v = find_param(request, "max_choice_points"))
    options.max_choice_points =
        static_cast<uint32_t>(std::max<int64_t>(1, v->as_int()));
  if (const util::Json* v = find_param(request, "threads"))
    options.threads = static_cast<unsigned>(std::max<int64_t>(0, v->as_int()));
  options.verify_properties = bool_param(request, "properties", true);
  options.verify_threads = options_.query_threads;
  if (const util::Json* v = find_param(request, "scope")) {
    std::optional<net::Ipv4Prefix> scope = net::Ipv4Prefix::parse(v->as_string());
    if (!scope)
      return Response::failure(
          request.id, util::invalid_argument("malformed scope prefix '" +
                                             v->as_string() + "'"));
    options.scope = scope;
  }

  xpl::ExploreInput input;
  std::unique_ptr<emu::Emulation> boot_base;  // boot path owns its base
  SnapshotStore::EntryPtr pinned;             // snapshot path pins the store entry

  if (find_param(request, "submission") != nullptr) {
    // Boot exploration: every branch boots the uploaded topology from
    // scratch under a different delivery schedule.
    util::Result<std::string> id = string_param(request, "submission");
    if (!id.ok()) return Response::failure(request.id, id.status());
    util::Result<std::shared_ptr<const emu::Topology>> topology =
        find_upload(request.tenant_or_default(), *id);
    if (!topology.ok()) return Response::failure(request.id, topology.status());
    boot_base = std::make_unique<emu::Emulation>(options_.emulation);
    util::Status status = boot_base->add_topology(**topology);
    if (!status.ok()) return Response::failure(request.id, status);
    input.base = boot_base.get();
    input.start = true;
  } else {
    // Perturbation exploration: branch the delivery schedules of a
    // what-if applied to a stored converged snapshot.
    util::Result<SnapshotStore::Lease> base = resolve_snapshot(request, "snapshot");
    if (!base.ok()) return Response::failure(request.id, base.status());
    if (base->entry->emulation == nullptr)
      return Response::failure(request.id, util::failed_precondition(
                                               "base snapshot has no live emulation"));
    pinned = base->entry;
    input.base = pinned->emulation.get();
    if (const util::Json* perturbations_json = find_param(request, "perturbations")) {
      util::Result<std::vector<scenario::Perturbation>> perturbations =
          scenario::perturbations_from_json(*perturbations_json);
      if (!perturbations.ok()) return Response::failure(request.id, perturbations.status());
      input.perturbations = std::move(*perturbations);
    }
  }

  obs::TraceSpan span(spans_, "explore", parent_span);
  auto explore_start = std::chrono::steady_clock::now();
  util::Result<xpl::ExploreResult> result = xpl::explore(input, options);
  if (!result.ok()) return Response::failure(request.id, result.status());
  timing["explore_us"] = elapsed_us(explore_start);
  span.attr("unique_states", std::to_string(result->unique_states));
  return Response::success(request.id, result->to_json());
}

Response VerificationService::stats(const Request& request) {
  StoreStats store_stats = store_.stats();
  BrokerStats broker_stats = broker_.stats();

  util::Json store = util::Json::object();
  store["entries"] = store_stats.entries;
  store["bytes"] = store_stats.bytes;
  store["hits"] = store_stats.hits;
  store["misses"] = store_stats.misses;
  store["evictions"] = store_stats.evictions;
  store["single_flight_joins"] = store_stats.single_flight_joins;
  store["hash_collisions"] = store_stats.hash_collisions;
  store["trace_hits"] = store_stats.trace_hits;
  store["trace_misses"] = store_stats.trace_misses;

  util::Json broker = util::Json::object();
  broker["accepted"] = broker_stats.accepted;
  broker["completed"] = broker_stats.completed;
  broker["rejected"] = broker_stats.rejected;
  broker["expired"] = broker_stats.expired;
  broker["expired_wait_us"] = broker_stats.expired_wait_us;
  broker["queued"] = broker_stats.queued;
  broker["executing"] = broker_stats.executing;

  // Per-tenant slice: broker scheduling counters joined with the store
  // footprint, one object per tenant ever seen by either side.
  util::Json tenants = util::Json::object();
  for (const auto& [name, slice] : broker_stats.tenants) {
    util::Json t = util::Json::object();
    t["accepted"] = slice.accepted;
    t["completed"] = slice.completed;
    t["rejected"] = slice.rejected;
    t["expired"] = slice.expired;
    t["queued"] = slice.queued;
    tenants[name] = std::move(t);
  }
  for (const auto& [name, slice] : store_stats.tenants) {
    if (tenants.find(name) == nullptr) tenants[name] = util::Json::object();
    tenants[name]["store_entries"] = slice.entries;
    tenants[name]["store_bytes"] = slice.bytes;
    tenants[name]["store_quota_rejections"] = slice.quota_rejections;
  }

  util::Json result = util::Json::object();
  result["store"] = std::move(store);
  result["broker"] = std::move(broker);
  result["tenants"] = std::move(tenants);
  result["requests"] = requests_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    result["uploads"] = uploads_.size();
  }
  return Response::success(request.id, std::move(result));
}

Response VerificationService::metrics_snapshot(const Request& request) {
  // Strict superset of stats: same summary object, plus the full
  // registry and the recent span ring. `spans` caps the span dump
  // (default 64, 0 = everything retained); `text` adds the Prometheus
  // flavoured exposition for humans and scrapers.
  Response response = stats(request);
  if (!response.ok()) return response;
  response.result["metrics"] = metrics_->to_json();
  int64_t span_limit = 64;
  if (const util::Json* limit = find_param(request, "spans");
      limit != nullptr && limit->type() == util::Json::Type::kInt)
    span_limit = limit->as_int();
  if (span_limit < 0) span_limit = 0;
  response.result["spans"] = spans_->to_json(static_cast<size_t>(span_limit));
  response.result["spans_dropped"] = spans_->dropped();
  if (bool_param(request, "text", false)) response.result["text"] = metrics_->to_text();
  return response;
}

// ---------------------------------------------------------------------------
// Rendering

util::Json VerificationService::render_reachability(const verify::ReachabilityResult& result,
                                                    size_t max_rows) {
  util::Json answer = util::Json::object();
  answer["classes"] = result.classes;
  answer["flows"] = result.flows;
  answer["rows_total"] = result.rows.size();
  size_t limit = max_rows == 0 ? result.rows.size() : std::min(max_rows, result.rows.size());
  answer["truncated"] = limit < result.rows.size();
  util::Json rows = util::Json::array();
  for (size_t i = 0; i < limit; ++i) {
    const verify::ReachabilityRow& row = result.rows[i];
    util::Json j = util::Json::object();
    j["source"] = row.source;
    j["destination"] = row.destination.to_string();
    j["dispositions"] = row.dispositions.to_string();
    rows.push_back(std::move(j));
  }
  answer["rows"] = std::move(rows);
  return answer;
}

util::Json VerificationService::render_pairwise(const verify::PairwiseResult& result) {
  util::Json answer = util::Json::object();
  answer["reachable_pairs"] = result.reachable_pairs;
  answer["total_pairs"] = result.total_pairs;
  answer["full_mesh"] = result.full_mesh();
  util::Json unreachable = util::Json::array();
  for (const verify::PairwiseCell& cell : result.cells) {
    if (cell.reachable) continue;
    util::Json j = util::Json::object();
    j["source"] = cell.source;
    j["destination"] = cell.destination;
    unreachable.push_back(std::move(j));
  }
  answer["unreachable"] = std::move(unreachable);
  return answer;
}

util::Json VerificationService::render_differential(const verify::DifferentialResult& result,
                                                    size_t max_rows) {
  util::Json answer = util::Json::object();
  answer["classes"] = result.classes;
  answer["flows"] = result.flows;
  answer["differences"] = result.rows.size();
  answer["regressions"] = result.regressions().size();
  size_t limit = max_rows == 0 ? result.rows.size() : std::min(max_rows, result.rows.size());
  answer["truncated"] = limit < result.rows.size();
  util::Json rows = util::Json::array();
  for (size_t i = 0; i < limit; ++i) {
    const verify::DifferentialRow& row = result.rows[i];
    util::Json j = util::Json::object();
    j["source"] = row.source;
    j["destination"] = row.destination.to_string();
    j["base"] = row.base.to_string();
    j["candidate"] = row.candidate.to_string();
    rows.push_back(std::move(j));
  }
  answer["rows"] = std::move(rows);
  return answer;
}

util::Json VerificationService::render_routes(const std::vector<verify::RouteRow>& rows,
                                              size_t max_rows) {
  util::Json answer = util::Json::object();
  answer["rows_total"] = rows.size();
  size_t limit = max_rows == 0 ? rows.size() : std::min(max_rows, rows.size());
  answer["truncated"] = limit < rows.size();
  util::Json out = util::Json::array();
  for (size_t i = 0; i < limit; ++i) {
    const verify::RouteRow& row = rows[i];
    util::Json j = util::Json::object();
    j["node"] = row.node;
    j["prefix"] = row.prefix.to_string();
    j["protocol"] = row.protocol;
    j["metric"] = row.metric;
    util::Json hops = util::Json::array();
    for (const std::string& hop : row.next_hops) hops.push_back(hop);
    j["next_hops"] = std::move(hops);
    out.push_back(std::move(j));
  }
  answer["rows"] = std::move(out);
  return answer;
}

}  // namespace mfv::service
