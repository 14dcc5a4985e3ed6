// The two daemon workloads (precheck-cold, service-whatif) and the shared
// in-process daemon they talk to over a unix socket.
#include "daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "api/session.hpp"
#include "config/dialect.hpp"
#include "layers.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace mfvbench {

using namespace mfv;
using Scope = Tracer::Scope;

Daemon::Daemon(RunContext& context, unsigned workers, size_t byte_budget,
               const std::string& tag) {
  service::ServiceOptions options;
  options.broker.threads = workers;
  options.store.byte_budget = byte_budget;
  if (context.tracing()) options.metrics = &context.tracer->registry();
  service_ = std::make_unique<service::VerificationService>(options);

  std::error_code error;
  std::filesystem::create_directories(context.args.workdir, error);
  service::ServerOptions server_options;
  server_options.unix_path = context.args.workdir + "/mfvbench-" + std::to_string(getpid()) +
                             "-" + tag + ".sock";
  server_ = std::make_unique<service::Server>(*service_, server_options);
  util::Status status = server_->start();
  if (!status.ok()) {
    context.report.fail("daemon did not start on " + server_options.unix_path + ": " +
                        status.to_string());
    return;
  }
  started_ = true;
}

Daemon::~Daemon() {
  if (server_ != nullptr) server_->stop();
}

service::Client Daemon::connect(RunContext& context) {
  service::Client client;
  util::Status status = client.connect_unix(server_->unix_path());
  if (!status.ok()) context.report.fail("client connect failed: " + status.to_string());
  return client;
}

service::Request make_request(uint64_t id, const char* verb) {
  service::Request request;
  request.id = id;
  request.verb = verb;
  request.params = util::Json::object();
  return request;
}

Reply call(RunContext& context, service::Client& client, const service::Request& request,
           const char* span_name, uint64_t op, uint64_t parent) {
  Reply reply;
  Clock::time_point start = Clock::now();
  Scope span(context.tracer, span_name, op, parent);
  util::Result<service::Response> response = client.call(request);
  span.end();
  reply.client_ms = ms_since(start);
  if (!response.ok()) {
    reply.error = request.verb + " transport: " + response.status().to_string();
    return reply;
  }
  reply.response = std::move(*response);
  if (!reply.response.ok()) {
    reply.error = request.verb + ": " + reply.response.status().to_string();
    return reply;
  }
  reply.ok = true;
  if (!context.tracing()) return reply;
  const util::Json* timing = reply.response.result.find("timing");
  if (timing == nullptr) return reply;
  auto micros = [timing](const char* key) {
    const util::Json* value = timing->find(key);
    return value == nullptr ? -1.0 : static_cast<double>(value->as_int());
  };
  const double queue_us = micros("queue_wait_us");
  const double total_us = micros("total_us");
  context.sample("service.queue_wait_ms", queue_us / 1e3);
  context.sample("service.wire_ms", reply.client_ms - (queue_us + total_us) / 1e3);
  const util::Json* hit = reply.response.result.find("hit");
  if (micros("converge_us") >= 0 && (hit == nullptr || !hit->as_bool()))
    context.sample("service.converge_ms", micros("converge_us") / 1e3);
  if (micros("verify_us") >= 0) context.sample("service.verify_ms", micros("verify_us") / 1e3);
  return reply;
}

void sample_store(RunContext& context, Daemon& daemon, double rss_before_mb) {
  service::StoreStats stats = daemon.service().store().stats();
  const double charged_mb = static_cast<double>(stats.bytes) / (1024.0 * 1024.0);
  context.sample("service.store_evictions", static_cast<double>(stats.evictions));
  context.sample("service.store_charged_mb", charged_mb);
  if (charged_mb > 0)
    context.sample("service.rss_per_charged_mb",
                   (current_rss_mb() - rss_before_mb) / charged_mb);
}

namespace {

/// Generator seed of the production WAN both daemon workloads store. The
/// run seed picks the edits and cuts applied to it, not the WAN itself.
constexpr uint64_t kProductionSeed = 5;

/// Set-ups timed in each of the two batches (one takes about 0.25 s).
constexpr int kSetupsPerBatch = 5;

/// Both workloads keep the store under this budget, so the LRU evicts
/// during a run and resident memory stops growing. One stored snapshot of
/// the production WAN is charged about 1.5 MB, one of the smoke-size WAN
/// about 28 KB: either budget holds about eight, so a what-if cut that
/// recurs in a long smoke run has been evicted long before.
size_t store_budget_bytes(bool smoke) { return smoke ? 256u << 10 : 12u << 20; }

/// Rows kept in rendered differential answers (the service's default).
const size_t kMaxRows = service::ServiceOptions{}.max_rows;

emu::Topology production_topology(bool smoke) {
  workload::WanOptions options;
  options.routers = smoke ? 8 : 50;
  options.seed = kProductionSeed;
  options.ibgp_mesh = true;
  options.border_count = 2;
  options.routes_per_peer = smoke ? 16 : 200;
  return workload::wan_topology(options);
}

/// The daemon, its client connections and the stored production WAN.
struct DaemonSetup {
  emu::Topology production;
  std::string production_id;
  std::unique_ptr<Daemon> daemon;
  std::vector<service::Client> clients;
  double rss_before_mb = 0.0;
};

std::unique_ptr<DaemonSetup> setup_daemon(RunContext& context, unsigned workers,
                                          unsigned connections) {
  auto setup = std::make_unique<DaemonSetup>();
  setup->production = production_topology(context.args.smoke);
  setup->rss_before_mb = current_rss_mb();
  setup->daemon = std::make_unique<Daemon>(context, workers,
                                           store_budget_bytes(context.args.smoke), "run");
  if (!setup->daemon->started()) return nullptr;
  for (unsigned i = 0; i < connections; ++i) {
    setup->clients.push_back(setup->daemon->connect(context));
    if (!setup->clients.back().connected()) return nullptr;
  }
  service::Request upload = make_request(1, "upload_configs");
  upload.params["topology"] = setup->production.to_json();
  Reply uploaded = call(context, setup->clients[0], upload, "service.upload_configs", 0, 0);
  if (!uploaded.ok) {
    context.report.fail("production upload: " + uploaded.error);
    return nullptr;
  }
  setup->production_id = uploaded.response.result.find("submission")->as_string();
  service::Request snapshot = make_request(2, "snapshot");
  snapshot.params["submission"] = setup->production_id;
  Reply built = call(context, setup->clients[0], snapshot, "service.snapshot", 0, 0);
  if (!built.ok) {
    context.report.fail("production snapshot: " + built.error);
    return nullptr;
  }
  return setup;
}

/// Sampled answers kept for the in-process comparison after the run.
struct KeptAnswers {
  std::mutex mutex;
  std::map<uint64_t, std::vector<util::Json>> answers;
};

/// Operation indices whose answers are compared against api::Session.
std::set<uint64_t> sample_indices(uint64_t seed, uint64_t warmup) {
  std::set<uint64_t> indices;
  for (uint64_t stream = 0; indices.size() < 2; ++stream)
    indices.insert(mix_seed(seed, 100 + stream) % (warmup + 6));
  return indices;
}

void compare_answer(RunContext& context, uint64_t op, const char* what,
                    util::Json daemon_answer, const util::Json& expected) {
  if (context.args.corrupt) daemon_answer["corrupted_by_benchmark"] = true;
  if (daemon_answer.dump() != expected.dump())
    context.report.fail("op " + std::to_string(op) + ": daemon " + what +
                        " answer differs from the in-process api::Session answer");
}

/// Broker workers and client connections of a daemon workload (the
/// connections are also its closed-loop client threads).
struct Load {
  unsigned workers = 0;
  unsigned connections = 0;
};

/// Warm-up (never traced), then the timed phase of one daemon workload:
/// untraced, or the alternating windows of a traced run.
/// `op(thread, index, parent)` runs one operation.
void drive(RunContext& context, Tracer* tracer, const Load& load, uint64_t warmup,
           const char* root_span,
           const std::function<bool(unsigned, uint64_t, uint64_t)>& op) {
  std::atomic<uint64_t> next{0};
  context.tracer = nullptr;
  for (uint64_t i = 0; i < warmup; ++i) op(0, next.fetch_add(1), 0);
  context.report.record("ops_warmup", std::to_string(warmup));

  auto rooted_op = [&](unsigned thread, uint64_t index) {
    Scope span(context.tracer, root_span, index + 1);
    return op(thread, index, span.id());
  };
  if (tracer == nullptr) {
    emit_end_to_end(context,
                    timed_phase(load.connections, context.args.seconds, next, rooted_op));
  } else {
    traced_phases(context, tracer, load.connections, context.args.seconds, next, rooted_op);
  }
  context.report.attempt(next.load());
}

/// One-router edit of the production WAN: an interface shutdown or a new
/// IS-IS metric, distinct for every operation index.
class EditSource {
 public:
  EditSource(const emu::Topology& production, uint64_t seed)
      : production_(production), rng_(mix_seed(seed, 1)) {
    for (const emu::NodeSpec& node : production.nodes) {
      config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
      std::vector<std::string> interfaces;
      for (const auto& [name, iface] : parsed.config.interfaces)
        if (iface.address && iface.isis_enabled && !iface.isis_passive)
          interfaces.push_back(name);
      configs_.push_back(std::move(parsed.config));
      interfaces_.push_back(std::move(interfaces));
    }
  }

  /// Candidate topology for operation `index` (thread-safe; memoized).
  emu::Topology candidate(uint64_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (edits_.size() <= index) draw_locked();
    const Edit& edit = edits_[index];
    emu::Topology topology = production_;
    config::DeviceConfig config = configs_[edit.node];
    config::InterfaceConfig& iface = config.interface(edit.interface);
    if (edit.metric == 0) iface.shutdown = true;
    else iface.isis_metric = edit.metric;
    topology.nodes[edit.node].config_text = config::write_config(config);
    return topology;
  }

 private:
  struct Edit {
    size_t node = 0;
    std::string interface;
    uint32_t metric = 0;  // 0 = shutdown
  };

  void draw_locked() {
    for (;;) {
      Edit edit;
      edit.node = rng_.next_below(static_cast<uint32_t>(configs_.size()));
      const std::vector<std::string>& interfaces = interfaces_[edit.node];
      if (interfaces.empty()) continue;
      edit.interface = interfaces[rng_.next_below(static_cast<uint32_t>(interfaces.size()))];
      // One in four edits shuts the interface; the rest re-weight it.
      edit.metric = rng_.next_below(4) == 0 ? 0 : 11 + rng_.next_below(990);
      if (!used_.insert({edit.node, edit.interface, edit.metric}).second) continue;
      edits_.push_back(std::move(edit));
      return;
    }
  }

  const emu::Topology& production_;
  std::vector<config::DeviceConfig> configs_;
  std::vector<std::vector<std::string>> interfaces_;
  util::Pcg32 rng_;
  std::mutex mutex_;
  std::vector<Edit> edits_;
  std::set<std::tuple<size_t, std::string, uint32_t>> used_;
};

}  // namespace

// ---------------------------------------------------------------------------
// precheck-cold: upload a candidate, build it cold, diff it against
// production — one client, closed loop.

void run_precheck(RunContext& context) {
  Tracer* tracer = context.tracer;
  const Load load{/*workers=*/1, /*connections=*/1};
  std::unique_ptr<DaemonSetup> setup;
  Setups setups(context, [&] { setup.reset(); },
                [&] { setup = setup_daemon(context, load.workers, load.connections); });
  setups.run(kSetupsPerBatch);
  if (setup == nullptr) return;

  EditSource edits(setup->production, context.args.seed);
  const uint64_t warmup = 3;
  const std::set<uint64_t> sampled = sample_indices(context.args.seed, warmup);
  KeptAnswers kept;

  auto op = [&](unsigned, uint64_t index, uint64_t parent) {
    const uint64_t id = index + 1;
    auto fail = [&](const std::string& why) {
      context.report.fail("op " + std::to_string(index) + ": " + why);
      return false;
    };
    service::Client& client = setup->clients[0];
    service::Request upload = make_request(id, "upload_configs");
    upload.params["topology"] = edits.candidate(index).to_json();
    Reply uploaded = call(context, client, upload, "service.upload_configs", id, parent);
    if (!uploaded.ok) return fail(uploaded.error);
    const std::string submission = uploaded.response.result.find("submission")->as_string();

    service::Request snapshot = make_request(id, "snapshot");
    snapshot.params["submission"] = submission;
    Reply built = call(context, client, snapshot, "service.snapshot", id, parent);
    if (!built.ok) return fail(built.error);
    if (built.response.result.find("hit")->as_bool())
      return fail("candidate snapshot was a store hit; edits must be unique");

    service::Request differential = make_request(id, "query");
    differential.params["kind"] = "differential";
    differential.params["snapshot"] = submission;
    differential.params["base"] = setup->production_id;
    Reply diffed = call(context, client, differential, "service.query_differential", id, parent);
    if (!diffed.ok) return fail(diffed.error);
    if (sampled.count(index) > 0) {
      std::lock_guard<std::mutex> lock(kept.mutex);
      kept.answers[index] = {*diffed.response.result.find("answer")};
    }
    return true;
  };
  drive(context, tracer, load, warmup, "precheck.op", op);
  if (tracer != nullptr) sample_store(context, *setup->daemon, setup->rss_before_mb);

  // In-process reference: the same candidates through api::Session,
  // rendered by the service's own helper.
  api::Session session;
  util::Status status = session.init_snapshot(setup->production, "production");
  if (!status.ok()) context.report.fail("session production: " + status.to_string());
  for (const auto& [index, answers] : kept.answers) {
    const std::string name = "candidate" + std::to_string(index);
    status = session.init_snapshot(edits.candidate(index), name);
    util::Result<verify::DifferentialResult> expected =
        status.ok() ? session.differential_reachability("production", name)
                    : util::Result<verify::DifferentialResult>(status);
    if (!expected.ok()) {
      context.report.fail("session candidate " + name + ": " + expected.status().to_string());
      continue;
    }
    compare_answer(context, index, "differential", answers[0],
                   service::VerificationService::render_differential(*expected, kMaxRows));
  }
  context.report.record("correctness_samples", std::to_string(kept.answers.size()));

  if (tracer != nullptr) {
    // The operation's build steps replayed in process on the first two
    // candidates; off its path, for the full per-layer set: config-replace
    // forks of the same edits, a runner and a 2-run exploration.
    context.report.record("off_path",
                          "emu.fork_ms emu.teardown_ms emu.cow_clones emu.reconverge_* "
                          "verify.pairwise_ms verify.splice_ratio verify.fallbacks "
                          "scenario.init_ms explore.*");
    LayerInput input;
    input.topology = &setup->production;
    for (uint64_t i = 0; i < 2; ++i) {
      emu::Topology candidate = edits.candidate(i);
      input.cold_candidates.push_back(candidate);
      for (size_t n = 0; n < candidate.nodes.size(); ++n)
        if (candidate.nodes[n].config_text != setup->production.nodes[n].config_text)
          input.fork_ops.push_back({scenario::ConfigReplace{
              candidate.nodes[n].name, candidate.nodes[n].config_text,
              candidate.nodes[n].vendor}});
    }
    replay_layers(context, input);
    probe_explore(context, setup->production);
    return;
  }
  // Last, as it replaces the set-up everything above refers to.
  setups.run(kSetupsPerBatch);
  setups.emit();
}

// ---------------------------------------------------------------------------
// service-whatif: fork a distinct two-link cut, query it pairwise and
// differentially — two clients, two broker workers, closed loop.

void run_whatif(RunContext& context) {
  Tracer* tracer = context.tracer;
  const Load load{/*workers=*/2, /*connections=*/2};
  std::unique_ptr<DaemonSetup> setup;
  Setups setups(context, [&] { setup.reset(); },
                [&] { setup = setup_daemon(context, load.workers, load.connections); });
  setups.run(kSetupsPerBatch);
  if (setup == nullptr) return;

  // Every pair of production links, in a seeded order: operation i cuts
  // pair i. A full-size run takes far fewer operations than there are
  // pairs, so every fork is a store miss; the check after each fork fails
  // any that is not.
  std::vector<std::vector<scenario::Perturbation>> cuts;
  const std::vector<emu::LinkSpec>& links = setup->production.links;
  for (size_t a = 0; a < links.size(); ++a)
    for (size_t b = a + 1; b < links.size(); ++b)
      cuts.push_back({scenario::LinkCut{links[a].a, links[a].b},
                      scenario::LinkCut{links[b].a, links[b].b}});
  util::Pcg32 rng(mix_seed(context.args.seed, 2));
  for (size_t i = cuts.size(); i > 1; --i)
    std::swap(cuts[i - 1], cuts[rng.next_below(static_cast<uint32_t>(i))]);

  const uint64_t warmup = 4;
  const std::set<uint64_t> sampled = sample_indices(context.args.seed, warmup);
  KeptAnswers kept;

  auto op = [&](unsigned thread, uint64_t index, uint64_t parent) {
    const uint64_t id = index + 1;
    auto fail = [&](const std::string& why) {
      context.report.fail("op " + std::to_string(index) + ": " + why);
      return false;
    };
    service::Client& client = setup->clients[thread];
    service::Request fork = make_request(id, "fork_scenario");
    fork.params["base"] = setup->production_id;
    util::Json list = util::Json::array();
    for (const scenario::Perturbation& cut : cuts[index % cuts.size()])
      list.push_back(scenario::perturbation_to_json(cut));
    fork.params["perturbations"] = std::move(list);
    Reply forked = call(context, client, fork, "service.fork_scenario", id, parent);
    if (!forked.ok) return fail(forked.error);
    if (forked.response.result.find("hit")->as_bool())
      return fail("fork was a store hit; cuts must be distinct");
    const std::string fork_id = forked.response.result.find("snapshot")->as_string();

    service::Request pairwise = make_request(id, "query");
    pairwise.params["kind"] = "pairwise";
    pairwise.params["snapshot"] = fork_id;
    Reply paired = call(context, client, pairwise, "service.query_pairwise", id, parent);
    if (!paired.ok) return fail(paired.error);

    service::Request differential = make_request(id, "query");
    differential.params["kind"] = "differential";
    differential.params["snapshot"] = fork_id;
    differential.params["base"] = setup->production_id;
    Reply diffed = call(context, client, differential, "service.query_differential", id, parent);
    if (!diffed.ok) return fail(diffed.error);
    if (sampled.count(index) > 0) {
      std::lock_guard<std::mutex> lock(kept.mutex);
      kept.answers[index] = {*paired.response.result.find("answer"),
                             *diffed.response.result.find("answer")};
    }
    return true;
  };
  drive(context, tracer, load, warmup, "whatif.op", op);
  if (tracer != nullptr) sample_store(context, *setup->daemon, setup->rss_before_mb);

  api::Session session;
  util::Status status = session.init_snapshot(setup->production, "production");
  if (!status.ok()) context.report.fail("session production: " + status.to_string());
  for (const auto& [index, answers] : kept.answers) {
    const std::string name = "fork" + std::to_string(index);
    status = session.fork_snapshot("production", name, cuts[index % cuts.size()]);
    if (!status.ok()) {
      context.report.fail("session fork " + name + ": " + status.to_string());
      continue;
    }
    util::Result<verify::PairwiseResult> pairwise = session.pairwise_reachability(name);
    util::Result<verify::DifferentialResult> differential =
        session.differential_reachability("production", name);
    if (!pairwise.ok() || !differential.ok()) {
      context.report.fail("session queries on " + name + " failed");
      continue;
    }
    compare_answer(context, index, "pairwise", answers[0],
                   service::VerificationService::render_pairwise(*pairwise));
    compare_answer(context, index, "differential", answers[1],
                   service::VerificationService::render_differential(*differential, kMaxRows));
  }
  context.report.record("correctness_samples", std::to_string(kept.answers.size()));

  if (tracer != nullptr) {
    // The base boot and the first four forks replayed in process; off the
    // path, for the full per-layer set: a runner and a 2-run exploration.
    context.report.record("off_path", "scenario.init_ms explore.*");
    LayerInput input;
    input.topology = &setup->production;
    input.fork_ops = {cuts.begin(), cuts.begin() + std::min<size_t>(4, cuts.size())};
    replay_layers(context, input);
    probe_explore(context, setup->production);
    return;
  }
  // Last, as it replaces the set-up everything above refers to.
  setups.run(kSetupsPerBatch);
  setups.emit();
}

}  // namespace mfvbench
