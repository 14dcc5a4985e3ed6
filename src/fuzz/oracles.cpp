#include "fuzz/oracles.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>

#include "config/dialect.hpp"
#include "explore/explore.hpp"
#include "util/hash.hpp"
#include "service/protocol.hpp"
#include "service/snapshot_store.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/incremental/incremental.hpp"
#include "verify/queries.hpp"

namespace mfv::fuzz {

namespace {

/// Generous truncation budgets for the per-flow reference: trace_flow's
/// max_paths/max_hops caps are a *documented* divergence from the
/// exhaustive memoized engine, so the oracle lifts them far above anything
/// the generated cases can produce and compares only genuine semantics.
verify::TraceOptions oracle_trace_options() {
  verify::TraceOptions options;
  options.max_hops = 64;
  options.max_paths = 4096;
  return options;
}

Verdict pass(uint32_t oracle) { return Verdict{oracle, true, false, ""}; }

/// The case cannot exercise the oracle; `reason` says why.
Verdict skip(uint32_t oracle, std::string reason) {
  return Verdict{oracle, true, true, std::move(reason)};
}

Verdict fail(uint32_t oracle, std::string detail) {
  if (detail.size() > 2000) detail.resize(2000);
  return Verdict{oracle, false, false, std::move(detail)};
}

util::Result<gnmi::Snapshot> converge_snapshot(const emu::Topology& topology) {
  emu::Emulation emulation;
  util::Status status = emulation.add_topology(topology);
  if (!status.ok()) return status;
  emulation.start_all();
  if (!emulation.run_to_convergence())
    return util::internal_error("topology did not converge within the event budget");
  return gnmi::Snapshot::capture(emulation, "snap");
}

std::string render_row(const net::NodeName& source, const verify::PacketClass& destination,
                       const verify::DispositionSet& dispositions) {
  return source + "|" + destination.to_string() + "|" + dispositions.to_string();
}

std::vector<std::string> render_rows(const verify::ReachabilityResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const verify::ReachabilityRow& row : result.rows)
    rows.push_back(render_row(row.source, row.destination, row.dispositions));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// First differing row of two sorted renderings ("" when equal).
std::string first_diff(const std::vector<std::string>& expected,
                       const std::vector<std::string>& actual) {
  size_t limit = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < limit; ++i)
    if (expected[i] != actual[i])
      return "expected='" + expected[i] + "' actual='" + actual[i] + "'";
  if (expected.size() != actual.size())
    return "row counts differ: expected=" + std::to_string(expected.size()) +
           " actual=" + std::to_string(actual.size());
  return "";
}

// -- oracle 1: per-flow trace_flow reference vs the memoized engine ---------

Verdict check_engines(const FuzzCase& c) {
  gnmi::Snapshot snapshot;
  if (c.mode == Mode::kSynthetic) {
    snapshot = c.snapshot;
  } else {
    util::Result<gnmi::Snapshot> converged = converge_snapshot(c.topology);
    if (!converged.ok())
      return skip(kOracleEngines, converged.status().message());
    snapshot = std::move(converged.value());
  }
  verify::ForwardingGraph graph(snapshot);

  // Reference: one independent trace_flow walk per (source, class) pair.
  std::vector<verify::PacketClass> classes =
      verify::compute_packet_classes(graph.relevant_prefixes());
  std::vector<std::string> reference_rows;
  std::vector<std::string> reference_loops;
  for (const net::NodeName& source : graph.nodes()) {
    for (const verify::PacketClass& cls : classes) {
      verify::DispositionSet dispositions =
          verify::trace_flow(graph, source, cls.representative(), oracle_trace_options())
              .dispositions;
      reference_rows.push_back(render_row(source, cls, dispositions));
      if (dispositions.contains(verify::Disposition::kLoop))
        reference_loops.push_back(reference_rows.back());
    }
  }
  std::sort(reference_rows.begin(), reference_rows.end());
  std::sort(reference_loops.begin(), reference_loops.end());

  for (unsigned threads : {1u, 4u}) {
    verify::QueryOptions options;
    options.threads = threads;
    std::string where = " at threads=" + std::to_string(threads) + ": ";
    if (std::string diff =
            first_diff(reference_rows, render_rows(verify::reachability(graph, options)));
        !diff.empty())
      return fail(kOracleEngines, "reachability diverged from trace_flow" + where + diff);
    if (std::string diff =
            first_diff(reference_loops, render_rows(verify::detect_loops(graph, options)));
        !diff.empty())
      return fail(kOracleEngines, "detect_loops diverged from trace_flow" + where + diff);
  }
  return pass(kOracleEngines);
}

// -- oracle 2: fork + re-converge vs cold boot ------------------------------

/// `snapshot` with tables of its own: a capture shares the routers' table
/// storage, so only a private copy still shows a later write through it.
gnmi::Snapshot unshared(gnmi::Snapshot snapshot) {
  auto unshare = [](aft::Aft& table) {
    aft::Aft copy;
    copy.replace_tables(table.next_hops(), table.groups(), table.ipv4_entries(),
                        table.label_entries());
    table = std::move(copy);
  };
  for (auto& [node, device] : snapshot.devices) {
    unshare(device.aft);
    for (auto& [name, instance] : device.instances) unshare(instance);
  }
  return snapshot;
}

Verdict check_fork(const FuzzCase& c) {
  emu::Emulation cold;
  if (!cold.add_topology(c.topology).ok())
    return skip(kOracleFork, "topology rejected");
  cold.start_all();
  if (!cold.run_to_convergence()) return skip(kOracleFork, "unconverged");

  emu::Emulation base;
  if (!base.add_topology(c.topology).ok())
    return skip(kOracleFork, "topology rejected");
  base.start_all();
  if (!base.run_to_convergence()) return skip(kOracleFork, "unconverged");

  // Two boots of the same bytes must agree before any perturbation — the
  // determinism precondition everything else builds on.
  gnmi::Snapshot base_before = unshared(gnmi::Snapshot::capture(base, "snap"));
  if (gnmi::Snapshot::capture(cold, "snap") != base_before)
    return fail(kOracleFork, "two cold boots of the same topology diverged");

  std::unique_ptr<emu::Emulation> fork = base.fork();
  if (fork == nullptr) return fail(kOracleFork, "converged base refused to fork");

  for (const scenario::Perturbation& perturbation : c.perturbations) {
    bool cold_applied = scenario::ScenarioRunner::apply(cold, perturbation);
    bool fork_applied = scenario::ScenarioRunner::apply(*fork, perturbation);
    if (cold_applied != fork_applied)
      return fail(kOracleFork, "perturbation applied to one pipeline only: " +
                                   scenario::perturbation_to_string(perturbation));
  }
  if (!cold.run_to_convergence() || !fork->run_to_convergence())
    return skip(kOracleFork, "perturbed network did not re-converge");

  if (gnmi::Snapshot::capture(cold, "snap") != gnmi::Snapshot::capture(*fork, "snap"))
    return fail(kOracleFork, "forked dataplane diverged from cold boot after " +
                                 std::to_string(c.perturbations.size()) +
                                 " perturbation(s)");

  // The fork must not write through into the base it copied.
  if (gnmi::Snapshot::capture(base, "snap") != base_before)
    return fail(kOracleFork, "perturbing the fork mutated the base emulation");

  return pass(kOracleFork);
}

// -- oracle 3: snapshot-store hit vs independent rebuild --------------------

Verdict check_store(const FuzzCase& c) {
  service::SnapshotStore store;
  service::SnapshotKey key = service::key_for_topology(c.topology);
  auto builder = [&c]() {
    return service::make_entry(scenario::VerifiedState::boot(c.topology, "snap"));
  };

  util::Result<service::SnapshotStore::Lease> first = store.get_or_build(service::kDefaultTenant, key, builder);
  if (!first.ok()) return skip(kOracleStore, first.status().message());
  util::Result<service::SnapshotStore::Lease> second = store.get_or_build(service::kDefaultTenant, key, builder);
  if (!second.ok()) return fail(kOracleStore, "hit path failed after successful build");
  if (!second->hit) return fail(kOracleStore, "second lookup of one key was a miss");

  util::Result<std::unique_ptr<service::StoredSnapshot>> rebuilt = builder();
  if (!rebuilt.ok()) return fail(kOracleStore, "independent rebuild failed after hit");
  if (second->entry->graph->snapshot() != (*rebuilt)->graph->snapshot())
    return fail(kOracleStore, "cached base snapshot differs from a rebuild");

  if (c.perturbations.empty()) return pass(kOracleStore);

  // Forked key: cache the fork, hit it, compare against a cold boot that
  // applies the same perturbations.
  service::SnapshotKey fork_key = service::key_for_fork(key, c.perturbations);
  auto fork_builder = [&]() {
    return service::make_entry(
        scenario::VerifiedState::fork(*first->entry->emulation, c.perturbations, "snap"));
  };
  util::Result<service::SnapshotStore::Lease> forked =
      store.get_or_build(service::kDefaultTenant, fork_key, fork_builder);
  if (!forked.ok()) return skip(kOracleStore, forked.status().message());
  util::Result<service::SnapshotStore::Lease> forked_hit =
      store.get_or_build(service::kDefaultTenant, fork_key, fork_builder);
  if (!forked_hit.ok() || !forked_hit->hit)
    return fail(kOracleStore, "second lookup of fork key was not a hit");

  emu::Emulation cold;
  if (!cold.add_topology(c.topology).ok())
    return skip(kOracleStore, "topology rejected");
  cold.start_all();
  if (!cold.run_to_convergence()) return skip(kOracleStore, "unconverged");
  for (const scenario::Perturbation& perturbation : c.perturbations)
    if (!scenario::ScenarioRunner::apply(cold, perturbation))
      return skip(kOracleStore, "perturbation target missing on cold boot");
  if (!cold.run_to_convergence())
    return skip(kOracleStore, "cold boot did not re-converge");
  if (forked_hit->entry->graph->snapshot() != gnmi::Snapshot::capture(cold, "snap"))
    return fail(kOracleStore,
                "cached forked snapshot differs from a cold-booted equivalent");

  return pass(kOracleStore);
}

// -- oracle 4: dialect round-trips + literal canonicalization ---------------

/// Rewrites a config into the other dialect's interface namespace, fixing
/// every cross-reference that names an interface.
config::DeviceConfig to_vendor(const config::DeviceConfig& in, config::Vendor target) {
  auto rename = [target](const net::InterfaceName& name) -> net::InterfaceName {
    if (target == config::Vendor::kVjun) {
      if (name.rfind("Ethernet", 0) == 0) return "et-0/0/" + name.substr(8) + ".0";
      if (name.rfind("Loopback", 0) == 0) return "lo0.0";
    } else {
      if (name.rfind("et-", 0) == 0) {
        size_t slash = name.rfind('/');
        size_t dot = name.rfind('.');
        if (slash != std::string::npos && dot != std::string::npos && dot > slash)
          return "Ethernet" + name.substr(slash + 1, dot - slash - 1);
      }
      if (name.rfind("lo", 0) == 0) return "Loopback0";
    }
    return name;
  };
  config::DeviceConfig out = in;
  out.vendor = target;
  // Management features are raw native-dialect lines; they have no
  // cross-dialect rendering, so the rewrite drops them (same-dialect
  // round-trips still cover them).
  out.management_features.clear();
  out.interfaces.clear();
  for (const auto& [name, iface] : in.interfaces) {
    config::InterfaceConfig copy = iface;
    copy.name = rename(name);
    out.interfaces[copy.name] = copy;
  }
  for (net::InterfaceName& passive : out.ospf.passive_interfaces)
    passive = rename(passive);
  for (config::StaticRoute& route : out.static_routes)
    if (route.exit_interface) route.exit_interface = rename(*route.exit_interface);
  for (config::BgpNeighborConfig& neighbor : out.bgp.neighbors)
    if (neighbor.update_source) neighbor.update_source = rename(*neighbor.update_source);
  return out;
}

/// write∘parse must be a fixpoint: text the writer emits parses cleanly
/// and re-emits byte-identically.
std::string check_fixpoint(const config::DeviceConfig& config, const std::string& who) {
  std::string text1 = config::write_config(config);
  config::ParseResult parsed = config::parse_config(text1, config.vendor);
  if (parsed.diagnostics.error_count() > 0)
    return who + ": writer emitted text its own parser rejects (" +
           std::to_string(parsed.diagnostics.error_count()) + " errors)";
  std::string text2 = config::write_config(parsed.config);
  if (text1 != text2) return who + ": write/parse/write is not a fixpoint";
  return "";
}

/// Any dotted-quad (or prefix) literal the parser ACCEPTS must render
/// back to the exact accepted text; accepted-but-normalized literals mean
/// the verifier silently checks a different network than the operator
/// wrote ("10.0.0.01" as 10.0.0.1, "/032" as /32).
std::string check_canonical(const std::string& token) {
  size_t slash = token.find('/');
  if (slash == std::string::npos) {
    if (auto address = net::Ipv4Address::parse(token);
        address && address->to_string() != token)
      return "address '" + token + "' accepted but renders as '" +
             address->to_string() + "'";
    return "";
  }
  if (auto iface = net::InterfaceAddress::parse(token);
      iface && iface->to_string() != token)
    return "interface address '" + token + "' accepted but renders as '" +
           iface->to_string() + "'";
  if (auto prefix = net::Ipv4Prefix::parse(token)) {
    // Host bits are normalized away by design, so compare the parts that
    // must survive: the mask text and the address literal itself.
    std::string mask_text(token.substr(slash + 1));
    if (mask_text != std::to_string(prefix->length()))
      return "prefix '" + token + "' accepted with non-canonical mask text";
    std::string addr_text(token.substr(0, slash));
    auto address = net::Ipv4Address::parse(addr_text);
    if (!address || address->to_string() != addr_text)
      return "prefix '" + token + "' accepted with non-canonical address text";
  }
  return "";
}

std::string scan_literals(const std::string& text) {
  std::istringstream stream(text);
  std::string token;
  while (stream >> token)
    if (std::string problem = check_canonical(token); !problem.empty()) return problem;
  return "";
}

Verdict check_dialect(const FuzzCase& c) {
  for (const std::string& literal : c.literals)
    if (std::string problem = check_canonical(literal); !problem.empty())
      return fail(kOracleDialect, problem);

  for (const emu::NodeSpec& node : c.topology.nodes) {
    if (std::string problem = scan_literals(node.config_text); !problem.empty())
      return fail(kOracleDialect, node.name + ": " + problem);

    config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
    if (std::string problem = check_fixpoint(parsed.config, node.name + "/native");
        !problem.empty())
      return fail(kOracleDialect, problem);

    config::Vendor other = node.vendor == config::Vendor::kCeos
                               ? config::Vendor::kVjun
                               : config::Vendor::kCeos;
    if (std::string problem =
            check_fixpoint(to_vendor(parsed.config, other), node.name + "/cross");
        !problem.empty())
      return fail(kOracleDialect, problem);
  }

  for (const scenario::Perturbation& perturbation : c.perturbations)
    if (const auto* replace = std::get_if<scenario::ConfigReplace>(&perturbation))
      if (std::string problem = scan_literals(replace->config_text); !problem.empty())
        return fail(kOracleDialect, replace->node + "/replace: " + problem);

  return pass(kOracleDialect);
}

// -- oracle 5: sharded kernel vs serial kernel ------------------------------

/// Boots the case's topology, applies its perturbation sequence, and
/// re-converges after each one, all under `options`. Returns the snapshot
/// JSON plus the counters the sharded kernel promises to preserve, or
/// empty on skip (rejection / non-convergence).
std::string run_case_observables(const FuzzCase& c, emu::EmulationOptions options) {
  emu::Emulation emulation(options);
  if (!emulation.add_topology(c.topology).ok()) return "";
  emulation.start_all();
  if (!emulation.run_to_convergence()) return "";
  for (const scenario::Perturbation& perturbation : c.perturbations) {
    scenario::ScenarioRunner::apply(emulation, perturbation);
    if (!emulation.run_to_convergence()) return "";
  }
  return gnmi::Snapshot::capture(emulation, "snap").to_json().dump() +
         "|delivered=" + std::to_string(emulation.messages_delivered()) +
         "|dropped=" + std::to_string(emulation.messages_dropped()) +
         "|executed=" + std::to_string(emulation.kernel().executed()) +
         "|now=" + std::to_string(emulation.kernel().now().count_micros());
}

Verdict check_sharded(const FuzzCase& c) {
  std::string serial = run_case_observables(c, {});
  if (serial.empty()) return skip(kOracleSharded, "serial run did not settle");
  for (uint32_t shards : {2u, 4u}) {
    emu::EmulationOptions options;
    options.shards = shards;
    std::string sharded = run_case_observables(c, options);
    if (sharded != serial)
      return fail(kOracleSharded,
                  std::to_string(shards) + "-shard run diverged from serial after " +
                      std::to_string(c.perturbations.size()) + " perturbation(s)");
  }
  return pass(kOracleSharded);
}

// -- oracle 6: incremental re-verification vs cold --------------------------

std::string render_cells(const verify::PairwiseResult& result) {
  std::string out;
  for (const verify::PairwiseCell& cell : result.cells)
    out += cell.source + "|" + cell.destination + "|" + (cell.reachable ? "1" : "0") + "\n";
  out += std::to_string(result.reachable_pairs) + "/" + std::to_string(result.total_pairs);
  return out;
}

/// Why splicing `candidate` from `base` differs from verifying it cold, or
/// "" when the answers match. Never falls back on size: a huge dirty set
/// must still splice correctly (the fallback path is trivially identical —
/// it *is* the cold path).
std::string splice_mismatch(const verify::IncrementalBase& base,
                            const verify::ForwardingGraph& candidate,
                            const verify::QueryOptions& options) {
  verify::IncrementalStats stats;
  verify::QueryOptions incremental = options;
  incremental.incremental = &base;
  incremental.incremental_max_dirty_fraction = 1.0;
  incremental.incremental_stats = &stats;
  std::string cold_cells = render_cells(verify::pairwise_reachability(candidate, options));
  std::string spliced_cells =
      render_cells(verify::pairwise_reachability(candidate, incremental));
  if (cold_cells == spliced_cells) return "";
  return "spliced=" + std::to_string(stats.spliced) +
         " retraced=" + std::to_string(stats.retraced) +
         (stats.fell_back ? " fallback=" + stats.fallback_reason : "");
}

/// Toggles a synthetic edit's packet filter: removes `acl`, or attaches
/// one that denies the loopbacks under `denied` (inside the synthetic
/// 10.255.0.0/16 block) and permits everything else.
void toggle_filter(std::optional<std::vector<aft::AclRule>>& acl, const char* denied) {
  if (acl)
    acl.reset();
  else
    acl = std::vector<aft::AclRule>{{false, *net::Ipv4Prefix::parse(denied)},
                                    {true, net::Ipv4Prefix()}};
}

/// One edit of a synthetic snapshot, named for the failure message.
struct SnapshotEdit {
  std::string name;
  std::function<void(gnmi::Snapshot&)> apply;
};

/// The single-step edits the synthetic incremental oracle splices, read
/// off the snapshot itself so a case replays from its JSON alone: per
/// interface, flip oper_up and toggle a loopback-denying acl_in and
/// acl_out; per device, erase its first IPv4 entry, point its last at
/// another group, erase its first label entry, and take the next device's
/// Ethernet0 address.
std::vector<SnapshotEdit> snapshot_edits(const gnmi::Snapshot& snapshot) {
  std::vector<SnapshotEdit> edits;
  auto add = [&](std::string name, std::function<void(gnmi::Snapshot&)> apply) {
    edits.push_back({std::move(name), std::move(apply)});
  };
  for (auto it = snapshot.devices.begin(); it != snapshot.devices.end(); ++it) {
    const net::NodeName& node = it->first;
    for (const auto& [name, state] : it->second.interfaces) {
      auto at = [node, name](gnmi::Snapshot& s) -> aft::InterfaceState& {
        return s.devices.at(node).interfaces.at(name);
      };
      const std::string where = node + "/" + name;
      add(where + " flip oper_up", [at](gnmi::Snapshot& s) { at(s).oper_up = !at(s).oper_up; });
      add(where + " toggle acl_in",
          [at](gnmi::Snapshot& s) { toggle_filter(at(s).acl_in, "10.255.0.0/30"); });
      add(where + " toggle acl_out",
          [at](gnmi::Snapshot& s) { toggle_filter(at(s).acl_out, "10.255.0.2/31"); });
    }

    const aft::Aft& aft = it->second.aft;
    auto table = [node](gnmi::Snapshot& s) -> aft::Aft& { return s.devices.at(node).aft; };
    if (!aft.ipv4_entries().empty()) {
      add(node + " erase first ipv4 entry", [table](gnmi::Snapshot& s) {
        aft::Aft& a = table(s);
        std::vector<aft::Ipv4Entry> entries = a.ipv4_entries();
        entries.erase(entries.begin());
        a.replace_tables(a.next_hops(), a.groups(), std::move(entries), a.label_entries());
      });
      aft::Ipv4Entry last = aft.ipv4_entries().back();
      for (const aft::NextHopGroup& group : aft.groups()) {
        if (group.id == last.next_hop_group) continue;
        last.next_hop_group = group.id;
        add(node + " repoint last ipv4 entry",
            [table, last](gnmi::Snapshot& s) { table(s).set_ipv4_entry(last); });
        break;
      }
    }
    if (!aft.label_entries().empty()) {
      add(node + " erase first label entry", [table](gnmi::Snapshot& s) {
        aft::Aft& a = table(s);
        std::vector<aft::LabelEntry> labels = a.label_entries();
        labels.erase(labels.begin());
        a.replace_tables(a.next_hops(), a.groups(), a.ipv4_entries(), std::move(labels));
      });
    }

    auto next = std::next(it) == snapshot.devices.end() ? snapshot.devices.begin() : std::next(it);
    auto from = next->second.interfaces.find("Ethernet0");
    if (it->second.interfaces.count("Ethernet0") > 0 && from != next->second.interfaces.end()) {
      std::optional<net::InterfaceAddress> address = from->second.address;
      add(node + " takes " + next->first + "'s Ethernet0 address",
          [node, address](gnmi::Snapshot& s) {
            s.devices.at(node).interfaces.at("Ethernet0").address = address;
          });
    }
  }
  return edits;
}

/// Synthetic mode: splice each single edit of the case's snapshot against
/// the snapshot itself.
Verdict check_incremental_synthetic(const FuzzCase& c) {
  verify::ForwardingGraph base_graph(c.snapshot);
  verify::QueryOptions options;
  options.threads = 4;
  std::unique_ptr<verify::IncrementalBase> verify_base =
      verify::capture_incremental_base(base_graph, options);
  for (const SnapshotEdit& edit : snapshot_edits(c.snapshot)) {
    gnmi::Snapshot edited = c.snapshot;
    edit.apply(edited);
    verify::ForwardingGraph candidate(std::move(edited));
    if (std::string mismatch = splice_mismatch(*verify_base, candidate, options);
        !mismatch.empty())
      return fail(kOracleIncremental, "incremental pairwise diverged from cold after edit '" +
                                          edit.name + "' (" + mismatch + ")");
  }
  return pass(kOracleIncremental);
}

Verdict check_incremental(const FuzzCase& c) {
  if (c.mode == Mode::kSynthetic) return check_incremental_synthetic(c);
  emu::Emulation base;
  if (!base.add_topology(c.topology).ok())
    return skip(kOracleIncremental, "topology rejected");
  base.start_all();
  if (!base.run_to_convergence())
    return skip(kOracleIncremental, "unconverged");

  verify::ForwardingGraph base_graph(gnmi::Snapshot::capture(base, "base"));
  verify::QueryOptions options;
  options.threads = 4;
  std::unique_ptr<verify::IncrementalBase> verify_base =
      verify::capture_incremental_base(base_graph, options);

  std::unique_ptr<emu::Emulation> fork = base.fork();
  if (fork == nullptr)
    return fail(kOracleIncremental, "converged base refused to fork");
  for (const scenario::Perturbation& perturbation : c.perturbations)
    scenario::ScenarioRunner::apply(*fork, perturbation);
  if (!fork->run_to_convergence())
    return skip(kOracleIncremental, "perturbed network did not re-converge");

  verify::ForwardingGraph candidate(gnmi::Snapshot::capture(*fork, "candidate"));
  if (std::string mismatch = splice_mismatch(*verify_base, candidate, options);
      !mismatch.empty())
    return fail(kOracleIncremental, "incremental pairwise diverged from cold after " +
                                        std::to_string(c.perturbations.size()) +
                                        " perturbation(s) (" + mismatch + ")");
  return pass(kOracleIncremental);
}

// -- oracle 7: exploration soundness (sampled ⊆ exhaustive) -----------------

Verdict check_explore(const FuzzCase& c) {
  // Exploration is exponential in co-pending deliveries; gate it to small
  // topologies and tight caps, and treat every truncation as a skip —
  // membership is only a theorem for complete enumerations.
  if (c.topology.nodes.size() > 6)
    return skip(kOracleExplore, "topology too large to enumerate");

  emu::Emulation base;
  if (!base.add_topology(c.topology).ok())
    return skip(kOracleExplore, "topology rejected");

  explore::ExploreInput input;
  input.base = &base;
  input.start = true;
  explore::ExploreOptions options;
  options.max_runs = 128;
  options.max_states = 64;
  options.max_choice_points = 12;
  options.verify_properties = false;
  options.keep_state_bytes = true;  // byte-exact membership below
  util::Result<explore::ExploreResult> result = explore::explore(input, options);
  if (!result.ok())
    return skip(kOracleExplore, result.status().message());
  if (!result->complete)
    return skip(kOracleExplore, "exploration truncated by caps");

  // Jitter below the addressed-message latency can only flip deliveries
  // that are co-pending — exactly the pairs the exploration branches on —
  // so every jitter-sampled converged state must be in the explored set.
  for (uint64_t sample_seed = 1; sample_seed <= 4; ++sample_seed) {
    emu::EmulationOptions sample_options;
    sample_options.seed = sample_seed;
    sample_options.message_jitter_micros = 500;
    emu::Emulation sampled(sample_options);
    if (!sampled.add_topology(c.topology).ok())
      return skip(kOracleExplore, "topology rejected");
    sampled.start_all();
    if (!sampled.run_to_convergence())
      return skip(kOracleExplore, "jittered boot did not converge");
    explore::CanonicalState state = explore::canonicalize(sampled);
    if (!result->contains(state))
      return fail(kOracleExplore,
                  "jitter seed " + std::to_string(sample_seed) +
                      " converged to a state outside the exhaustive set (hash " +
                      util::hex64(state.hash) + "; explored " +
                      std::to_string(result->unique_states) + " states over " +
                      std::to_string(result->runs) + " runs)");
  }
  return pass(kOracleExplore);
}

// -- oracle 8: patched FIBs and diff-installed IS-IS routes vs rebuilds ----

/// Empty when every router's exported tables equal a from-scratch compile
/// of its RIBs and its IS-IS routes equal a full reinstall of its last SPF
/// run; otherwise names the first router that breaks either.
std::string fib_mismatch(const emu::Emulation& emulation) {
  for (const net::NodeName& name : emulation.node_names()) {
    const vrouter::VirtualRouter* router = emulation.router(name);
    if (router->device_aft() != router->recompiled_device_aft())
      return name + ": patched FIB differs from a from-scratch compile";
    if (const proto::IsisEngine* isis = router->isis()) {
      rib::Rib reinstalled = router->routing_table();
      if (reinstalled.replace_protocol(rib::Protocol::kIsis, isis->instance(),
                                       isis->spf_routes()))
        return name + ": IS-IS routes differ from a full reinstall of the last SPF run";
    }
  }
  return "";
}

Verdict check_fib(const FuzzCase& c) {
  emu::Emulation base;
  if (!base.add_topology(c.topology).ok()) return skip(kOracleFib, "topology rejected");
  base.start_all();
  if (!base.run_to_convergence()) return skip(kOracleFib, "unconverged");
  if (std::string problem = fib_mismatch(base); !problem.empty())
    return fail(kOracleFib, "after boot: " + problem);

  std::unique_ptr<emu::Emulation> fork = base.fork();
  if (fork == nullptr) return fail(kOracleFib, "converged base refused to fork");
  for (size_t i = 0; i < c.perturbations.size(); ++i) {
    scenario::ScenarioRunner::apply(*fork, c.perturbations[i]);
    if (!fork->run_to_convergence())
      return skip(kOracleFib, "perturbed network did not re-converge");
    if (std::string problem = fib_mismatch(*fork); !problem.empty())
      return fail(kOracleFib, "after " +
                                  scenario::perturbation_to_string(c.perturbations[i]) +
                                  ": " + problem);
  }
  return pass(kOracleFib);
}

}  // namespace

std::vector<Verdict> run_oracles(const FuzzCase& c, uint32_t mask) {
  uint32_t applicable = mask & c.oracles();
  std::vector<Verdict> verdicts;
  if (applicable & kOracleEngines) verdicts.push_back(check_engines(c));
  if (applicable & kOracleFork) verdicts.push_back(check_fork(c));
  if (applicable & kOracleStore) verdicts.push_back(check_store(c));
  if (applicable & kOracleDialect) verdicts.push_back(check_dialect(c));
  if (applicable & kOracleSharded) verdicts.push_back(check_sharded(c));
  if (applicable & kOracleIncremental) verdicts.push_back(check_incremental(c));
  if (applicable & kOracleExplore) verdicts.push_back(check_explore(c));
  if (applicable & kOracleFib) verdicts.push_back(check_fib(c));
  return verdicts;
}

std::optional<Verdict> first_failure(const FuzzCase& c, uint32_t mask) {
  for (Verdict& verdict : run_oracles(c, mask))
    if (!verdict.ok) return std::move(verdict);
  return std::nullopt;
}

}  // namespace mfv::fuzz
