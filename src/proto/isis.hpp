// IS-IS link-state protocol engine.
//
// Implements the subset exercised by the paper's evaluation networks at
// full semantic fidelity: 3-way hello adjacency formation, LSP origination
// and reliable flooding with sequence numbers, Dijkstra SPF with the
// bidirectional-link check, equal-cost multipath, passive interfaces, and
// per-interface metrics.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/device_config.hpp"
#include "proto/env.hpp"
#include "proto/lsdb.hpp"
#include "proto/messages.hpp"

namespace mfv::proto {

/// Adjacency on one interface.
struct IsisAdjacency {
  enum class State { kInit, kUp };
  State state = State::kInit;
  SystemId neighbor;
  net::Ipv4Address neighbor_address;
  net::InterfaceName interface;
  uint32_t metric = 10;
};

class IsisEngine {
 public:
  IsisEngine(RouterEnv& env, const config::IsisConfig& config);

  /// True if the configuration yielded a usable instance (enabled, valid
  /// NET with parseable system-id).
  bool active() const { return active_; }
  SystemId system_id() const { return system_id_; }
  const std::string& instance() const { return instance_; }

  /// Begins hello transmission on all eligible interfaces.
  void start();

  /// Copy of the full instance state (adjacencies, LSDB, sequence
  /// numbers) bound to a new env; the LSDB and SPF table are shared. Only valid while no timer callbacks are
  /// pending, i.e. the owning emulation is quiescent (scenario-engine fork).
  std::unique_ptr<IsisEngine> fork(RouterEnv& env) const;

  /// Graceful shutdown: floods a purge LSP (no neighbors, no prefixes) so
  /// the rest of the area withdraws routes through this router. Called
  /// when the instance is being torn down (config replacement). Without
  /// this, neighbors would hold stale state forever — the event-driven
  /// model has no LSP aging.
  void shutdown();

  /// Handles a received IS-IS message (ignores non-IS-IS messages).
  void handle(const net::InterfaceName& in_interface, const Message& message);

  /// Reacts to interface up/down or address changes: drops adjacencies on
  /// dead interfaces, re-hellos on new ones, regenerates the LSP.
  void interfaces_changed();

  // -- observability (CLI `show isis ...`, tests) --
  const std::map<net::InterfaceName, IsisAdjacency>& adjacencies() const {
    return adjacencies_;
  }
  const Lsdb<IsisLsp>& database() const { return lsdb_; }
  uint32_t spf_runs() const { return spf_runs_; }
  /// Every route the last SPF run computed: what a replace_protocol
  /// reinstall of that run would install. Empty before the first run.
  std::vector<rib::RibRoute> spf_routes() const;

 private:
  IsisEngine(RouterEnv& env, const IsisEngine& other);

  void send_hello(const InterfaceView& interface);
  void handle_hello(const net::InterfaceName& in_interface, const IsisHello& hello);
  void handle_lsp(const net::InterfaceName& in_interface, const IsisLspPtr& lsp);

  /// Rebuilds our own LSP from current adjacencies + interface prefixes;
  /// floods and schedules SPF if the content changed.
  void regenerate_lsp();
  /// Stores `lsp` as our own LSP and floods it everywhere.
  void originate(IsisLsp lsp);
  void flood(const IsisLspPtr& lsp, const net::InterfaceName& except);

  void schedule_spf();
  void run_spf();

  /// One SPF run's output, prefix-sorted. Per prefix it holds the (cost,
  /// first-hop set) contributions the install loop keeps, in the order it
  /// emits them: LSDB origin order, each LSP in prefix order, dropping a
  /// contribution that costs more than the cheapest one before it. So a
  /// higher-cost candidate from an earlier origin stays, as it always has.
  /// Immutable once built: forks share it.
  struct SpfTable {
    struct Row {
      net::Ipv4Prefix prefix;
      uint32_t metric = 0;
      uint32_t hops = 0;  // offset of the first-hop mask in `masks`
    };
    /// What first-hop bit i names: adjacency i in interface-name order.
    std::vector<std::pair<net::InterfaceName, net::Ipv4Address>> adjacencies;
    size_t hop_words = 1;
    std::vector<uint64_t> masks;
    std::vector<Row> rows;
  };
  /// Appends rows [begin, end) to `routes` as RIB routes, collapsing
  /// same-slot duplicates within a prefix the way replace_protocol does.
  void append_routes(const SpfTable& table, size_t begin, size_t end,
                     std::vector<rib::RibRoute>& routes) const;

  /// Seen-neighbor set for 3-way handshake on one link.
  std::vector<SystemId> seen_on(const net::InterfaceName& interface) const;

  RouterEnv& env_;
  bool active_ = false;
  SystemId system_id_;
  std::string instance_;
  config::IsisLevel level_ = config::IsisLevel::kLevel2;

  std::map<net::InterfaceName, IsisAdjacency> adjacencies_;
  Lsdb<IsisLsp> lsdb_;
  uint32_t own_sequence_ = 0;
  bool spf_pending_ = false;
  uint32_t spf_runs_ = 0;
  /// The last run's output: the next run installs only its difference.
  std::shared_ptr<const SpfTable> spf_table_;
};

}  // namespace mfv::proto
