// One link-state IGP engine for IS-IS and OSPF.
//
// LinkStateEngine runs everything the two IGPs share at the fidelity the
// paper's evaluation networks exercise: 3-way hello adjacency formation,
// LSP origination and reliable flooding with sequence numbers (including
// purge-and-reissue of a stale own LSP), database synchronization when an
// adjacency comes up, and a delayed Dijkstra SPF with the bidirectional
// link check and equal-cost multipath that installs only what changed
// since its last run. Its Protocol parameter (Isis, Ospf) supplies what
// differs: how the config activates an instance, which interfaces run it
// and at what metric, when a hello is accepted, the hello's fields, and
// the RIB protocol and source tag of the routes it installs.
#pragma once

#include <concepts>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/device_config.hpp"
#include "proto/env.hpp"
#include "proto/lsdb.hpp"
#include "proto/messages.hpp"

namespace mfv::proto {

/// Adjacency on one interface (its key in the engine's adjacency map); kUp is
/// IS-IS's Up and OSPF's Full.
template <typename Id>
struct LinkStateAdjacency {
  enum class State { kInit, kUp };
  State state = State::kInit;
  Id neighbor;
  net::Ipv4Address neighbor_address;
  uint32_t metric = 10;
};

class Isis;
class Ospf;
/// One SPF run's output; defined with the engine.
struct SpfTable;

template <typename Protocol>
class LinkStateEngine {
 public:
  using Id = typename Protocol::Id;
  using Lsp = typename Protocol::Lsp;
  using LspPtr = std::shared_ptr<const Lsp>;
  using Adjacency = LinkStateAdjacency<Id>;

  LinkStateEngine(RouterEnv& env, const config::DeviceConfig& device);

  /// True if the configuration yielded a usable instance.
  bool active() const { return active_; }
  SystemId system_id() const requires std::same_as<Protocol, Isis> { return self_; }
  const std::string& instance() const requires std::same_as<Protocol, Isis> {
    return protocol_.instance();
  }
  net::RouterId router_id() const requires std::same_as<Protocol, Ospf> { return self_; }
  uint32_t process_id() const requires std::same_as<Protocol, Ospf> {
    return protocol_.process_id();
  }
  /// The RIB protocol and source tag of the routes this instance installs.
  static constexpr rib::Protocol rib_protocol() { return Protocol::kRibProtocol; }
  const std::string& source() const { return protocol_.source(); }

  /// Begins hello transmission on all eligible interfaces.
  void start();

  /// Copy of the full instance state (adjacencies, LSDB, sequence
  /// numbers) bound to a new env; the LSDB and SPF table are shared. Only
  /// valid while no timer callbacks are pending, i.e. the owning emulation
  /// is quiescent (scenario-engine fork).
  std::unique_ptr<LinkStateEngine> fork(RouterEnv& env) const;

  /// Graceful shutdown: floods a purge LSP (no neighbors, no prefixes) so
  /// the rest of the area withdraws routes through this router. Called
  /// when the instance is being torn down (config replacement). Without
  /// this, neighbors would hold stale state forever — the event-driven
  /// model has no LSP aging.
  void shutdown();

  /// Handles a received message (ignores other protocols' messages).
  void handle(const net::InterfaceName& in_interface, const Message& message);

  /// Reacts to interface up/down or address changes: drops adjacencies on
  /// dead interfaces, re-hellos on new ones, regenerates the LSP.
  void interfaces_changed();

  // -- observability (CLI show commands, tests, fuzz oracles) --
  const std::map<net::InterfaceName, Adjacency>& adjacencies() const { return adjacencies_; }
  const Lsdb<Lsp>& database() const { return lsdb_; }
  uint32_t spf_runs() const { return spf_runs_; }
  /// Every route the last SPF run computed: what a replace_protocol
  /// reinstall of that run would install. Empty before the first run.
  std::vector<rib::RibRoute> spf_routes() const;

 private:
  /// Only fork copies: pending timer callbacks hold `this`.
  LinkStateEngine(const LinkStateEngine&) = default;
  LinkStateEngine& operator=(const LinkStateEngine&) = delete;

  /// Hellos run where the protocol runs adjacencies and the interface is up.
  bool adjacent(const InterfaceView& interface) const {
    return interface.up && protocol_.adjacent(interface);
  }
  void send_hello(const InterfaceView& interface);
  void handle_hello(const net::InterfaceName& in_interface,
                    const typename Protocol::Hello& hello);
  void handle_lsp(const net::InterfaceName& in_interface, const LspPtr& lsp);

  /// Rebuilds our own LSP from current adjacencies + interface prefixes;
  /// floods and schedules SPF if the content changed.
  void regenerate_lsp();
  /// Stores `lsp` as our own LSP and floods it everywhere.
  void originate(Lsp lsp);
  void flood(const LspPtr& lsp, const net::InterfaceName& except);

  void schedule_spf();
  void run_spf();
  /// Appends rows [begin, end) of `table` to `routes` as RIB routes,
  /// collapsing same-slot duplicates within a prefix the way
  /// replace_protocol does.
  void append_routes(const SpfTable& table, size_t begin, size_t end,
                     std::vector<rib::RibRoute>& routes) const;

  /// Seen-neighbor set for 3-way handshake on one link.
  std::vector<Id> seen_on(const net::InterfaceName& interface) const;

  RouterEnv* env_;
  Protocol protocol_;
  bool active_ = false;
  Id self_;

  std::map<net::InterfaceName, Adjacency> adjacencies_;
  Lsdb<Lsp> lsdb_;
  uint32_t own_sequence_ = 0;
  bool spf_pending_ = false;
  uint32_t spf_runs_ = 0;
  /// The last run's output: the next run installs only its difference.
  std::shared_ptr<const SpfTable> spf_table_;
};

}  // namespace mfv::proto
