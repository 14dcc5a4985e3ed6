// OSPFv2 protocol engine (single backbone area, point-to-point links).
//
// The second IGP of the suite: 3-way hello adjacency, router-LSA flooding
// with sequence numbers, Dijkstra SPF with bidirectional check and ECMP,
// network-statement interface attachment, passive interfaces, and
// per-interface costs. Structure parallels IsisEngine; keys are OSPF
// router-ids rather than ISO system-ids, and participation is derived from
// `network ... area 0` coverage rather than per-interface enables.
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

struct OspfAdjacency {
  enum class State { kInit, kFull };
  State state = State::kInit;
  net::RouterId neighbor;
  net::Ipv4Address neighbor_address;
  net::InterfaceName interface;
  uint32_t cost = 10;
};

class OspfEngine {
 public:
  OspfEngine(RouterEnv& env, const config::DeviceConfig& device);

  bool active() const { return active_; }
  net::RouterId router_id() const { return router_id_; }
  uint32_t process_id() const { return ospf_.process_id; }

  void start();

  /// Copy of the full instance state bound to a new env, sharing the LSDB;
  /// valid only while the owning emulation is quiescent (scenario-engine
  /// fork).
  std::unique_ptr<OspfEngine> fork(RouterEnv& env) const;

  void handle(const net::InterfaceName& in_interface, const Message& message);
  void interfaces_changed();
  void shutdown();

  const std::map<net::InterfaceName, OspfAdjacency>& adjacencies() const {
    return adjacencies_;
  }
  const Lsdb<OspfLsa>& database() const { return lsdb_; }
  uint32_t spf_runs() const { return spf_runs_; }

 private:
  OspfEngine(RouterEnv& env, const OspfEngine& other);

  /// True if the interface participates (covered by a network statement).
  bool participates(const InterfaceView& interface) const;
  bool passive(const InterfaceView& interface) const;
  uint32_t cost_of(const net::InterfaceName& name) const;

  void send_hello(const InterfaceView& interface);
  void handle_hello(const net::InterfaceName& in_interface, const OspfHello& hello);
  void handle_lsa(const net::InterfaceName& in_interface, const OspfLsaPtr& lsa);
  void regenerate_lsa();
  /// Stores `lsa` as our own LSA and floods it everywhere.
  void originate(OspfLsa lsa);
  void flood(const OspfLsaPtr& lsa, const net::InterfaceName& except);
  void schedule_spf();
  void run_spf();

  std::vector<net::RouterId> seen_on(const net::InterfaceName& interface) const;

  RouterEnv& env_;
  bool active_ = false;
  net::RouterId router_id_;
  config::OspfConfig ospf_;
  std::map<net::InterfaceName, uint32_t> costs_;

  std::map<net::InterfaceName, OspfAdjacency> adjacencies_;
  Lsdb<OspfLsa> lsdb_;
  uint32_t own_sequence_ = 0;
  bool spf_pending_ = false;
  uint32_t spf_runs_ = 0;
};

}  // namespace mfv::proto
