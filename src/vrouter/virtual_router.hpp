// VirtualRouter: the emulated device.
//
// Plays the role of a vendor router container in the paper's KNE cluster:
// it takes a parsed vendor configuration, runs the real protocol engines
// (IS-IS, OSPF, BGP, RSVP-TE) against the shared RIB (plus per-VRF RIBs
// for non-default network instances), and continuously compiles the
// converged state into OpenConfig-shaped AFTs that the gNMI layer
// exports. The control-plane code path is identical regardless of which
// vendor dialect produced the DeviceConfig — differences live in parsing
// and in per-vendor behaviour knobs (boot time, TE signaling timers).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aft/aft.hpp"
#include "config/device_config.hpp"
#include "proto/bgp.hpp"
#include "proto/env.hpp"
#include "proto/isis.hpp"
#include "proto/mpls.hpp"
#include "proto/ospf.hpp"
#include "rib/rib.hpp"
#include "util/time.hpp"

namespace mfv::vrouter {

/// Resolves a named config ACL into the flat rule list carried in AFT
/// interface state (entries in sequence order). Shared by the emulated
/// router and the model baseline so both backends export filters the same
/// way.
std::vector<aft::AclRule> resolve_acl(const config::Acl& acl);

/// Transport + timer services the emulation layer provides to routers.
class Fabric {
 public:
  virtual ~Fabric() = default;
  /// Delivers a link-scoped message out of (node, interface) to whatever is
  /// connected at the far end.
  virtual void send_on_interface(const net::NodeName& node,
                                 const net::InterfaceName& interface,
                                 const proto::Message& message) = 0;
  /// Delivers an addressed message from `node` toward `destination`.
  virtual void send_addressed(const net::NodeName& node, net::Ipv4Address destination,
                              const proto::Message& message) = 0;
  /// Schedules a timer on behalf of `node`. The node attribution is what
  /// lets the sharded kernel place the callback on the node's own shard
  /// (and order it deterministically); every router timer self-attributes.
  virtual void schedule(const net::NodeName& node, util::Duration delay,
                        std::function<void()> fn) = 0;
  virtual util::TimePoint now() const = 0;
};

struct VirtualRouterOptions {
  proto::BgpEngineOptions bgp;
  proto::TeOptions te;
};

class VirtualRouter final : public proto::RouterEnv {
 public:
  VirtualRouter(config::DeviceConfig config, Fabric& fabric,
                VirtualRouterOptions options = {});
  ~VirtualRouter() override;

  VirtualRouter(const VirtualRouter&) = delete;
  VirtualRouter& operator=(const VirtualRouter&) = delete;

  /// Copy of the entire device onto a new fabric: configuration, all
  /// RIBs/FIBs, and every protocol engine's session/adjacency/LSDB state.
  /// RIBs, FIBs and LSDBs are shared copy-on-write with this router.
  /// Only valid while no callbacks are pending on the owning fabric (the
  /// emulation kernel is idle), because scheduled callbacks are not — and
  /// cannot be — cloned. The copy continues exactly where the original
  /// would: this is the per-router half of Emulation::fork().
  std::unique_ptr<VirtualRouter> fork(Fabric& fabric) const;

  /// Boots the control plane: installs connected/local/static routes and
  /// starts the protocol engines.
  void start();

  /// Replaces the running configuration (control plane restarts with the
  /// new config; the paper notes re-configuration converges much faster
  /// than initial bring-up because containers stay up).
  void apply_config(config::DeviceConfig config);

  /// Link state changes driven by the emulation (topology wiring, link
  /// cuts). `connected` means the far end exists and the link is up.
  void set_link_state(const net::InterfaceName& interface, bool connected);

  /// Programmatic (gRIBI-style) route injection: installs `prefix` with
  /// the given next hops at admin distance 5, replacing any previously
  /// programmed entry for the prefix. Used by SDN controllers.
  void program_route(const net::Ipv4Prefix& prefix,
                     const std::vector<net::Ipv4Address>& next_hops);
  /// Removes a programmed entry; returns false if none existed.
  bool unprogram_route(const net::Ipv4Prefix& prefix);
  /// Removes every programmed entry; returns how many routes were dropped.
  size_t unprogram_all();
  /// Currently programmed entries (prefix -> next hops).
  std::map<net::Ipv4Prefix, std::vector<net::Ipv4Address>> programmed_routes() const;

  /// Message ingress from the fabric.
  void deliver_on_interface(const net::InterfaceName& interface,
                            const proto::Message& message);
  void deliver_addressed(const proto::Message& message);

  /// True if `address` is one of this router's own interface addresses.
  bool owns_address(net::Ipv4Address address) const;

  // -- dataplane export (gNMI-facing) --
  const aft::Aft& fib() const { return fib_; }
  aft::DeviceAft device_aft() const;
  /// device_aft() with the tables compiled from scratch out of the current
  /// RIBs (rib::compile_fib plus the TE label entries). Equal to
  /// device_aft() after every FIB compile, which patches instead; the
  /// fuzz `fib` oracle checks that.
  aft::DeviceAft recompiled_device_aft() const;
  /// Monotonic counter bumped whenever forwarding behaviour changes.
  uint64_t fib_version() const { return fib_version_; }
  util::TimePoint last_fib_change() const { return last_fib_change_; }

  // -- observability / CLI --
  const config::DeviceConfig& configuration() const { return config_; }
  const rib::Rib& routing_table() const { return rib_; }
  /// Non-default VRF routing table; nullptr when the VRF has no routes.
  const rib::Rib* vrf_routing_table(const std::string& vrf) const {
    auto it = vrf_ribs_.find(vrf);
    return it == vrf_ribs_.end() ? nullptr : &it->second;
  }
  const proto::IsisEngine* isis() const { return isis_.get(); }
  const proto::OspfEngine* ospf() const { return ospf_.get(); }
  const proto::BgpEngine* bgp() const { return bgp_.get(); }
  const proto::TeEngine* te() const { return te_.get(); }

  // -- proto::RouterEnv --
  const net::NodeName& node_name() const override { return config_.hostname; }
  std::vector<proto::InterfaceView> interfaces() const override;
  std::optional<proto::InterfaceView> interface(const net::InterfaceName& name) const override;
  void send_on_interface(const net::InterfaceName& interface,
                         const proto::Message& message) override;
  void send_addressed(net::Ipv4Address destination, const proto::Message& message) override;
  void schedule(util::Duration delay, std::function<void()> fn) override;
  util::TimePoint now() const override { return fabric_.now(); }
  rib::Rib& rib() override { return rib_; }
  void notify_rib_changed() override;
  bool reachable(net::Ipv4Address address) const override;

 private:
  VirtualRouter(const VirtualRouter& other, Fabric& fabric);

  bool interface_up(const config::InterfaceConfig& interface) const;
  proto::InterfaceView view_of(const net::InterfaceName& name,
                               const config::InterfaceConfig& interface) const;
  void install_connected_routes();
  void install_static_routes();
  void schedule_fib_compile();
  void compile_fib_now();
  rib::LabelHops label_hops() const;
  /// Fans the current RIB state out to engines that react to RIB changes.
  void propagate_rib_change();

  config::DeviceConfig config_;
  Fabric& fabric_;
  VirtualRouterOptions options_;
  bool started_ = false;
  /// Guards against being destroyed while callbacks are pending.
  std::shared_ptr<bool> alive_;
  /// Bumped by apply_config: callbacks scheduled by the previous control
  /// plane (whose engines are destroyed) must not fire.
  std::shared_ptr<uint64_t> generation_;

  rib::Rib rib_;
  /// Per-VRF routing tables (non-default instances).
  std::map<std::string, rib::Rib> vrf_ribs_;
  std::unique_ptr<proto::IsisEngine> isis_;
  std::unique_ptr<proto::OspfEngine> ospf_;
  std::unique_ptr<proto::BgpEngine> bgp_;
  std::unique_ptr<proto::TeEngine> te_;

  std::map<net::InterfaceName, bool> link_connected_;

  // A patch that changes a table replaces its copy-on-write block, so
  // forks share the base's compiled FIBs until their first change (and
  // forever if the scenario never touches this router's RIBs).
  aft::Aft fib_;
  std::map<std::string, aft::Aft> vrf_fibs_;
  rib::FibPatcher fib_patcher_;
  std::map<std::string, rib::FibPatcher> vrf_patchers_;
  uint64_t fib_version_ = 0;
  util::TimePoint last_fib_change_;
  bool fib_compile_pending_ = false;
  bool propagating_ = false;
};

}  // namespace mfv::vrouter
