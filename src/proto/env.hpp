// Services a virtual router provides to its protocol engines.
//
// Engines are passive state machines: they react to configuration,
// interface events, timers, and received messages, and they act on the
// world only through this interface — sending messages, scheduling timers,
// and installing routes into the shared RIB. The VirtualRouter implements
// it on top of the emulation kernel.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/types.hpp"
#include "proto/messages.hpp"
#include "rib/rib.hpp"
#include "util/time.hpp"

namespace mfv::proto {

/// Live view of one interface (config + oper status), provided by the
/// router to its engines.
struct InterfaceView {
  net::InterfaceName name;
  std::optional<net::InterfaceAddress> address;
  bool up = false;          // admin up, link up, routed
  bool isis_enabled = false;
  bool isis_passive = false;
  uint32_t isis_metric = 10;
  bool mpls_enabled = false;
  /// VRF binding; engines only operate on default-instance ("") interfaces.
  std::string vrf;
};

class RouterEnv {
 public:
  virtual ~RouterEnv() = default;

  virtual const net::NodeName& node_name() const = 0;

  /// Interfaces in deterministic (name) order.
  virtual std::vector<InterfaceView> interfaces() const = 0;

  /// One interface by name; nullopt if the router has no such interface.
  virtual std::optional<InterfaceView> interface(const net::InterfaceName& name) const = 0;

  /// Sends a link-scoped message out of an interface (IS-IS hellos/LSPs).
  /// Silently dropped if the interface is down or unconnected.
  virtual void send_on_interface(const net::InterfaceName& interface,
                                 const Message& message) = 0;

  /// Sends an addressed message toward `destination` (BGP, RSVP). Delivery
  /// requires the destination to be a reachable router address; otherwise
  /// the message is lost, like a TCP segment with no route.
  virtual void send_addressed(net::Ipv4Address destination, const Message& message) = 0;

  /// Schedules `fn` to run after `delay` of virtual time.
  virtual void schedule(util::Duration delay, std::function<void()> fn) = 0;

  virtual util::TimePoint now() const = 0;

  /// The shared RIB. Engines that change it must call `notify_rib_changed`
  /// afterwards so dependents (FIB compile, BGP next-hop validation,
  /// recursive resolution) can react.
  virtual rib::Rib& rib() = 0;
  virtual void notify_rib_changed() = 0;

  /// True if `address` is currently reachable per the RIB (session
  /// liveness gate for BGP).
  virtual bool reachable(net::Ipv4Address address) const = 0;
};

}  // namespace mfv::proto
