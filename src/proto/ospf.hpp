// OSPFv2 (single backbone area, point-to-point links): what the
// link-state engine needs to know about it.
//
// An instance needs a router-id, configured or derived. An interface
// participates when it is in the default VRF and a `network ... area 0`
// statement covers its address; it forms adjacencies unless it is passive
// (configured so, or a loopback), and advertises its subnet at its
// configured cost. A hello is accepted only from the receiving
// interface's subnet.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "config/device_config.hpp"
#include "proto/env.hpp"
#include "proto/link_state.hpp"
#include "proto/messages.hpp"

namespace mfv::proto {

class Ospf {
 public:
  using Id = net::RouterId;
  using Hello = OspfHello;
  using Lsp = OspfLsa;
  static constexpr rib::Protocol kRibProtocol = rib::Protocol::kOspf;

  /// The instance's router-id, or nullopt when `device` configures no
  /// usable instance (disabled, no router-id to be had).
  std::optional<net::RouterId> configure(const config::DeviceConfig& device,
                                         const net::NodeName& node);
  uint32_t process_id() const { return config_.process_id; }
  const std::string& source() const { return source_; }

  /// Forms adjacencies here (when the interface is up).
  bool adjacent(const InterfaceView& interface) const {
    return participates(interface) && !passive(interface);
  }
  /// Accepts LSAs received here.
  bool floods(const InterfaceView& interface) const { return adjacent(interface); }
  /// Advertises the subnet (when the interface is up and addressed).
  bool advertises(const InterfaceView& interface) const { return participates(interface); }
  uint32_t metric(const InterfaceView& interface) const;

  /// OSPF (unlike IS-IS) requires hello source and receiving interface to
  /// share a subnet; mismatched link addressing keeps the adjacency down.
  bool accepts(const InterfaceView& interface, const OspfHello& hello) const {
    return !interface.address || interface.address->subnet.contains(hello.interface_address);
  }
  OspfHello hello(net::RouterId self, net::Ipv4Address address,
                  std::vector<net::RouterId> seen) const {
    return {self, address, std::move(seen)};
  }
  static net::RouterId sender(const OspfHello& hello) { return hello.router_id; }

 private:
  bool participates(const InterfaceView& interface) const {
    return interface.vrf.empty() && interface.address &&
           config_.covers(interface.address->address);
  }
  bool passive(const InterfaceView& interface) const;

  config::OspfConfig config_;
  std::string source_;
  std::map<net::InterfaceName, uint32_t> costs_;
};

using OspfEngine = LinkStateEngine<Ospf>;
using OspfAdjacency = OspfEngine::Adjacency;

}  // namespace mfv::proto
