// IS-IS: what the link-state engine needs to know about it.
//
// An instance is a NET with a parseable system-id and the ipv4 unicast
// address family. It runs on default-VRF interfaces with `isis enable`
// at their configured metric; hellos carry the instance's level, and a
// hello is accepted only when the levels overlap.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/device_config.hpp"
#include "proto/env.hpp"
#include "proto/link_state.hpp"
#include "proto/messages.hpp"

namespace mfv::proto {

class Isis {
 public:
  using Id = SystemId;
  using Hello = IsisHello;
  using Lsp = IsisLsp;
  static constexpr rib::Protocol kRibProtocol = rib::Protocol::kIsis;

  /// The instance's system-id, or nullopt when `device` configures no
  /// usable instance (disabled, bad NET, no ipv4 address family).
  std::optional<SystemId> configure(const config::DeviceConfig& device,
                                    const net::NodeName& node);
  const std::string& instance() const { return instance_; }
  const std::string& source() const { return instance_; }

  /// Forms adjacencies here (when the interface is up).
  bool adjacent(const InterfaceView& interface) const {
    return interface.vrf.empty() && interface.isis_enabled && !interface.isis_passive;
  }
  /// Accepts LSPs received here.
  bool floods(const InterfaceView& interface) const {
    return interface.isis_enabled && !interface.isis_passive;
  }
  /// Advertises the subnet (when the interface is up and addressed);
  /// VRF prefixes stay out of the IGP.
  bool advertises(const InterfaceView& interface) const {
    return interface.vrf.empty() && interface.isis_enabled;
  }
  uint32_t metric(const InterfaceView& interface) const { return interface.isis_metric; }

  /// Level match.
  bool accepts(const InterfaceView&, const IsisHello& hello) const {
    return (hello.level & level_bits()) != 0;
  }
  IsisHello hello(SystemId self, net::Ipv4Address address, std::vector<SystemId> seen) const {
    return {self, address, level_bits(), std::move(seen)};
  }
  static SystemId sender(const IsisHello& hello) { return hello.system_id; }

 private:
  uint8_t level_bits() const;

  std::string instance_;
  config::IsisLevel level_ = config::IsisLevel::kLevel2;
};

using IsisEngine = LinkStateEngine<Isis>;
using IsisAdjacency = IsisEngine::Adjacency;

}  // namespace mfv::proto
