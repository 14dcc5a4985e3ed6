#include "proto/ospf.hpp"

#include "util/logging.hpp"

namespace mfv::proto {

std::optional<net::RouterId> Ospf::configure(const config::DeviceConfig& device,
                                             const net::NodeName& node) {
  if (!device.ospf.enabled) return std::nullopt;
  std::optional<net::RouterId> router_id = device.ospf.router_id;
  if (!router_id) router_id = device.effective_router_id();
  if (!router_id) {
    MFV_LOG(kWarn, "ospf") << node << ": no usable router-id, OSPF disabled";
    return std::nullopt;
  }
  config_ = device.ospf;
  source_ = std::to_string(config_.process_id);
  for (const auto& [name, iface] : device.interfaces) costs_[name] = iface.ospf_cost;
  return router_id;
}

bool Ospf::passive(const InterfaceView& interface) const {
  // Loopbacks never form adjacencies.
  if (interface.name.rfind("Loopback", 0) == 0 || interface.name.rfind("lo", 0) == 0)
    return true;
  return config_.is_passive(interface.name);
}

uint32_t Ospf::metric(const InterfaceView& interface) const {
  auto it = costs_.find(interface.name);
  return it == costs_.end() ? 10 : it->second;
}

}  // namespace mfv::proto
