#include "proto/isis.hpp"

#include "util/logging.hpp"

namespace mfv::proto {

std::optional<SystemId> Isis::configure(const config::DeviceConfig& device,
                                        const net::NodeName& node) {
  const config::IsisConfig& config = device.isis;
  if (!config.enabled) return std::nullopt;
  auto system_id = SystemId::from_net(config.net);
  if (!system_id) {
    MFV_LOG(kWarn, "isis") << node << ": invalid or missing NET '" << config.net
                           << "', instance disabled";
    return std::nullopt;
  }
  // The real device requires the ipv4 address-family to route IPv4.
  if (!config.af_ipv4_unicast) {
    MFV_LOG(kWarn, "isis") << node << ": ipv4 unicast AF not enabled";
    return std::nullopt;
  }
  instance_ = config.instance;
  level_ = config.level;
  return system_id;
}

uint8_t Isis::level_bits() const {
  constexpr uint8_t kLevelBit1 = 1;
  constexpr uint8_t kLevelBit2 = 2;
  switch (level_) {
    case config::IsisLevel::kLevel1: return kLevelBit1;
    case config::IsisLevel::kLevel2: return kLevelBit2;
    case config::IsisLevel::kLevel12: return kLevelBit1 | kLevelBit2;
  }
  return kLevelBit2;
}

}  // namespace mfv::proto
