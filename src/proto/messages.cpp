#include "proto/messages.hpp"

#include <cstdio>

#include "util/strings.hpp"

namespace mfv::proto {

std::string SystemId::to_string() const {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%04x.%04x.%04x",
                static_cast<unsigned>((bits >> 32) & 0xFFFF),
                static_cast<unsigned>((bits >> 16) & 0xFFFF),
                static_cast<unsigned>(bits & 0xFFFF));
  return buffer;
}

std::optional<SystemId> SystemId::parse(std::string_view text) {
  auto groups = util::split(text, '.');
  if (groups.size() != 3) return std::nullopt;
  uint64_t bits = 0;
  for (const auto& group : groups) {
    if (group.size() != 4) return std::nullopt;
    uint64_t value = 0;
    for (char c : group) {
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint64_t>(c - 'A' + 10);
      else return std::nullopt;
    }
    bits = (bits << 16) | value;
  }
  return SystemId{bits};
}

std::optional<SystemId> SystemId::from_net(std::string_view net) {
  // NET = area ("49.0001" possibly multi-group) + system-id (3 groups of 4
  // hex digits) + selector ("00"). Take the 3 groups before the selector.
  auto groups = util::split(net, '.');
  if (groups.size() < 5) return std::nullopt;
  if (groups.back().size() != 2) return std::nullopt;  // selector must be 2 digits
  std::string joined = groups[groups.size() - 4] + "." + groups[groups.size() - 3] + "." +
                       groups[groups.size() - 2];
  return parse(joined);
}

std::string message_kind(const Message& message) {
  struct Visitor {
    std::string operator()(const IsisHello&) const { return "isis-hello"; }
    std::string operator()(const IsisLspPtr&) const { return "isis-lsp"; }
    std::string operator()(const OspfHello&) const { return "ospf-hello"; }
    std::string operator()(const OspfLsaPtr&) const { return "ospf-lsa"; }
    std::string operator()(const BgpOpen&) const { return "bgp-open"; }
    std::string operator()(const BgpUpdate&) const { return "bgp-update"; }
    std::string operator()(const BgpKeepalive&) const { return "bgp-keepalive"; }
    std::string operator()(const BgpNotification&) const { return "bgp-notification"; }
    std::string operator()(const RsvpPath&) const { return "rsvp-path"; }
    std::string operator()(const RsvpResv&) const { return "rsvp-resv"; }
    std::string operator()(const RsvpPathErr&) const { return "rsvp-patherr"; }
  };
  return std::visit(Visitor{}, message);
}

}  // namespace mfv::proto
