// Control-plane message definitions exchanged between virtual routers.
//
// Messages are structured C++ values rather than wire encodings: the
// emulation is in-process, so fidelity lies in the *semantics* (what state
// each message carries and how receivers react), not byte layouts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/ipv4.hpp"
#include "net/types.hpp"

namespace mfv::proto {

// ---------------------------------------------------------------------------
// Link-state records: IS-IS LSPs and OSPF router LSAs

/// One router's adjacencies and attached prefixes, keyed by its IGP's
/// router identifier. Immutable once originated: floods and databases
/// share it by pointer (IsisLspPtr, OspfLsaPtr).
template <typename Id>
struct LinkStateRecord {
  struct Neighbor {
    Id id;
    uint32_t metric = 10;
    auto operator<=>(const Neighbor&) const = default;
  };
  struct Prefix {
    net::Ipv4Prefix prefix;
    uint32_t metric = 0;
    auto operator<=>(const Prefix&) const = default;
  };

  Id origin;
  uint32_t sequence = 0;
  std::vector<Neighbor> neighbors;
  std::vector<Prefix> prefixes;

  bool same_content(const LinkStateRecord& other) const {
    return origin == other.origin && neighbors == other.neighbors &&
           prefixes == other.prefixes;
  }
};

// ---------------------------------------------------------------------------
// IS-IS

/// 6-byte system identifier, printed as "1010.1040.1030".
struct SystemId {
  uint64_t bits = 0;  // low 48 bits used

  auto operator<=>(const SystemId&) const = default;
  std::string to_string() const;
  /// Parses dotted form "xxxx.xxxx.xxxx".
  static std::optional<SystemId> parse(std::string_view text);
  /// Extracts the system-id portion of an ISO NET like
  /// "49.0001.1010.1040.1030.00" (the 3 groups before the selector).
  static std::optional<SystemId> from_net(std::string_view net);
};

struct IsisHello {
  SystemId system_id;
  net::Ipv4Address interface_address;  // sender's address on this link
  uint8_t level = 2;
  /// System ids the sender has already heard on this link (3-way handshake:
  /// adjacency goes Up only when we appear here).
  std::vector<SystemId> seen_neighbors;
};

using IsisLsp = LinkStateRecord<SystemId>;
using IsisLspPtr = std::shared_ptr<const IsisLsp>;

// ---------------------------------------------------------------------------
// OSPF (v2 subset: point-to-point hellos + router LSAs)

struct OspfHello {
  net::RouterId router_id;
  net::Ipv4Address interface_address;
  /// Router ids already heard on this link (3-way handshake).
  std::vector<net::RouterId> seen_neighbors;
};

using OspfLsa = LinkStateRecord<net::RouterId>;
using OspfLsaPtr = std::shared_ptr<const OspfLsa>;

// ---------------------------------------------------------------------------
// BGP

enum class BgpOrigin : uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

struct BgpAttributes {
  BgpOrigin origin = BgpOrigin::kIgp;
  std::vector<net::AsNumber> as_path;
  net::Ipv4Address next_hop;
  uint32_t med = 0;
  uint32_t local_pref = 100;  // meaningful within an AS
  std::vector<uint32_t> communities;

  bool operator==(const BgpAttributes&) const = default;
};

struct BgpRoute {
  net::Ipv4Prefix prefix;
  BgpAttributes attributes;

  bool operator==(const BgpRoute&) const = default;
};

struct BgpOpen {
  net::AsNumber as_number = 0;
  net::RouterId router_id;
  net::Ipv4Address source;  // session source address
};

struct BgpUpdate {
  net::Ipv4Address source;
  std::vector<BgpRoute> announced;
  std::vector<net::Ipv4Prefix> withdrawn;
};

struct BgpKeepalive {
  net::Ipv4Address source;
};

struct BgpNotification {
  net::Ipv4Address source;
  std::string reason;  // session teardown
};

// ---------------------------------------------------------------------------
// RSVP-TE (simplified Path/Resv signaling)

struct RsvpPath {
  std::string session_name;         // tunnel name @ head-end
  net::RouterId head_end;
  net::Ipv4Address destination;     // tail-end loopback
  std::vector<net::Ipv4Address> remaining_hops;  // ERO not yet traversed
  std::vector<net::Ipv4Address> traversed_hops;  // RRO so far
  uint64_t bandwidth_bps = 0;
};

struct RsvpResv {
  std::string session_name;
  net::RouterId head_end;
  /// Hops to walk back upstream (reverse of the Path's RRO).
  std::vector<net::Ipv4Address> return_hops;
  /// Label allocated by the downstream node for the upstream to push/swap.
  uint32_t label = 0;
};

struct RsvpPathErr {
  std::string session_name;
  net::RouterId head_end;
  std::vector<net::Ipv4Address> return_hops;
  std::string reason;
};

// ---------------------------------------------------------------------------

using Message = std::variant<IsisHello, IsisLspPtr, OspfHello, OspfLsaPtr, BgpOpen, BgpUpdate,
                             BgpKeepalive, BgpNotification, RsvpPath, RsvpResv,
                             RsvpPathErr>;

/// Short tag for logging.
std::string message_kind(const Message& message);

}  // namespace mfv::proto
