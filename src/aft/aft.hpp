// Abstract Forwarding Table (AFT) data model, shaped after the OpenConfig
// `network-instances/network-instance/afts` subtree.
//
// This is the vendor-agnostic dataplane snapshot format of the paper's
// pipeline: the emulation stage dumps per-device AFTs over the gNMI-style
// API (§4.1), and the verification stage consumes them in place of a
// model-derived dataplane (§4.2). Mirrors OpenConfig's indirection:
// ipv4-unicast entries reference next-hop-groups, which reference
// next-hops.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/types.hpp"
#include "util/cow.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace mfv::aft {

/// MPLS label operations carried by a next-hop.
enum class LabelOp { kNone, kPush, kSwap, kPop };

struct NextHop {
  uint64_t index = 0;
  /// Resolved adjacent next-hop address; absent for directly attached or
  /// drop next-hops.
  std::optional<net::Ipv4Address> ip_address;
  /// Egress interface; absent only for drop.
  std::optional<net::InterfaceName> interface;
  bool drop = false;
  LabelOp label_op = LabelOp::kNone;
  uint32_t label = 0;

  bool operator==(const NextHop&) const = default;
};

struct NextHopGroup {
  uint64_t id = 0;
  /// next-hop index -> weight (ECMP/WCMP).
  std::vector<std::pair<uint64_t, uint64_t>> next_hops;

  bool operator==(const NextHopGroup&) const = default;
};

struct Ipv4Entry {
  net::Ipv4Prefix prefix;
  uint64_t next_hop_group = 0;
  /// Origin protocol as reported by the device ("BGP", "ISIS", "STATIC",
  /// "CONNECTED", "LOCAL", "TE").
  std::string origin_protocol;
  uint32_t metric = 0;

  bool operator==(const Ipv4Entry&) const = default;
};

struct LabelEntry {
  uint32_t label = 0;
  uint64_t next_hop_group = 0;

  bool operator==(const LabelEntry&) const = default;
};

/// AFT of one network instance: the default one in DeviceAft::aft, each
/// VRF in DeviceAft::instances.
///
/// Each table is a vector sorted by the key its records carry (next-hop
/// index, group id, prefix, label), with no key repeated, so every table
/// iterates in key order. Copies are O(1): the tables share one
/// copy-on-write block (shared until one side mutates). A snapshot capture
/// or emulation fork therefore shares the router's compiled tables instead
/// of deep-copying them; whoever mutates first pays for the clone.
class Aft {
 public:
  /// Adds a next-hop, assigning the next free index (the last one plus
  /// one). Returns the index.
  uint64_t add_next_hop(NextHop next_hop);
  /// Adds a group over existing next-hop indices, assigning the next free
  /// id. Returns the group id.
  uint64_t add_group(std::vector<std::pair<uint64_t, uint64_t>> weighted_next_hops);
  /// Convenience: one-next-hop group.
  uint64_t add_group(uint64_t next_hop_index) {
    return add_group({{next_hop_index, 1}});
  }

  /// Inserts the entry, replacing the one with the same key.
  void set_ipv4_entry(Ipv4Entry entry);
  void set_label_entry(LabelEntry entry);

  /// Replaces all four tables in new storage; copies sharing the old
  /// storage keep it (rib::FibPatcher's output, the fuzz oracles' edits).
  /// Each table must be sorted by its key with no key repeated.
  void replace_tables(std::vector<NextHop> next_hops, std::vector<NextHopGroup> groups,
                      std::vector<Ipv4Entry> ipv4_entries,
                      std::vector<LabelEntry> label_entries);

  const std::vector<NextHop>& next_hops() const { return tables_->next_hops; }
  const std::vector<NextHopGroup>& groups() const { return tables_->groups; }
  const std::vector<Ipv4Entry>& ipv4_entries() const { return tables_->ipv4_entries; }
  const std::vector<LabelEntry>& label_entries() const { return tables_->label_entries; }

  const NextHop* next_hop(uint64_t index) const;
  const NextHopGroup* group(uint64_t id) const;
  const Ipv4Entry* ipv4_entry(const net::Ipv4Prefix& prefix) const;
  const LabelEntry* label_entry(uint32_t label) const;

  /// Longest-prefix match over the ipv4 entries: one binary search per
  /// prefix length, longest first.
  const Ipv4Entry* longest_match(net::Ipv4Address destination) const;

  /// Resolved forwarding action for a destination: the (possibly multiple,
  /// for ECMP) next hops of the LPM entry. Empty if no route.
  std::vector<NextHop> forward(net::Ipv4Address destination) const;

  size_t entry_count() const { return tables_->ipv4_entries.size(); }
  bool operator==(const Aft& other) const {
    return shares_tables(other) || *tables_ == *other.tables_;
  }

  /// O(1) equality witness: true when both sides still share the same
  /// copy-on-write storage block. False only means "unknown" — a fork
  /// that rewrote identical contents no longer shares. Tests use it to
  /// check that a patch which changed nothing left the table shared.
  bool shares_tables(const Aft& other) const { return &*tables_ == &*other.tables_; }

  /// Structural equality of *forwarding behaviour*: same prefixes mapping
  /// to the same resolved next-hop sets (indices may differ). The
  /// convergence detector watches changes of exactly this predicate (§5:
  /// "we detect convergence once we observe the dataplane to stabilize at
  /// all routers"); rib::FibPatcher reports them without comparing tables.
  bool forwarding_equal(const Aft& other) const;

  util::Json to_json() const;
  /// to_json().dump().size(), counted from the tables without building
  /// the document.
  size_t json_length() const;
  /// Records may come in any order; a repeated key keeps its last record.
  static util::Result<Aft> from_json(const util::Json& json);

 private:
  /// The copy-on-write storage unit. Kept as one block so a mutation
  /// clones all tables together (their index spaces are interdependent).
  struct Tables {
    std::vector<NextHop> next_hops;
    std::vector<NextHopGroup> groups;
    std::vector<Ipv4Entry> ipv4_entries;
    std::vector<LabelEntry> label_entries;

    bool operator==(const Tables&) const = default;
  };

  util::Cow<Tables> tables_;
};

/// One resolved packet-filter rule (destination match only, like the
/// config-level ACLs this model supports).
struct AclRule {
  bool permit = true;
  net::Ipv4Prefix destination;  // 0.0.0.0/0 = any

  bool operator==(const AclRule&) const = default;
};

/// First match decides; no match = implicit deny. An empty rule list means
/// "no filter attached" (permit everything) — distinguished by the caller.
bool acl_permits(const std::vector<AclRule>& rules, net::Ipv4Address destination);

/// Interface operational state reported alongside the AFT (needed by the
/// verification engine to resolve egress edges and apply packet filters).
struct InterfaceState {
  net::InterfaceName name;
  std::optional<net::InterfaceAddress> address;
  bool oper_up = true;
  /// VRF binding; empty = default instance. The verification engine only
  /// treats default-instance interfaces as part of the default forwarding
  /// graph.
  std::string vrf;
  /// Resolved ingress/egress filters; nullopt = no filter attached.
  std::optional<std::vector<AclRule>> acl_in;
  std::optional<std::vector<AclRule>> acl_out;

  bool operator==(const InterfaceState&) const = default;
};

/// The full dataplane dump of one device.
struct DeviceAft {
  net::NodeName node;
  /// Default network instance.
  Aft aft;
  /// Non-default network instances (VRFs), keyed by name.
  std::map<std::string, Aft> instances;
  std::map<net::InterfaceName, InterfaceState> interfaces;

  bool operator==(const DeviceAft&) const = default;

  util::Json to_json() const;
  /// to_json().dump().size(), counted without building the document.
  size_t json_length() const;
  static util::Result<DeviceAft> from_json(const util::Json& json);
};

std::string label_op_name(LabelOp op);
std::optional<LabelOp> parse_label_op(std::string_view name);

}  // namespace mfv::aft
