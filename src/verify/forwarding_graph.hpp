// Forwarding-graph model of a dataplane snapshot.
//
// Compiles a gnmi::Snapshot once, at construction, into immutable tables
// indexed by dense node id (ids follow the snapshot's name order): a
// sorted-interval LPM table per node, next hops pre-resolved per next-hop
// group (next node, egress filter, the next node's ingress filter for the
// hop address, label op), per-node label tables, an address -> owner
// table and per-node connected subnets. This is the "formally model the
// dataplane" stage of §4.2 — everything the trace walker and the
// exhaustive queries need. Nothing mutates after construction, so one
// graph serves any number of concurrent queries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gnmi/gnmi.hpp"

namespace mfv::verify {

class ForwardingGraph {
 public:
  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = UINT32_MAX;
  using Acl = std::vector<aft::AclRule>;

  /// One next hop, resolved at compile time.
  struct Hop {
    /// The AFT next hop it was compiled from (rendering, trace detail).
    const aft::NextHop* source = nullptr;
    /// Owner of the hop address; kNoNode when the hop has no address or
    /// no up default-instance interface holds it.
    NodeId next = kNoNode;
    /// acl_out of the egress interface (nullptr = unfiltered).
    const Acl* egress_acl = nullptr;
    /// acl_in of `next`'s interface holding the hop address (nullptr =
    /// unfiltered).
    const Acl* ingress_acl = nullptr;
    bool drop = false;
    /// True when the hop carries an address; false = attached (the packet
    /// moves to whoever owns the destination).
    bool addressed = false;
    aft::LabelOp label_op = aft::LabelOp::kNone;
    uint32_t label = 0;
  };

  /// One FIB entry with its group's resolved hops (empty when the group is
  /// missing; dangling hop indices are skipped).
  struct Route {
    const aft::Ipv4Entry* entry = nullptr;
    std::span<const Hop> hops;
  };

  /// Takes the snapshot it compiles: the graph is its one owner, so
  /// callers move a fresh capture in and read it back via snapshot().
  explicit ForwardingGraph(gnmi::Snapshot snapshot);
  // The compiled tables point into snapshot_.
  ForwardingGraph(const ForwardingGraph&) = delete;
  ForwardingGraph& operator=(const ForwardingGraph&) = delete;

  const gnmi::Snapshot& snapshot() const { return snapshot_; }

  /// Node names in id order (the snapshot's name order).
  const std::vector<net::NodeName>& nodes() const { return names_; }
  size_t node_count() const { return names_.size(); }
  const net::NodeName& name(NodeId node) const { return names_[node]; }
  std::optional<NodeId> id_of(const net::NodeName& node) const;

  /// LPM match of `destination` on `node`; nullptr = no route.
  const Route* route(NodeId node, net::Ipv4Address destination) const;
  /// Every FIB entry of `node`, in prefix order.
  std::span<const Route> routes(NodeId node) const { return compiled_[node].routes; }
  /// Resolved hops bound to MPLS `label` on `node` (empty = no binding, or
  /// a dangling group).
  std::span<const Hop> label_hops(NodeId node, uint32_t label) const;
  /// Every label binding of `node`, in label order.
  std::span<const std::pair<uint32_t, std::span<const Hop>>> labels(NodeId node) const {
    return compiled_[node].labels;
  }

  /// Device owning `address` on an up default-instance interface (the last
  /// such device in name order wins); kNoNode = none.
  NodeId owner(net::Ipv4Address address) const;
  /// acl_in of the first up interface of `node` (in interface-name order)
  /// holding `address`; nullptr = no such interface, or no filter.
  const Acl* ingress_acl(NodeId node, net::Ipv4Address address) const;
  /// True if `address` falls in one of `node`'s up connected subnets.
  bool on_connected_subnet(NodeId node, net::Ipv4Address address) const;

  /// Verdict of an optional packet filter; an absent filter permits.
  static bool permits(const Acl* acl, net::Ipv4Address destination) {
    return acl == nullptr || aft::acl_permits(*acl, destination);
  }

  /// Every distinct prefix that shapes forwarding anywhere: all FIB
  /// prefixes plus all interface subnets and addresses. The packet-class
  /// partition is computed from this set.
  std::vector<net::Ipv4Prefix> relevant_prefixes() const;

 private:
  struct CompiledNode {
    /// LPM as sorted disjoint intervals: lpm_routes[i] answers every
    /// address in [lpm_starts[i], lpm_starts[i + 1]); lpm_starts[0] == 0.
    std::vector<uint32_t> lpm_starts;
    std::vector<const Route*> lpm_routes;
    std::vector<Route> routes;
    /// Resolved hops of every next-hop group, group by group.
    std::vector<Hop> hops;
    std::vector<std::pair<uint32_t, std::span<const Hop>>> labels;
    /// Address -> acl_in of the first up interface holding it, by address.
    std::vector<std::pair<uint32_t, const Acl*>> ingress;
    std::vector<net::Ipv4Prefix> connected;
  };

  void compile_node(NodeId id, const aft::DeviceAft& device);

  gnmi::Snapshot snapshot_;
  std::vector<net::NodeName> names_;
  std::vector<CompiledNode> compiled_;
  /// Address -> owner, sorted by address.
  std::vector<std::pair<uint32_t, NodeId>> owners_;
};

}  // namespace mfv::verify
