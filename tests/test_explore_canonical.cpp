// Canonical-state serialization invariance (explore/canonical): the same
// network state must hash identically no matter which internal insertion
// or declaration order produced it, and the dedup set must never merge on
// a bare 64-bit hash match (satellite: canonical-hash tests).
#include <gtest/gtest.h>

#include <string>

#include "aft/aft.hpp"
#include "explore/canonical.hpp"
#include "helpers.hpp"
#include "rib/rib.hpp"
#include "util/hash.hpp"

namespace mfv::explore {
namespace {

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix prefix(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

// -- AFT: index assignment order is invisible --------------------------------

aft::NextHop hop(const std::string& ip, const std::string& iface) {
  aft::NextHop next_hop;
  next_hop.ip_address = addr(ip);
  next_hop.interface = iface;
  return next_hop;
}

/// Two ECMP prefixes installed with next-hop/group indices assigned in
/// opposite orders; forwarding behaviour is identical.
aft::DeviceAft build_device(bool reversed) {
  aft::DeviceAft device;
  device.node = "r1";
  aft::Aft& table = device.aft;

  uint64_t a, b;
  if (!reversed) {
    a = table.add_next_hop(hop("10.0.0.1", "Ethernet1"));
    b = table.add_next_hop(hop("10.0.0.2", "Ethernet2"));
  } else {
    b = table.add_next_hop(hop("10.0.0.2", "Ethernet2"));
    a = table.add_next_hop(hop("10.0.0.1", "Ethernet1"));
  }

  uint64_t ecmp = reversed ? table.add_group({{b, 1}, {a, 1}})
                           : table.add_group({{a, 1}, {b, 1}});
  uint64_t single_a = table.add_group(a);
  uint64_t single_b = table.add_group(b);
  // Entry insertion order also flips which group ids the entries carry.
  if (!reversed) {
    table.set_ipv4_entry({prefix("192.0.2.0/24"), ecmp, "BGP", 0});
    table.set_ipv4_entry({prefix("198.51.100.0/24"), single_a, "ISIS", 10});
    table.set_ipv4_entry({prefix("203.0.113.0/24"), single_b, "ISIS", 10});
  } else {
    table.set_ipv4_entry({prefix("203.0.113.0/24"), single_b, "ISIS", 10});
    table.set_ipv4_entry({prefix("198.51.100.0/24"), single_a, "ISIS", 10});
    table.set_ipv4_entry({prefix("192.0.2.0/24"), ecmp, "BGP", 0});
  }
  return device;
}

TEST(CanonicalAft, InsertionOrderInvisible) {
  std::string forward, reverse;
  append_canonical_aft(build_device(false), forward);
  append_canonical_aft(build_device(true), reverse);
  EXPECT_FALSE(forward.empty());
  EXPECT_EQ(forward, reverse);
}

TEST(CanonicalAft, DifferentForwardingDiffers) {
  aft::DeviceAft device = build_device(false);
  aft::DeviceAft rerouted;
  rerouted.node = "r1";
  uint64_t via = rerouted.aft.add_next_hop(hop("10.0.0.3", "Ethernet3"));
  rerouted.aft.set_ipv4_entry({prefix("192.0.2.0/24"), rerouted.aft.add_group(via), "BGP", 0});
  std::string left, right;
  append_canonical_aft(device, left);
  append_canonical_aft(rerouted, right);
  EXPECT_NE(left, right);
}

// -- RIB: insertion order of equal-preference routes is invisible ------------

rib::RibRoute bgp_route(const std::string& prefix_text, const std::string& next_hop,
                        const std::string& source) {
  rib::RibRoute route;
  route.prefix = prefix(prefix_text);
  route.protocol = rib::Protocol::kBgp;
  route.admin_distance = 20;
  route.next_hop = addr(next_hop);
  route.source = source;
  return route;
}

TEST(CanonicalRib, EcmpInsertionOrderInvisible) {
  rib::Rib forward, reverse;
  forward.add(bgp_route("192.0.2.0/24", "10.0.0.1", "peer1"));
  forward.add(bgp_route("192.0.2.0/24", "10.0.0.2", "peer2"));
  reverse.add(bgp_route("192.0.2.0/24", "10.0.0.2", "peer2"));
  reverse.add(bgp_route("192.0.2.0/24", "10.0.0.1", "peer1"));

  std::string left, right;
  append_canonical_rib(forward, left);
  append_canonical_rib(reverse, right);
  EXPECT_FALSE(left.empty());
  EXPECT_EQ(left, right);

  // A genuinely different best set is visible.
  rib::Rib other;
  other.add(bgp_route("192.0.2.0/24", "10.0.0.9", "peer9"));
  std::string different;
  append_canonical_rib(other, different);
  EXPECT_NE(left, different);
}

// -- BGP session relabeling, end to end --------------------------------------

/// Fig-2-style race topology with the listener's neighbor statements (and
/// router additions) declared in either order. Session ids, RIB install
/// order, and AFT index assignment all follow declaration order — the
/// canonical form must not.
std::unique_ptr<emu::Emulation> race_emulation(bool reversed) {
  emu::EmulationOptions options;
  options.seed = 1;
  // Deterministic router-id tiebreak: both declaration orders converge to
  // the same winner, so any byte difference is a canonicalization bug.
  options.bgp_prefer_oldest = false;
  auto emulation = std::make_unique<emu::Emulation>(options);

  auto advertiser = [&](const std::string& name, int index, net::AsNumber as,
                        const std::string& cidr, const std::string& peer) {
    config::DeviceConfig config;
    config.hostname = name;
    auto& loopback = config.interface("Loopback0");
    loopback.switchport = false;
    loopback.address =
        net::InterfaceAddress::parse("10.0.0." + std::to_string(index) + "/32");
    auto& eth = config.interface("Ethernet1");
    eth.switchport = false;
    eth.address = net::InterfaceAddress::parse(cidr);
    config.bgp.enabled = true;
    config.bgp.local_as = as;
    config.bgp.router_id = loopback.address->address;
    config::BgpNeighborConfig neighbor;
    neighbor.peer = addr(peer);
    neighbor.remote_as = 65000;
    config.bgp.neighbors.push_back(neighbor);
    config.static_routes.push_back(test::null_route(prefix("203.0.113.0/24")));
    config.bgp.networks.push_back({prefix("203.0.113.0/24"), std::nullopt});
    return config;
  };

  config::DeviceConfig listener;
  listener.hostname = "L";
  auto& loopback = listener.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0.9/32");
  listener.bgp.enabled = true;
  listener.bgp.local_as = 65000;
  listener.bgp.router_id = loopback.address->address;
  auto session = [&](int port, const std::string& local, const std::string& peer,
                     net::AsNumber remote_as) {
    auto& eth = listener.interface("Ethernet" + std::to_string(port));
    eth.switchport = false;
    eth.address = net::InterfaceAddress::parse(local);
    config::BgpNeighborConfig neighbor;
    neighbor.peer = addr(peer);
    neighbor.remote_as = remote_as;
    listener.bgp.neighbors.push_back(neighbor);
  };
  if (!reversed) {
    session(1, "100.64.0.1/31", "100.64.0.0", 65001);
    session(2, "100.64.0.3/31", "100.64.0.2", 65002);
  } else {
    session(2, "100.64.0.3/31", "100.64.0.2", 65002);
    session(1, "100.64.0.1/31", "100.64.0.0", 65001);
  }

  if (!reversed) {
    emulation->add_router(advertiser("A1", 1, 65001, "100.64.0.0/31", "100.64.0.1"));
    emulation->add_router(advertiser("A2", 2, 65002, "100.64.0.2/31", "100.64.0.3"));
    emulation->add_router(std::move(listener));
  } else {
    emulation->add_router(std::move(listener));
    emulation->add_router(advertiser("A2", 2, 65002, "100.64.0.2/31", "100.64.0.3"));
    emulation->add_router(advertiser("A1", 1, 65001, "100.64.0.0/31", "100.64.0.1"));
  }
  emulation->add_link({"A1", "Ethernet1"}, {"L", "Ethernet1"});
  emulation->add_link({"A2", "Ethernet1"}, {"L", "Ethernet2"});
  emulation->start_all();
  emulation->run_to_convergence();
  return emulation;
}

TEST(CanonicalState, SessionDeclarationOrderInvisible) {
  std::unique_ptr<emu::Emulation> forward = race_emulation(false);
  std::unique_ptr<emu::Emulation> reversed = race_emulation(true);
  CanonicalState left = canonicalize(*forward);
  CanonicalState right = canonicalize(*reversed);
  EXPECT_FALSE(left.bytes.empty());
  EXPECT_EQ(left.hash, right.hash);
  EXPECT_EQ(left.bytes, right.bytes);
  EXPECT_EQ(left.hash, util::fnv1a(left.bytes));

  // Canonicalization is idempotent over one emulation.
  EXPECT_EQ(canonicalize(*forward), left);
}

// -- StateSet: hash-first, never hash-only -----------------------------------

TEST(StateSet, DedupAndIds) {
  StateSet set;
  CanonicalState state;
  state.bytes = "converged-state-bytes";
  state.hash = util::fnv1a(state.bytes);

  StateSet::Insert first = set.insert(state);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.collision);
  EXPECT_EQ(first.id, 0u);

  StateSet::Insert again = set.insert(state);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(state));

  CanonicalState other;
  other.bytes = "different-state-bytes";
  other.hash = util::fnv1a(other.bytes);
  EXPECT_FALSE(set.contains(other));
  EXPECT_TRUE(set.insert(other).inserted);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.collisions(), 0u);
}

TEST(StateSet, ForcedCollisionFallsBackToByteCompare) {
  StateSet set;
  constexpr uint64_t kSharedHash = 0xdeadbeefcafef00dull;

  StateSet::Insert first = set.insert_with_hash("state-A", kSharedHash);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.collision);

  // Same 64-bit hash, different bytes: must become a second state, not a
  // silent merge.
  StateSet::Insert collided = set.insert_with_hash("state-B", kSharedHash);
  EXPECT_TRUE(collided.inserted);
  EXPECT_TRUE(collided.collision);
  EXPECT_NE(collided.id, first.id);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.collisions(), 1u);

  // Both byte strings keep resolving to their own slot.
  EXPECT_FALSE(set.insert_with_hash("state-A", kSharedHash).inserted);
  EXPECT_FALSE(set.insert_with_hash("state-B", kSharedHash).inserted);
  EXPECT_EQ(set.size(), 2u);

  CanonicalState probe;
  probe.hash = kSharedHash;
  probe.bytes = "state-B";
  EXPECT_TRUE(set.contains(probe));
  probe.bytes = "state-C";
  EXPECT_FALSE(set.contains(probe));
}

}  // namespace
}  // namespace mfv::explore
