// Verification engine internals: packet-class partitioning invariants,
// forwarding-graph resolution, and trace dispositions on hand-built
// snapshots.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "util/rng.hpp"
#include "verify/queries.hpp"

namespace mfv::verify {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

// ---------------------------------------------------------------------------
// Packet classes

TEST(PacketClasses, EmptyInputIsOneClass) {
  auto classes = compute_packet_classes({});
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].first.bits(), 0u);
  EXPECT_EQ(classes[0].last.bits(), 0xFFFFFFFFu);
}

TEST(PacketClasses, SinglePrefixSplitsInThree) {
  auto classes = compute_packet_classes({pfx("10.0.0.0/8")});
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[1].first, addr("10.0.0.0"));
  EXPECT_EQ(classes[1].last, addr("10.255.255.255"));
}

TEST(PacketClasses, EdgePrefixesDoNotUnderflow) {
  auto low = compute_packet_classes({pfx("0.0.0.0/8")});
  EXPECT_EQ(low.front().first.bits(), 0u);
  auto high = compute_packet_classes({pfx("255.0.0.0/8")});
  EXPECT_EQ(high.back().last.bits(), 0xFFFFFFFFu);
  auto full = compute_packet_classes({pfx("0.0.0.0/0")});
  ASSERT_EQ(full.size(), 1u);
}

TEST(PacketClasses, ScopeRestriction) {
  auto classes =
      compute_packet_classes({pfx("10.0.0.0/8"), pfx("10.1.0.0/16")}, pfx("10.0.0.0/8"));
  for (const PacketClass& cls : classes) {
    EXPECT_TRUE(pfx("10.0.0.0/8").contains(cls.first));
    EXPECT_TRUE(pfx("10.0.0.0/8").contains(cls.last));
  }
}

/// Property: classes exactly tile the space, in order, no overlap, and every
/// prefix boundary is respected (no class straddles a prefix edge).
class PacketClassProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketClassProperty, TilesTheSpace) {
  util::Pcg32 rng(GetParam());
  std::vector<net::Ipv4Prefix> prefixes;
  for (int i = 0; i < 200; ++i)
    prefixes.push_back(net::Ipv4Prefix(net::Ipv4Address(rng.next()),
                                       static_cast<uint8_t>(rng.next_below(33))));
  auto classes = compute_packet_classes(prefixes);

  uint64_t expected_next = 0;
  for (const PacketClass& cls : classes) {
    EXPECT_EQ(cls.first.bits(), expected_next);
    EXPECT_GE(cls.last.bits(), cls.first.bits());
    expected_next = static_cast<uint64_t>(cls.last.bits()) + 1;
  }
  EXPECT_EQ(expected_next, 0x100000000ull);

  for (const net::Ipv4Prefix& prefix : prefixes) {
    for (const PacketClass& cls : classes) {
      bool first_inside = prefix.contains(cls.first);
      bool last_inside = prefix.contains(cls.last);
      EXPECT_EQ(first_inside, last_inside)
          << cls.to_string() << " straddles " << prefix.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketClassProperty, ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Hand-built snapshots for trace semantics

/// Two routers A-B; A forwards 203.0.113.0/24 to B, B owns 203.0.113.1 on a
/// stub interface. Also a null route and a dangling next hop on A.
gnmi::Snapshot tiny_snapshot() {
  gnmi::Snapshot snapshot;

  aft::DeviceAft a;
  a.node = "A";
  a.interfaces["eth0"] = test::interface_state("eth0", "10.0.0.0/31");
  {
    aft::NextHop to_b;
    to_b.ip_address = addr("10.0.0.1");
    to_b.interface = "eth0";
    uint64_t nh = a.aft.add_next_hop(to_b);
    a.aft.set_ipv4_entry({pfx("203.0.113.0/24"), a.aft.add_group(nh), "BGP", 0});

    aft::NextHop drop;
    drop.drop = true;
    a.aft.set_ipv4_entry(
        {pfx("192.0.2.0/24"), a.aft.add_group(a.aft.add_next_hop(drop)), "STATIC", 0});

    aft::NextHop dangling;
    dangling.ip_address = addr("172.31.0.1");  // nobody owns this
    dangling.interface = "eth0";
    a.aft.set_ipv4_entry(
        {pfx("198.51.100.0/24"), a.aft.add_group(a.aft.add_next_hop(dangling)), "BGP", 0});

    aft::NextHop attached;
    attached.interface = "eth0";
    a.aft.set_ipv4_entry(
        {pfx("10.0.0.0/31"), a.aft.add_group(a.aft.add_next_hop(attached)), "CONNECTED", 0});
  }
  snapshot.devices["A"] = std::move(a);

  aft::DeviceAft b;
  b.node = "B";
  b.interfaces["eth0"] = test::interface_state("eth0", "10.0.0.1/31");
  b.interfaces["stub"] = test::interface_state("stub", "203.0.113.1/24");
  {
    aft::NextHop attached;
    attached.interface = "stub";
    b.aft.set_ipv4_entry({pfx("203.0.113.0/24"),
                          b.aft.add_group(b.aft.add_next_hop(attached)), "CONNECTED", 0});
  }
  snapshot.devices["B"] = std::move(b);
  return snapshot;
}

TEST(Trace, AcceptedAtOwningDevice) {
  ForwardingGraph graph(tiny_snapshot());
  TraceResult result = trace_flow(graph, "A", addr("203.0.113.1"));
  EXPECT_TRUE(result.reachable());
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kAccepted);
  ASSERT_EQ(result.paths[0].hops.size(), 2u);
  EXPECT_EQ(result.paths[0].hops[0].node, "A");
  EXPECT_EQ(result.paths[0].hops[1].node, "B");
  EXPECT_EQ(result.paths[0].hops[0].origin_protocol, "BGP");
}

TEST(Trace, DeliveredToSubnetWhenNoOwner) {
  ForwardingGraph graph(tiny_snapshot());
  // 203.0.113.7 lands on B's stub subnet but no device owns it.
  TraceResult result = trace_flow(graph, "A", addr("203.0.113.7"));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kDeliveredToSubnet);
}

TEST(Trace, NullRouted) {
  ForwardingGraph graph(tiny_snapshot());
  TraceResult result = trace_flow(graph, "A", addr("192.0.2.9"));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kNullRouted);
}

TEST(Trace, NoRoute) {
  ForwardingGraph graph(tiny_snapshot());
  TraceResult result = trace_flow(graph, "A", addr("8.8.8.8"));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kNoRoute);
}

TEST(Trace, NeighborUnreachable) {
  ForwardingGraph graph(tiny_snapshot());
  TraceResult result = trace_flow(graph, "A", addr("198.51.100.9"));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kNeighborUnreachable);
}

TEST(Trace, UnknownSourceIsNoRoute) {
  ForwardingGraph graph(tiny_snapshot());
  TraceResult result = trace_flow(graph, "Z", addr("8.8.8.8"));
  EXPECT_TRUE(result.dispositions.contains(Disposition::kNoRoute));
}

TEST(Trace, LoopDetected) {
  // A and B forward 203.0.113.0/24 at each other.
  gnmi::Snapshot snapshot = tiny_snapshot();
  aft::DeviceAft& b = snapshot.devices["B"];
  b.aft = aft::Aft();
  aft::NextHop back;
  back.ip_address = addr("10.0.0.0");
  back.interface = "eth0";
  b.aft.set_ipv4_entry(
      {pfx("203.0.113.0/24"), b.aft.add_group(b.aft.add_next_hop(back)), "BGP", 0});
  b.interfaces.erase("stub");  // B no longer owns the address

  ForwardingGraph graph(snapshot);
  TraceResult result = trace_flow(graph, "A", addr("203.0.113.1"));
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0].disposition, Disposition::kLoop);
}

TEST(Trace, EcmpFollowsAllBranches) {
  gnmi::Snapshot snapshot = tiny_snapshot();
  aft::DeviceAft& a = snapshot.devices["A"];
  // Second (dangling) branch for the 203.0.113.0/24 entry.
  aft::Aft rebuilt;
  aft::NextHop to_b;
  to_b.ip_address = addr("10.0.0.1");
  to_b.interface = "eth0";
  aft::NextHop nowhere;
  nowhere.ip_address = addr("172.31.0.9");
  nowhere.interface = "eth1";
  uint64_t group = rebuilt.add_group(
      {{rebuilt.add_next_hop(to_b), 1}, {rebuilt.add_next_hop(nowhere), 1}});
  rebuilt.set_ipv4_entry({pfx("203.0.113.0/24"), group, "BGP", 0});
  a.aft = std::move(rebuilt);

  ForwardingGraph graph(snapshot);
  TraceResult result = trace_flow(graph, "A", addr("203.0.113.1"));
  EXPECT_EQ(result.paths.size(), 2u);
  EXPECT_TRUE(result.dispositions.contains(Disposition::kAccepted));
  EXPECT_TRUE(result.dispositions.contains(Disposition::kNeighborUnreachable));
}

TEST(Trace, DownInterfaceDoesNotOwnAddress) {
  gnmi::Snapshot snapshot = tiny_snapshot();
  snapshot.devices["B"].interfaces["stub"].oper_up = false;
  ForwardingGraph graph(snapshot);
  TraceResult result = trace_flow(graph, "A", addr("203.0.113.1"));
  // B no longer accepts; its CONNECTED route forwards onto the subnet.
  EXPECT_FALSE(result.reachable());
}

TEST(DispositionSet, Semantics) {
  DispositionSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.all_success());
  set.add(Disposition::kAccepted);
  set.add(Disposition::kExitsNetwork);
  EXPECT_TRUE(set.all_success());
  EXPECT_FALSE(set.any_failure());
  set.add(Disposition::kLoop);
  EXPECT_FALSE(set.all_success());
  EXPECT_TRUE(set.any_failure());
  EXPECT_EQ(set.to_string(), "ACCEPTED|EXITS_NETWORK|LOOP");
}

TEST(ForwardingGraph, RelevantPrefixesIncludeInterfaces) {
  ForwardingGraph graph(tiny_snapshot());
  auto prefixes = graph.relevant_prefixes();
  auto has = [&](const std::string& text) {
    net::Ipv4Prefix p = pfx(text);
    for (const auto& candidate : prefixes)
      if (candidate == p) return true;
    return false;
  };
  EXPECT_TRUE(has("203.0.113.0/24"));
  EXPECT_TRUE(has("10.0.0.0/31"));
  EXPECT_TRUE(has("10.0.0.1/32"));  // interface host address
}

}  // namespace
}  // namespace mfv::verify
