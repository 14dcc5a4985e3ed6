// IS-IS engine behaviour through the emulation harness: adjacency
// formation, SPF correctness (metrics, ECMP), passive interfaces, and
// reaction to topology changes.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

/// Square: R1-R2, R2-R4, R1-R3, R3-R4 (two equal-cost paths R1->R4).
emu::Emulation& build_square(emu::Emulation& emulation, uint32_t top_metric = 10,
                             uint32_t bottom_metric = 10) {
  auto r1 = base_router("R1", 1);
  auto r2 = base_router("R2", 2);
  auto r3 = base_router("R3", 3);
  auto r4 = base_router("R4", 4);
  wire(r1, 1, "100.64.0.0/31", true, top_metric);
  wire(r2, 1, "100.64.0.1/31", true, top_metric);
  wire(r2, 2, "100.64.0.2/31", true, top_metric);
  wire(r4, 1, "100.64.0.3/31", true, top_metric);
  wire(r1, 2, "100.64.0.4/31", true, bottom_metric);
  wire(r3, 1, "100.64.0.5/31", true, bottom_metric);
  wire(r3, 2, "100.64.0.6/31", true, bottom_metric);
  wire(r4, 2, "100.64.0.7/31", true, bottom_metric);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  emulation.add_router(std::move(r4));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R4", 1);
  link(emulation, "R1", 2, "R3", 1);
  link(emulation, "R3", 2, "R4", 2);
  return emulation;
}

TEST(Isis, AdjacenciesReachUpState) {
  emu::Emulation emulation;
  build_square(emulation);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  for (std::string node : {"R1", "R2", "R3", "R4"}) {
    const auto* router = emulation.router(node);
    ASSERT_NE(router->isis(), nullptr);
    EXPECT_EQ(router->isis()->adjacencies().size(), 2u) << node;
    for (const auto& [iface, adjacency] : router->isis()->adjacencies())
      EXPECT_EQ(adjacency.state, proto::IsisAdjacency::State::kUp) << node << " " << iface;
  }
}

TEST(Isis, LsdbIsSynchronizedEverywhere) {
  emu::Emulation emulation;
  build_square(emulation);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  for (std::string node : {"R1", "R2", "R3", "R4"})
    EXPECT_EQ(emulation.router(node)->isis()->database().size(), 4u) << node;
}

TEST(Isis, EqualCostPathsInstallEcmp) {
  emu::Emulation emulation;
  build_square(emulation);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  auto hops = emulation.router("R1")->fib().forward(addr("10.0.0.4"));
  EXPECT_EQ(hops.size(), 2u);  // via R2 and via R3
}

TEST(Isis, MetricSteersAwayFromExpensivePath) {
  emu::Emulation emulation;
  build_square(emulation, /*top_metric=*/100, /*bottom_metric=*/10);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  auto hops = emulation.router("R1")->fib().forward(addr("10.0.0.4"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].interface, "Ethernet2");  // the cheap path via R3
  const aft::Ipv4Entry* entry =
      emulation.router("R1")->fib().ipv4_entry(*net::Ipv4Prefix::parse("10.0.0.4/32"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->metric, 30u);  // 10 + 10 + loopback 10
}

TEST(Isis, PassiveInterfaceAdvertisedButNoAdjacency) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  auto r2 = base_router("R2", 2);
  wire(r1, 1, "100.64.0.0/31");
  wire(r2, 1, "100.64.0.1/31");
  // R1 gets a passive stub interface with an address.
  auto& stub = wire(r1, 2, "172.16.0.1/24");
  stub.isis_passive = true;
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  // Wire the stub to nothing; passive interfaces are up only if connected
  // (loopbacks aside) — give it a link to a third router that is passive too.
  auto r3 = base_router("R3", 3);
  auto& stub3 = wire(r3, 1, "172.16.0.2/24");
  stub3.isis_passive = true;
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 2, "R3", 1);

  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  // No adjacency over the passive link.
  EXPECT_EQ(emulation.router("R1")->isis()->adjacencies().count("Ethernet2"), 0u);
  // But R2 still learns the stub prefix.
  auto hops = emulation.router("R2")->fib().forward(addr("172.16.0.99"));
  EXPECT_FALSE(hops.empty());
}

TEST(Isis, LinkCutTearsAdjacencyAndReroutes) {
  emu::Emulation emulation;
  build_square(emulation);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  ASSERT_TRUE(emulation.set_link_up({"R1", "Ethernet1"}, {"R2", "Ethernet1"}, false));
  ASSERT_TRUE(emulation.run_to_convergence());

  EXPECT_EQ(emulation.router("R1")->isis()->adjacencies().count("Ethernet1"), 0u);
  // R1 still reaches R2, now the long way around via R3-R4.
  auto hops = emulation.router("R1")->fib().forward(addr("10.0.0.2"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].interface, "Ethernet2");
  const aft::Ipv4Entry* entry =
      emulation.router("R1")->fib().ipv4_entry(*net::Ipv4Prefix::parse("10.0.0.2/32"));
  EXPECT_EQ(entry->metric, 40u);  // 3 hops + loopback metric
}

TEST(Isis, InvalidNetDisablesInstance) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  r1.isis.net = "garbage";
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_FALSE(emulation.router("R1")->isis()->active());
  // R2 hears nothing: no adjacency, no route to R1's loopback.
  EXPECT_TRUE(emulation.router("R2")->isis()->adjacencies().empty());
  EXPECT_TRUE(emulation.router("R2")->fib().forward(addr("10.0.0.1")).empty());
}

TEST(Isis, MissingIpv4AddressFamilyDisablesRouting) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  r1.isis.af_ipv4_unicast = false;  // the address-family line is required
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_FALSE(emulation.router("R1")->isis()->active());
}

TEST(Isis, LevelMismatchPreventsAdjacency) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  r1.isis.level = config::IsisLevel::kLevel1;
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  r2.isis.level = config::IsisLevel::kLevel2;
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R1")->isis()->adjacencies().empty());
  EXPECT_TRUE(emulation.router("R2")->isis()->adjacencies().empty());
}

TEST(Isis, Level12TalksToBoth) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  r1.isis.level = config::IsisLevel::kLevel12;
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  r2.isis.level = config::IsisLevel::kLevel2;
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("R1")->isis()->adjacencies().size(), 1u);
}

}  // namespace
}  // namespace mfv
