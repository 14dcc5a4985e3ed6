// OSPF engine behaviour: network-statement attachment, adjacency + SPF,
// costs, admin-distance interaction with IS-IS, dialect round trips, and
// model-baseline parity.
#include <gtest/gtest.h>

#include "cli/show.hpp"
#include "config/dialect.hpp"
#include "helpers.hpp"
#include "model/ibdp.hpp"
#include "verify/queries.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

/// Adds OSPF to a router: cover the loopback + all 100.64/10 links.
void enable_ospf(config::DeviceConfig& config) {
  config.ospf.enabled = true;
  config.ospf.process_id = 1;
  config.ospf.networks.push_back(pfx("10.0.0.0/8"));
  config.ospf.networks.push_back(pfx("100.64.0.0/10"));
}

config::DeviceConfig ospf_router(const std::string& name, int index) {
  config::DeviceConfig config = base_router(name, index, /*isis=*/false);
  enable_ospf(config);
  return config;
}

TEST(Ospf, LineTopologyConverges) {
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", /*isis=*/false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false);
  wire(r2, 2, "100.64.0.2/31", false);
  auto r3 = ospf_router("R3", 3);
  wire(r3, 1, "100.64.0.3/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R3", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* router = emulation.router("R1");
  ASSERT_NE(router->ospf(), nullptr);
  EXPECT_TRUE(router->ospf()->active());
  EXPECT_EQ(router->ospf()->database().size(), 3u);
  const aft::Ipv4Entry* entry = router->fib().ipv4_entry(pfx("10.0.0.3/32"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin_protocol, "OSPF");
  EXPECT_EQ(entry->metric, 30u);  // two links (10+10) + the stub's own cost (10)
}

TEST(Ospf, NetworkStatementGatesParticipation) {
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  // R1's network statements do NOT cover the link subnet.
  r1.ospf.networks.clear();
  r1.ospf.networks.push_back(pfx("10.0.0.0/8"));
  wire(r1, 1, "100.64.0.0/31", false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R1")->ospf()->adjacencies().empty());
  EXPECT_TRUE(emulation.router("R2")->fib().forward(addr("10.0.0.1")).empty());
}

TEST(Ospf, CostSteersPathSelection) {
  // Square R1-R2-R4 / R1-R3-R4 with an expensive top path.
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", false).ospf_cost = 100;
  wire(r1, 2, "100.64.0.4/31", false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false).ospf_cost = 100;
  wire(r2, 2, "100.64.0.2/31", false).ospf_cost = 100;
  auto r3 = ospf_router("R3", 3);
  wire(r3, 1, "100.64.0.5/31", false);
  wire(r3, 2, "100.64.0.6/31", false);
  auto r4 = ospf_router("R4", 4);
  wire(r4, 1, "100.64.0.3/31", false).ospf_cost = 100;
  wire(r4, 2, "100.64.0.7/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  emulation.add_router(std::move(r4));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R4", 1);
  link(emulation, "R1", 2, "R3", 1);
  link(emulation, "R3", 2, "R4", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  auto hops = emulation.router("R1")->fib().forward(addr("10.0.0.4"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].interface, "Ethernet2") << "cheap path via R3 must win";
}

TEST(Ospf, PassiveInterfaceAdvertisesWithoutAdjacency) {
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", false);
  auto& stub = wire(r1, 2, "172.16.0.1/24", false);
  (void)stub;
  r1.ospf.networks.push_back(pfx("172.16.0.0/12"));
  r1.ospf.passive_interfaces.push_back("Ethernet2");
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false);
  auto r3 = base_router("R3", 3, false);
  wire(r3, 1, "172.16.0.2/24", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R1", 2, "R3", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("R1")->ospf()->adjacencies().count("Ethernet2"), 0u);
  EXPECT_FALSE(emulation.router("R2")->fib().forward(addr("172.16.0.9")).empty());
}

TEST(Ospf, OspfBeatsIsisByAdminDistance) {
  // Both IGPs run on the same link; for a prefix known to both, OSPF
  // (AD 110) must win over IS-IS (AD 115).
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);  // IS-IS on
  enable_ospf(r1);
  wire(r1, 1, "100.64.0.0/31");    // IS-IS enabled on the wire
  auto r2 = base_router("R2", 2);
  enable_ospf(r2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* router = emulation.router("R1");
  auto candidates = router->routing_table().candidates(pfx("10.0.0.2/32"));
  EXPECT_GE(candidates.size(), 2u) << "both IGPs must offer the route";
  const aft::Ipv4Entry* entry = router->fib().ipv4_entry(pfx("10.0.0.2/32"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin_protocol, "OSPF");
}

TEST(Ospf, LinkCutReconverges) {
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", false);
  wire(r1, 2, "100.64.0.4/31", false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false);
  wire(r2, 2, "100.64.0.2/31", false);
  auto r3 = ospf_router("R3", 3);
  wire(r3, 1, "100.64.0.5/31", false);
  wire(r3, 2, "100.64.0.6/31", false);
  auto r4 = ospf_router("R4", 4);
  wire(r4, 1, "100.64.0.3/31", false);
  wire(r4, 2, "100.64.0.7/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  emulation.add_router(std::move(r4));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R4", 1);
  link(emulation, "R1", 2, "R3", 1);
  link(emulation, "R3", 2, "R4", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  ASSERT_EQ(emulation.router("R1")->fib().forward(addr("10.0.0.4")).size(), 2u);  // ECMP

  ASSERT_TRUE(emulation.set_link_up({"R1", "Ethernet1"}, {"R2", "Ethernet1"}, false));
  ASSERT_TRUE(emulation.run_to_convergence());
  auto hops = emulation.router("R1")->fib().forward(addr("10.0.0.4"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].interface, "Ethernet2");
}

TEST(Ospf, SubnetMismatchBlocksAdjacency) {
  // OSPF validates that the hello's source shares the receiving
  // interface's subnet (IS-IS does not care — a real protocol-behaviour
  // difference). Mis-addressed link: no adjacency, no routes.
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.9/31", false);  // different /31
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R1")->ospf()->adjacencies().empty());
  EXPECT_TRUE(emulation.router("R1")->fib().forward(addr("10.0.0.2")).empty());
}

TEST(Ospf, IsisToleratesSubnetMismatchWhereOspfDoesNot) {
  // The same mis-addressed link with IS-IS still forms an adjacency
  // (CLNS adjacency is not IP-subnet-gated) — route resolution then uses
  // the neighbor's real address.
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.9/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("R1")->isis()->adjacencies().size(), 1u);
}

TEST(Ospf, CeosDialectRoundTrip) {
  config::DeviceConfig config = ospf_router("R1", 1);
  wire(config, 1, "100.64.0.0/31", false).ospf_cost = 42;
  config.ospf.router_id = addr("10.0.0.1");
  config.ospf.passive_interfaces.push_back("Ethernet9");

  std::string text = config::write_config(config);
  EXPECT_NE(text.find("router ospf 1"), std::string::npos);
  EXPECT_NE(text.find("network 10.0.0.0/8 area 0"), std::string::npos);
  EXPECT_NE(text.find("ip ospf cost 42"), std::string::npos);
  config::ParseResult reparsed = config::parse_config(text, config::Vendor::kCeos);
  EXPECT_EQ(reparsed.diagnostics.error_count(), 0u);
  EXPECT_TRUE(reparsed.config.ospf.enabled);
  EXPECT_EQ(reparsed.config.ospf.networks.size(), 2u);
  EXPECT_EQ(reparsed.config.ospf.router_id, addr("10.0.0.1"));
  EXPECT_TRUE(reparsed.config.ospf.is_passive("Ethernet9"));
  EXPECT_EQ(reparsed.config.find_interface("Ethernet1")->ospf_cost, 42u);
}

TEST(Ospf, VjunDialectRoundTripPreservesParticipation) {
  config::DeviceConfig config;
  config.hostname = "pe1";
  config.vendor = config::Vendor::kVjun;
  auto& loopback = config.interface("lo0.0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0.1/32");
  auto& et = config.interface("et-0/0/1.0");
  et.switchport = false;
  et.address = net::InterfaceAddress::parse("100.64.0.0/31");
  et.ospf_cost = 42;
  config.ospf.enabled = true;
  config.ospf.networks.push_back(pfx("10.0.0.1/32"));
  config.ospf.networks.push_back(pfx("100.64.0.0/31"));

  std::string text = config::write_config(config);
  config::ParseResult reparsed = config::parse_config(text, config::Vendor::kVjun);
  EXPECT_EQ(reparsed.diagnostics.error_count(), 0u)
      << (reparsed.diagnostics.items.empty() ? text
                                             : reparsed.diagnostics.items[0].to_string());
  EXPECT_TRUE(reparsed.config.ospf.enabled);
  // Participation (which interfaces are covered) survives even though the
  // network-statement representation differs.
  EXPECT_TRUE(reparsed.config.ospf.covers(addr("10.0.0.1")));
  EXPECT_TRUE(reparsed.config.ospf.covers(addr("100.64.0.0")));
  EXPECT_EQ(reparsed.config.find_interface("et-0/0/1.0")->ospf_cost, 42u);
}

TEST(Ospf, ModelBaselineComputesSameReachability) {
  // OSPF is a supported feature in the reference model: both backends
  // converge to the same reachability on clean configs.
  emu::Topology topology;
  for (int i = 1; i <= 2; ++i) {
    config::DeviceConfig config = ospf_router("R" + std::to_string(i), i);
    wire(config, 1, "100.64.0." + std::to_string(i - 1) + "/31", false);
    topology.nodes.push_back(
        {config.hostname, config::Vendor::kCeos, config::write_config(config)});
  }
  topology.links.push_back({{"R1", "Ethernet1"}, {"R2", "Ethernet1"}, 1000});

  model::ModelResult model = model::run_model(topology);
  verify::ForwardingGraph model_graph(model.snapshot);
  EXPECT_TRUE(verify::pairwise_reachability(model_graph).full_mesh());

  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(topology).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  verify::ForwardingGraph emu_graph(gnmi::Snapshot::capture(emulation, "emu"));
  EXPECT_TRUE(verify::differential_reachability(emu_graph, model_graph).empty());
}

TEST(Ospf, CliShowCommands) {
  emu::Emulation emulation;
  auto r1 = ospf_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31", false);
  auto r2 = ospf_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  auto neighbors = cli::run_command(*emulation.router("R1"), "show ip ospf neighbor");
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(*neighbors,
            "OSPF Process 1, Router ID 10.0.0.1\n"
            "  Neighbor ID      Interface     State  Address\n"
            "  10.0.0.2  Ethernet1  FULL  100.64.0.1\n");
  auto database = cli::run_command(*emulation.router("R1"), "show ip ospf database");
  ASSERT_TRUE(database.ok());
  EXPECT_EQ(*database,
            "OSPF Router Link States (Area 0)\n"
            "  LSA 10.0.0.1  Seq 2\n"
            "    Neighbor 10.0.0.2  Metric 10\n"
            "    Prefix 10.0.0.1/32  Metric 10\n"
            "    Prefix 100.64.0.0/31  Metric 10\n"
            "  LSA 10.0.0.2  Seq 2\n"
            "    Neighbor 10.0.0.1  Metric 10\n"
            "    Prefix 10.0.0.2/32  Metric 10\n"
            "    Prefix 100.64.0.0/31  Metric 10\n");
  auto routes = cli::run_command(*emulation.router("R1"), "show ip route");
  ASSERT_TRUE(routes.ok());
  EXPECT_NE(routes->find(" O"), std::string::npos);
}

}  // namespace
}  // namespace mfv
