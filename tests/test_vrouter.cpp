// VirtualRouter unit behaviour: interface/link state, connected & static
// route installation, FIB versioning, configuration replacement.
#include <gtest/gtest.h>

#include "config/dialect.hpp"
#include "emu/emulation.hpp"
#include "helpers.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

TEST(VirtualRouter, ConnectedAndLocalRoutesInstalledOnStart) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, /*isis=*/false);
  wire(r1, 1, "100.64.0.0/31", false);
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto& rib = emulation.router("R1")->routing_table();
  auto connected = rib.best(pfx("100.64.0.0/31"));
  ASSERT_EQ(connected.size(), 1u);
  EXPECT_EQ(connected[0].protocol, rib::Protocol::kConnected);
  // Loopback /32 is connected; no separate local route for /32 subnets.
  auto loopback = rib.best(pfx("10.0.0.1/32"));
  ASSERT_EQ(loopback.size(), 1u);
  EXPECT_EQ(loopback[0].protocol, rib::Protocol::kConnected);
}

TEST(VirtualRouter, UnwiredInterfaceStaysDown) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);  // no link added
  emulation.add_router(std::move(r1));
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  const auto* router = emulation.router("R1");
  EXPECT_TRUE(router->routing_table().best(pfx("100.64.0.0/31")).empty());
  EXPECT_FALSE(router->owns_address(addr("100.64.0.0")));
  EXPECT_TRUE(router->owns_address(addr("10.0.0.1")));  // loopback always up
}

TEST(VirtualRouter, ShutdownInterfaceHasNoRoutes) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false).shutdown = true;
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R1")->routing_table().best(pfx("100.64.0.0/31")).empty());
}

TEST(VirtualRouter, SwitchportInterfaceHasNoL3Presence) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  auto& iface = wire(r1, 1, "100.64.0.0/31", false);
  iface.switchport = true;  // L2 mode: address configured but inactive
  emulation.add_router(std::move(r1));
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R1")->routing_table().best(pfx("100.64.0.0/31")).empty());
}

TEST(VirtualRouter, StaticRouteVariantsReachFib) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  r1.static_routes.push_back(test::null_route(pfx("0.0.0.0/0")));
  config::StaticRoute via_next_hop;
  via_next_hop.prefix = pfx("198.51.100.0/24");
  via_next_hop.next_hop = addr("100.64.0.1");
  r1.static_routes.push_back(via_next_hop);
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const aft::Aft& fib = emulation.router("R1")->fib();
  auto default_hops = fib.forward(addr("8.8.8.8"));
  ASSERT_EQ(default_hops.size(), 1u);
  EXPECT_TRUE(default_hops[0].drop);
  auto static_hops = fib.forward(addr("198.51.100.9"));
  ASSERT_EQ(static_hops.size(), 1u);
  EXPECT_EQ(static_hops[0].ip_address->to_string(), "100.64.0.1");
}

TEST(VirtualRouter, FibVersionAdvancesOnlyOnForwardingChange) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  uint64_t version = emulation.router("R1")->fib_version();
  EXPECT_GT(version, 0u);
  // Quiescent re-run: nothing changes.
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("R1")->fib_version(), version);

  // Link flap changes forwarding (route removed, then re-added).
  emulation.set_link_up({"R1", "Ethernet1"}, {"R2", "Ethernet1"}, false);
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_GT(emulation.router("R1")->fib_version(), version);
}

TEST(VirtualRouter, ApplyConfigReplacesControlPlane) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  ASSERT_FALSE(emulation.router("R2")->fib().forward(addr("10.0.0.1")).empty());

  // New config without IS-IS: adjacency collapses, routes disappear on
  // both sides.
  auto stripped = base_router("R1", 1, /*isis=*/false);
  wire(stripped, 1, "100.64.0.0/31", /*isis=*/false);
  emulation.apply_config_text("R1", config::write_config(stripped),
                              config::Vendor::kCeos);
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_TRUE(emulation.router("R2")->fib().forward(addr("10.0.0.1")).empty());
  EXPECT_FALSE(emulation.router("R1")->isis()->active());

  // And back: reconfiguration converges again (the §4.1 fast path).
  auto restored = base_router("R1", 1);
  wire(restored, 1, "100.64.0.0/31");
  emulation.apply_config_text("R1", config::write_config(restored),
                              config::Vendor::kCeos);
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_FALSE(emulation.router("R2")->fib().forward(addr("10.0.0.1")).empty());
}

TEST(VirtualRouter, DeviceAftReflectsInterfaceState) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  wire(r1, 2, "100.64.0.2/31", false);  // unwired -> down
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  aft::DeviceAft device = emulation.router("R1")->device_aft();
  EXPECT_TRUE(device.interfaces.at("Ethernet1").oper_up);
  EXPECT_FALSE(device.interfaces.at("Ethernet2").oper_up);
  EXPECT_TRUE(device.interfaces.at("Loopback0").oper_up);
}

TEST(VirtualRouter, ReachableSemantics) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  r1.static_routes.push_back(test::null_route(pfx("192.0.2.0/24")));
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* router = emulation.router("R1");
  EXPECT_TRUE(router->reachable(addr("10.0.0.1")));   // own loopback
  EXPECT_TRUE(router->reachable(addr("10.0.0.2")));   // via IS-IS
  EXPECT_FALSE(router->reachable(addr("8.8.8.8")));   // no route
  EXPECT_FALSE(router->reachable(addr("192.0.2.1"))); // null-routed
}

}  // namespace
}  // namespace mfv
