// BGP route reflection (RFC 4456 semantics): clients get full routes
// through the reflector without an iBGP full mesh, in both the emulated
// engine and the model baseline, and in both config dialects.
#include <gtest/gtest.h>

#include "config/dialect.hpp"
#include "helpers.hpp"
#include "model/ibdp.hpp"
#include "verify/queries.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::ibgp;
using test::link;
using test::wire;

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

void originate(config::DeviceConfig& config, const std::string& prefix) {
  config.static_routes.push_back(test::null_route(pfx(prefix)));
  config.bgp.networks.push_back({pfx(prefix), std::nullopt});
}

/// Hub-and-spoke: RR in the middle, A and C as clients, no A-C session.
void build_rr(emu::Emulation& emulation, bool clients) {
  auto a = base_router("A", 1);
  wire(a, 1, "100.64.0.0/31");
  ibgp(a, 65001, "10.0.0.2");
  originate(a, "203.0.113.0/24");
  auto rr = base_router("RR", 2);
  wire(rr, 1, "100.64.0.1/31");
  wire(rr, 2, "100.64.0.2/31");
  ibgp(rr, 65001, "10.0.0.1");
  ibgp(rr, 65001, "10.0.0.3");
  if (clients)
    for (auto& neighbor : rr.bgp.neighbors) neighbor.route_reflector_client = true;
  auto c = base_router("C", 3);
  wire(c, 1, "100.64.0.3/31");
  ibgp(c, 65001, "10.0.0.2");

  emulation.add_router(std::move(a));
  emulation.add_router(std::move(rr));
  emulation.add_router(std::move(c));
  link(emulation, "A", 1, "RR", 1);
  link(emulation, "RR", 2, "C", 1);
}

TEST(RouteReflector, ClientsGetRoutesWithoutFullMesh) {
  emu::Emulation emulation;
  build_rr(emulation, /*clients=*/true);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_NE(emulation.router("C")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr)
      << "the reflector must pass A's route to C";
}

TEST(RouteReflector, WithoutClientsNoReflection) {
  emu::Emulation emulation;
  build_rr(emulation, /*clients=*/false);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("C")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);
}

TEST(RouteReflector, ClientRouteReflectsToNonClientToo) {
  // A is a client; C is NOT. Routes *from* a client reflect to everyone.
  emu::Emulation emulation;
  auto a = base_router("A", 1);
  wire(a, 1, "100.64.0.0/31");
  ibgp(a, 65001, "10.0.0.2");
  originate(a, "203.0.113.0/24");
  auto rr = base_router("RR", 2);
  wire(rr, 1, "100.64.0.1/31");
  wire(rr, 2, "100.64.0.2/31");
  ibgp(rr, 65001, "10.0.0.1");
  rr.bgp.neighbors.back().route_reflector_client = true;  // A is a client
  ibgp(rr, 65001, "10.0.0.3");                            // C is not
  auto c = base_router("C", 3);
  wire(c, 1, "100.64.0.3/31");
  ibgp(c, 65001, "10.0.0.2");
  originate(c, "198.51.100.0/24");

  emulation.add_router(std::move(a));
  emulation.add_router(std::move(rr));
  emulation.add_router(std::move(c));
  link(emulation, "A", 1, "RR", 1);
  link(emulation, "RR", 2, "C", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  // Client route -> non-client: reflected.
  EXPECT_NE(emulation.router("C")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);
  // Non-client route -> client: also reflected (C's route to A).
  EXPECT_NE(emulation.router("A")->fib().ipv4_entry(pfx("198.51.100.0/24")), nullptr);
}

TEST(RouteReflector, CeosConfigRoundTrip) {
  config::DeviceConfig config;
  config.hostname = "rr";
  config.bgp.enabled = true;
  config.bgp.local_as = 65001;
  config::BgpNeighborConfig neighbor;
  neighbor.peer = addr("10.0.0.1");
  neighbor.remote_as = 65001;
  neighbor.route_reflector_client = true;
  config.bgp.neighbors.push_back(neighbor);

  std::string text = config::write_config(config);
  EXPECT_NE(text.find("route-reflector-client"), std::string::npos);
  config::ParseResult reparsed = config::parse_config(text, config::Vendor::kCeos);
  EXPECT_EQ(reparsed.diagnostics.error_count(), 0u);
  ASSERT_EQ(reparsed.config.bgp.neighbors.size(), 1u);
  EXPECT_TRUE(reparsed.config.bgp.neighbors[0].route_reflector_client);
}

TEST(RouteReflector, VjunConfigRoundTrip) {
  config::DeviceConfig config;
  config.hostname = "rr";
  config.vendor = config::Vendor::kVjun;
  config.bgp.enabled = true;
  config.bgp.local_as = 65001;
  config.bgp.router_id = addr("10.0.0.2");
  config::BgpNeighborConfig neighbor;
  neighbor.peer = addr("10.0.0.1");
  neighbor.remote_as = 65001;
  neighbor.route_reflector_client = true;
  config.bgp.neighbors.push_back(neighbor);

  std::string text = config::write_config(config);
  EXPECT_NE(text.find("cluster"), std::string::npos);
  config::ParseResult reparsed = config::parse_config(text, config::Vendor::kVjun);
  EXPECT_EQ(reparsed.diagnostics.error_count(), 0u);
  ASSERT_EQ(reparsed.config.bgp.neighbors.size(), 1u);
  EXPECT_TRUE(reparsed.config.bgp.neighbors[0].route_reflector_client);
}

TEST(RouteReflector, ModelBaselineAgreesOnReflection) {
  // Build the hub-and-spoke as config text and run both backends; RR is a
  // feature both support, so they must agree (unlike MPLS).
  auto make = [](const std::string& name, int index,
                 std::vector<std::pair<int, std::string>> ports,
                 std::vector<std::string> peers, bool clients,
                 bool originate_prefix) {
    config::DeviceConfig config;
    config.hostname = name;
    config.isis.enabled = true;
    config.isis.instance = "default";
    char net[40];
    std::snprintf(net, sizeof(net), "49.0001.0000.0000.%04x.00", index);
    config.isis.net = net;
    config.isis.af_ipv4_unicast = true;
    auto& loopback = config.interface("Loopback0");
    loopback.switchport = false;
    loopback.address =
        net::InterfaceAddress::parse("10.0.0." + std::to_string(index) + "/32");
    loopback.isis_enabled = true;
    loopback.isis_passive = true;
    for (auto& [port, cidr] : ports) {
      auto& iface = config.interface("Ethernet" + std::to_string(port));
      iface.switchport = false;
      iface.address = net::InterfaceAddress::parse(cidr);
      iface.isis_enabled = true;
    }
    config.bgp.enabled = true;
    config.bgp.local_as = 65001;
    config.bgp.router_id = loopback.address->address;
    for (const std::string& peer : peers) {
      config::BgpNeighborConfig neighbor;
      neighbor.peer = *net::Ipv4Address::parse(peer);
      neighbor.remote_as = 65001;
      neighbor.update_source = "Loopback0";
      neighbor.route_reflector_client = clients;
      config.bgp.neighbors.push_back(neighbor);
    }
    if (originate_prefix) {
      config.static_routes.push_back(test::null_route(pfx("203.0.113.0/24")));
      config.bgp.networks.push_back({pfx("203.0.113.0/24"), std::nullopt});
    }
    return emu::NodeSpec{name, config::Vendor::kCeos, config::write_config(config)};
  };

  emu::Topology topology;
  topology.nodes.push_back(
      make("A", 1, {{1, "100.64.0.0/31"}}, {"10.0.0.2"}, false, true));
  topology.nodes.push_back(make("RR", 2, {{1, "100.64.0.1/31"}, {2, "100.64.0.2/31"}},
                                {"10.0.0.1", "10.0.0.3"}, true, false));
  topology.nodes.push_back(
      make("C", 3, {{1, "100.64.0.3/31"}}, {"10.0.0.2"}, false, false));
  topology.links.push_back({{"A", "Ethernet1"}, {"RR", "Ethernet1"}, 1000});
  topology.links.push_back({{"RR", "Ethernet2"}, {"C", "Ethernet1"}, 1000});

  // Model backend.
  model::ModelResult model = model::run_model(topology);
  const aft::Ipv4Entry* model_entry =
      model.snapshot.devices.at("C").aft.ipv4_entry(pfx("203.0.113.0/24"));
  EXPECT_NE(model_entry, nullptr) << "the model supports reflection too";

  // Emulated backend.
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(topology).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_NE(emulation.router("C")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);
}

}  // namespace
}  // namespace mfv
