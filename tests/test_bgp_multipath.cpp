// BGP multipath (maximum-paths): equal candidates through the decision
// process install as an ECMP set; the cap and eligibility rules hold.
#include <gtest/gtest.h>

#include "config/dialect.hpp"
#include "helpers.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::ebgp;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

void originate(config::DeviceConfig& config, const std::string& prefix) {
  config.static_routes.push_back(test::null_route(pfx(prefix)));
  config.bgp.networks.push_back({pfx(prefix), std::nullopt});
}

/// Listener with N eBGP advertisers of the same prefix, identical
/// attributes (same AS on every advertiser => MED comparable & equal).
void build(emu::Emulation& emulation, int advertisers, uint32_t maximum_paths) {
  auto listener = base_router("L", 9, false);
  listener.bgp.maximum_paths = maximum_paths;
  for (int i = 1; i <= advertisers; ++i) {
    auto advertiser = base_router("A" + std::to_string(i), i, false);
    std::string subnet = "100.64." + std::to_string(i) + ".";
    wire(advertiser, 1, subnet + "0/31", false);
    ebgp(advertiser, 65001, subnet + "1", 65002);
    originate(advertiser, "203.0.113.0/24");
    emulation.add_router(std::move(advertiser));
    wire(listener, i, subnet + "1/31", false);
    ebgp(listener, 65002, subnet + "0", 65001);
  }
  emulation.add_router(std::move(listener));
  for (int i = 1; i <= advertisers; ++i)
    link(emulation, "A" + std::to_string(i), 1, "L", i);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
}

TEST(BgpMultipath, DefaultInstallsSingleBest) {
  emu::Emulation emulation;
  build(emulation, 3, /*maximum_paths=*/1);
  EXPECT_EQ(emulation.router("L")->fib().forward(addr("203.0.113.1")).size(), 1u);
}

TEST(BgpMultipath, EcmpUpToMaximumPaths) {
  emu::Emulation emulation;
  build(emulation, 3, /*maximum_paths=*/4);
  EXPECT_EQ(emulation.router("L")->fib().forward(addr("203.0.113.1")).size(), 3u);
}

TEST(BgpMultipath, CapRespected) {
  emu::Emulation emulation;
  build(emulation, 3, /*maximum_paths=*/2);
  EXPECT_EQ(emulation.router("L")->fib().forward(addr("203.0.113.1")).size(), 2u);
}

TEST(BgpMultipath, UnequalAsPathLengthExcluded) {
  emu::Emulation emulation;
  auto listener = base_router("L", 9, false);
  listener.bgp.maximum_paths = 4;
  for (int i = 1; i <= 2; ++i) {
    auto advertiser = base_router("A" + std::to_string(i), i, false);
    std::string subnet = "100.64." + std::to_string(i) + ".";
    wire(advertiser, 1, subnet + "0/31", false);
    ebgp(advertiser, 65001, subnet + "1", 65002);
    if (i == 2) {
      // Longer AS path on the second advertiser.
      advertiser.bgp.neighbors[0].route_map_out = "PREPEND";
      config::RouteMap map;
      map.name = "PREPEND";
      config::RouteMapClause clause;
      clause.seq = 10;
      clause.prepend_count = 2;
      map.clauses.push_back(clause);
      advertiser.route_maps["PREPEND"] = map;
    }
    originate(advertiser, "203.0.113.0/24");
    emulation.add_router(std::move(advertiser));
    wire(listener, i, subnet + "1/31", false);
    ebgp(listener, 65002, subnet + "0", 65001);
  }
  emulation.add_router(std::move(listener));
  link(emulation, "A1", 1, "L", 1);
  link(emulation, "A2", 1, "L", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  // Only the short-path route installs.
  auto hops = emulation.router("L")->fib().forward(addr("203.0.113.1"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.1.0");
}

TEST(BgpMultipath, ConfigRoundTrip) {
  config::DeviceConfig config;
  config.hostname = "r";
  config.bgp.enabled = true;
  config.bgp.local_as = 65000;
  config.bgp.maximum_paths = 8;
  config::BgpNeighborConfig neighbor;
  neighbor.peer = addr("10.0.0.1");
  neighbor.remote_as = 65001;
  config.bgp.neighbors.push_back(neighbor);
  std::string text = config::write_config(config);
  EXPECT_NE(text.find("maximum-paths 8"), std::string::npos);
  config::ParseResult reparsed = config::parse_config(text, config::Vendor::kCeos);
  EXPECT_EQ(reparsed.diagnostics.error_count(), 0u);
  EXPECT_EQ(reparsed.config.bgp.maximum_paths, 8u);
}

TEST(BgpMultipath, PathLossShrinksEcmpSet) {
  emu::Emulation emulation;
  build(emulation, 3, /*maximum_paths=*/4);
  ASSERT_EQ(emulation.router("L")->fib().forward(addr("203.0.113.1")).size(), 3u);
  ASSERT_TRUE(emulation.set_link_up({"A2", "Ethernet1"}, {"L", "Ethernet2"}, false));
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("L")->fib().forward(addr("203.0.113.1")).size(), 2u);
}

}  // namespace
}  // namespace mfv
