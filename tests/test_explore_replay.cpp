// Deterministic witness replay (satellite: fails-on-some witnesses): a
// crafted race where one arrival order blackholes a prefix and the other
// delivers it. The engine must report blackhole_free as fails-on-some,
// the witness must survive a JSON round trip, and re-executing it through
// the kernel must reproduce the violating state byte-identically.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "emu/emulation.hpp"
#include "explore/explore.hpp"
#include "helpers.hpp"
#include "util/hash.hpp"

namespace mfv::explore {
namespace {

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix prefix(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

/// Two eBGP peers advertise 203.0.113.0/24 to listener L with identical
/// attributes. "SINK" backs its advertisement with a static discard
/// route; "ORIGIN" actually owns the prefix (connected on a loopback).
/// Under the prefer-oldest tiebreak the winner is whichever update lands
/// first: SINK-first converges to a blackhole, ORIGIN-first delivers.
std::unique_ptr<emu::Emulation> contested_base() {
  emu::EmulationOptions options;
  options.seed = 1;
  options.bgp_prefer_oldest = true;
  auto emulation = std::make_unique<emu::Emulation>(options);

  auto peer_base = [&](const std::string& name, int index, net::AsNumber as,
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
    config.bgp.networks.push_back({prefix("203.0.113.0/24"), std::nullopt});
    return config;
  };

  config::DeviceConfig sink = peer_base("SINK", 1, 65001, "100.64.0.0/31", "100.64.0.1");
  sink.static_routes.push_back(test::null_route(prefix("203.0.113.0/24")));

  config::DeviceConfig origin =
      peer_base("ORIGIN", 2, 65002, "100.64.0.2/31", "100.64.0.3");
  auto& owned = origin.interface("Loopback1");
  owned.switchport = false;
  owned.address = net::InterfaceAddress::parse("203.0.113.1/24");

  config::DeviceConfig listener;
  listener.hostname = "L";
  auto& loopback = listener.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0.9/32");
  listener.bgp.enabled = true;
  listener.bgp.local_as = 65000;
  listener.bgp.router_id = loopback.address->address;
  for (int i = 1; i <= 2; ++i) {
    auto& eth = listener.interface("Ethernet" + std::to_string(i));
    eth.switchport = false;
    eth.address = net::InterfaceAddress::parse(
        "100.64.0." + std::to_string(i == 1 ? 1 : 3) + "/31");
    config::BgpNeighborConfig neighbor;
    neighbor.peer = addr("100.64.0." + std::to_string(i == 1 ? 0 : 2));
    neighbor.remote_as = static_cast<net::AsNumber>(65000 + i);
    listener.bgp.neighbors.push_back(neighbor);
  }

  emulation->add_router(std::move(sink));
  emulation->add_router(std::move(origin));
  emulation->add_router(std::move(listener));
  emulation->add_link({"SINK", "Ethernet1"}, {"L", "Ethernet1"});
  emulation->add_link({"ORIGIN", "Ethernet1"}, {"L", "Ethernet2"});
  return emulation;
}

TEST(ExploreReplay, BlackholeFailsOnSomeWithReplayableWitness) {
  std::unique_ptr<emu::Emulation> base = contested_base();
  ExploreInput input;
  input.base = base.get();
  input.start = true;
  ExploreOptions options;
  options.keep_state_bytes = true;
  options.scope = prefix("203.0.113.0/24");

  util::Result<ExploreResult> result = explore(input, options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_TRUE(result->complete);
  ASSERT_EQ(result->unique_states, 2u);

  const PropertyReport* blackhole_free = nullptr;
  for (const PropertyReport& report : result->properties)
    if (report.property == "blackhole_free") blackhole_free = &report;
  ASSERT_NE(blackhole_free, nullptr);

  // One ordering delivers, the other discards: fails-on-some, not on all.
  EXPECT_FALSE(blackhole_free->holds_on_all);
  EXPECT_EQ(blackhole_free->failing_states, 1u);
  EXPECT_FALSE(blackhole_free->detail.empty());
  ASSERT_TRUE(blackhole_free->witness.has_value());
  const Witness& witness = *blackhole_free->witness;
  EXPECT_FALSE(witness.deliveries.empty());
  EXPECT_EQ(witness.deliveries.size(), witness.choices.size());

  // The witness names one of the explored states.
  const StateSummary* violating = nullptr;
  for (const StateSummary& state : result->states)
    if (state.hash == witness.state_hash) violating = &state;
  ASSERT_NE(violating, nullptr);

  // Round-trip the witness through its JSON wire form (what `mfvc
  // explore` prints and a repro script feeds back).
  util::Json wire = witness.to_json();
  util::Result<util::Json> reparsed = util::Json::parse_checked(wire.dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  util::Result<Witness> decoded = Witness::from_json(*reparsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->choices, witness.choices);
  EXPECT_EQ(decoded->state_hash, witness.state_hash);

  // Deterministic replay: the decoded schedule re-executed through the
  // kernel reproduces the violating state byte for byte.
  util::Result<CanonicalState> replayed =
      replay_schedule(input, decoded->choices, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().to_string();
  EXPECT_EQ(util::hex64(replayed->hash), witness.state_hash);
  EXPECT_EQ(replayed->bytes, violating->bytes);

  // Replay is stable run over run (same schedule, same bytes).
  util::Result<CanonicalState> again = replay_schedule(input, decoded->choices, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->bytes, replayed->bytes);

  // forwarding_stable must flag the same divergence (different winning
  // next hops for the contested prefix).
  const PropertyReport* stable = nullptr;
  for (const PropertyReport& report : result->properties)
    if (report.property == "forwarding_stable") stable = &report;
  ASSERT_NE(stable, nullptr);
  EXPECT_FALSE(stable->holds_on_all);
}

TEST(ExploreReplay, MalformedWitnessJsonRejected) {
  util::Result<util::Json> missing = util::Json::parse_checked("{\"choices\": \"x\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(Witness::from_json(*missing).ok());
}

}  // namespace
}  // namespace mfv::explore
