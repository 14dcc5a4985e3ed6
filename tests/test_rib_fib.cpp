// Recursive next-hop resolution and FIB compilation (RIB -> AFT).
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "config/dialect.hpp"
#include "emu/emulation.hpp"
#include "rib/rib.hpp"
#include "scenario/scenario.hpp"
#include "workload/generator.hpp"

namespace mfv::rib {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

/// Typical router RIB: connected link, IS-IS loopback route, recursive BGP.
Rib typical_rib() {
  Rib rib;
  RibRoute connected;
  connected.prefix = pfx("100.64.0.0/31");
  connected.protocol = Protocol::kConnected;
  connected.interface = "Ethernet1";
  rib.add(connected);

  RibRoute isis;
  isis.prefix = pfx("2.2.2.2/32");  // remote loopback
  isis.protocol = Protocol::kIsis;
  isis.admin_distance = 115;
  isis.metric = 20;
  isis.next_hop = addr("100.64.0.1");
  isis.interface = "Ethernet1";
  rib.add(isis);

  RibRoute bgp;  // BGP route with next hop = remote loopback (recursive)
  bgp.prefix = pfx("203.0.113.0/24");
  bgp.protocol = Protocol::kIbgp;
  bgp.admin_distance = 200;
  bgp.next_hop = addr("2.2.2.2");
  rib.add(bgp);
  return rib;
}

TEST(Resolve, DirectRouteResolvesToItself) {
  Rib rib = typical_rib();
  auto routes = rib.best(pfx("2.2.2.2/32"));
  ASSERT_EQ(routes.size(), 1u);
  auto resolved = resolve(rib, routes[0]);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, RecursiveBgpRouteResolvesThroughIgp) {
  Rib rib = typical_rib();
  auto routes = rib.best(pfx("203.0.113.0/24"));
  ASSERT_EQ(routes.size(), 1u);
  auto resolved = resolve(rib, routes[0]);
  ASSERT_EQ(resolved.size(), 1u);
  // Forwarding uses the IGP's adjacent next hop, not the BGP next hop.
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, NextHopOnConnectedSubnetIsAdjacent) {
  Rib rib = typical_rib();
  RibRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.protocol = Protocol::kStatic;
  route.next_hop = addr("100.64.0.1");  // directly on the connected /31
  auto resolved = resolve(rib, route);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].next_hop->to_string(), "100.64.0.1");
  EXPECT_EQ(resolved[0].interface, "Ethernet1");
}

TEST(Resolve, UnresolvableNextHopYieldsNothing) {
  Rib rib = typical_rib();
  RibRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.protocol = Protocol::kStatic;
  route.next_hop = addr("172.16.0.1");  // no covering route
  EXPECT_TRUE(resolve(rib, route).empty());
}

TEST(Resolve, DropRouteResolvesToDrop) {
  Rib rib;
  RibRoute route;
  route.prefix = pfx("0.0.0.0/0");
  route.protocol = Protocol::kStatic;
  route.drop = true;
  auto resolved = resolve(rib, route);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_TRUE(resolved[0].drop);
}

TEST(Resolve, TeLabelPropagatesThroughRecursion) {
  Rib rib = typical_rib();
  RibRoute te;
  te.prefix = pfx("2.2.2.2/32");
  te.protocol = Protocol::kTe;
  te.admin_distance = 2;
  te.next_hop = addr("100.64.0.1");
  te.push_label = 100042;
  auto resolved = resolve(rib, te);
  ASSERT_EQ(resolved.size(), 1u);
  ASSERT_TRUE(resolved[0].push_label.has_value());
  EXPECT_EQ(*resolved[0].push_label, 100042u);
}

TEST(Resolve, SelfReferentialRouteTerminates) {
  Rib rib;
  RibRoute loopy;
  loopy.prefix = pfx("10.0.0.0/8");
  loopy.protocol = Protocol::kStatic;
  loopy.next_hop = addr("10.0.0.1");  // resolves through itself
  rib.add(loopy);
  EXPECT_TRUE(resolve(rib, loopy).empty());
}

TEST(Resolve, TwoRouteResolutionCycleTerminates) {
  Rib rib;
  RibRoute a;
  a.prefix = pfx("10.0.0.0/8");
  a.protocol = Protocol::kStatic;
  a.next_hop = addr("20.0.0.1");
  rib.add(a);
  RibRoute b;
  b.prefix = pfx("20.0.0.0/8");
  b.protocol = Protocol::kStatic;
  b.next_hop = addr("10.0.0.1");
  rib.add(b);
  EXPECT_TRUE(resolve(rib, a).empty());
  EXPECT_TRUE(resolve(rib, b).empty());
}

TEST(CompileFib, ProducesEntriesWithSharedNextHops) {
  Rib rib = typical_rib();
  aft::Aft fib = compile_fib(rib);
  // Three prefixes: connected /31, loopback /32, BGP /24.
  EXPECT_EQ(fib.entry_count(), 3u);
  // The IS-IS route and the recursive BGP route share one next hop.
  EXPECT_EQ(fib.next_hops().size(), 2u);  // adjacent hop + connected-attached hop

  const aft::Ipv4Entry* bgp_entry = fib.ipv4_entry(pfx("203.0.113.0/24"));
  ASSERT_NE(bgp_entry, nullptr);
  EXPECT_EQ(bgp_entry->origin_protocol, "IBGP");
  auto hops = fib.forward(addr("203.0.113.7"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].ip_address->to_string(), "100.64.0.1");
}

TEST(CompileFib, EcmpBecomesOneGroupWithTwoHops) {
  Rib rib;
  for (int i = 1; i <= 2; ++i) {
    RibRoute connected;
    connected.prefix = pfx("100.64." + std::to_string(i) + ".0/31");
    connected.protocol = Protocol::kConnected;
    connected.interface = "Ethernet" + std::to_string(i);
    connected.source = connected.interface.value();
    rib.add(connected);

    RibRoute isis;
    isis.prefix = pfx("2.2.2.2/32");
    isis.protocol = Protocol::kIsis;
    isis.admin_distance = 115;
    isis.metric = 20;
    isis.next_hop = addr("100.64." + std::to_string(i) + ".1");
    isis.interface = "Ethernet" + std::to_string(i);
    isis.source = "default";
    rib.add(isis);
  }
  aft::Aft fib = compile_fib(rib);
  auto hops = fib.forward(addr("2.2.2.2"));
  EXPECT_EQ(hops.size(), 2u);
}

TEST(CompileFib, UnresolvableRouteNotProgrammed) {
  Rib rib;
  RibRoute bgp;
  bgp.prefix = pfx("203.0.113.0/24");
  bgp.protocol = Protocol::kBgp;
  bgp.admin_distance = 20;
  bgp.next_hop = addr("2.2.2.2");  // nothing resolves this
  rib.add(bgp);
  aft::Aft fib = compile_fib(rib);
  EXPECT_EQ(fib.entry_count(), 0u);
}

TEST(CompileFib, DropRouteProgrammedAsDrop) {
  Rib rib;
  RibRoute null_route;
  null_route.prefix = pfx("0.0.0.0/0");
  null_route.protocol = Protocol::kStatic;
  null_route.drop = true;
  rib.add(null_route);
  aft::Aft fib = compile_fib(rib);
  auto hops = fib.forward(addr("8.8.8.8"));
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_TRUE(hops[0].drop);
}

TEST(CompileFib, IdenticalRibsCompileForwardingEqual) {
  aft::Aft a = compile_fib(typical_rib());
  aft::Aft b = compile_fib(typical_rib());
  EXPECT_TRUE(a.forwarding_equal(b));
}

// ---------------------------------------------------------------------------
// FibPatcher: after every random RIB edit, the patched table must be
// byte-identical to compile_fib of the RIB (plus the label entries), and
// its change flags must agree with comparing the two tables.

aft::Aft reference_fib(const Rib& rib, const LabelHops& labels) {
  aft::Aft fib = compile_fib(rib);
  for (const auto& [label, hop] : labels)
    fib.set_label_entry({label, fib.add_group(fib.add_next_hop(hop))});
  return fib;
}

/// Draws RIB edits over a small address plan: four attached /31s, IGP
/// loopbacks with ECMP, BGP over those loopbacks (and over each other),
/// static drops and recursive statics, gRIBI routes, TE routes pushing
/// labels, a default route that covers every next hop, prefix removal.
class RibEditor {
 public:
  explicit RibEditor(uint32_t seed) : rng_(seed) {}

  void edit(Rib& rib) {
    switch (pick(10)) {
      case 0: rib.add(connected(1 + pick(4))); break;
      case 1: rib.remove(connected(1 + pick(4))); break;
      case 2: reinstall_igp(rib); break;
      case 3: igp_prefixes(rib); break;
      case 4: rib.add(bgp()); break;
      case 5: rib.remove(bgp()); break;
      case 6: static_route(rib); break;
      case 7: rib.add(te()); break;
      case 8: rib.remove(te()); break;
      default: gribi(rib); break;
    }
  }

  LabelHops labels() {
    LabelHops hops;
    for (uint32_t label = 100; label < 100 + pick(3); ++label) {
      aft::NextHop hop;
      hop.label_op = pick(2) ? aft::LabelOp::kSwap : aft::LabelOp::kPop;
      if (hop.label_op == aft::LabelOp::kSwap) {
        hop.label = 200 + pick(2);
        hop.ip_address = link_peer(1 + pick(4));
        hop.interface = "Ethernet" + std::to_string(1 + pick(4));
      }
      hops.emplace_back(label, hop);
    }
    return hops;
  }

  uint32_t pick(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

 private:
  static net::Ipv4Address link_peer(uint32_t port) {
    return addr("100.64." + std::to_string(port) + ".1");
  }
  static net::Ipv4Address loopback(uint32_t k) { return addr("2.2.2." + std::to_string(k)); }

  RibRoute connected(uint32_t port) {
    RibRoute route;
    route.prefix = pfx("100.64." + std::to_string(port) + ".0/31");
    route.protocol = Protocol::kConnected;
    route.interface = "Ethernet" + std::to_string(port);
    route.source = *route.interface;
    return route;
  }

  std::vector<RibRoute> igp_routes(uint32_t k) {
    std::vector<RibRoute> routes;
    uint32_t metric = 10 * (1 + pick(3));
    for (uint32_t port = 1; port <= 4; ++port) {
      if (pick(3) != 0) continue;  // ECMP over a random subset of links
      RibRoute route;
      route.prefix = net::Ipv4Prefix::host(loopback(k));
      route.protocol = Protocol::kIsis;
      route.admin_distance = 115;
      route.metric = metric + (pick(4) == 0 ? 5 : 0);
      route.next_hop = link_peer(port);
      route.interface = "Ethernet" + std::to_string(port);
      route.source = "default";
      routes.push_back(route);
    }
    return routes;
  }

  void reinstall_igp(Rib& rib) {
    std::vector<RibRoute> all;
    for (uint32_t k = 1; k <= 6; ++k)
      if (pick(4) != 0)
        for (RibRoute& route : igp_routes(k)) all.push_back(std::move(route));
    rib.replace_protocol(Protocol::kIsis, "default", std::move(all));
  }

  /// A batched diff install: a random subset of the loopbacks, each
  /// withdrawn or given a fresh ECMP set.
  void igp_prefixes(Rib& rib) {
    std::vector<net::Ipv4Prefix> prefixes;
    std::vector<RibRoute> routes;
    for (uint32_t k = 1; k <= 6; ++k) {
      if (pick(2) != 0) continue;
      prefixes.push_back(net::Ipv4Prefix::host(loopback(k)));
      if (pick(4) != 0)
        for (RibRoute& route : igp_routes(k)) routes.push_back(std::move(route));
    }
    rib.replace_prefixes(Protocol::kIsis, "default", prefixes, std::move(routes));
  }

  RibRoute bgp() {
    RibRoute route;
    uint32_t k = 1 + pick(5);
    route.prefix = pfx("203.0." + std::to_string(k) + ".0/24");
    route.protocol = pick(2) ? Protocol::kIbgp : Protocol::kBgp;
    route.admin_distance = route.protocol == Protocol::kIbgp ? 200 : 20;
    route.metric = pick(3);
    // Only loopbacks (one of them never announced) and an address only
    // the default route covers: BGP over BGP would form resolution
    // cycles, which resolve() walks to its depth limit once per ECMP
    // branch.
    route.next_hop = pick(4) == 0 ? addr("9.9.9.9") : loopback(1 + pick(7));
    route.source = "bgp";
    return route;
  }

  void static_route(Rib& rib) {
    RibRoute route;
    route.protocol = Protocol::kStatic;
    route.admin_distance = 1;
    route.source = "static";
    switch (pick(3)) {
      case 0:
        route.prefix = pfx("192.0.2.0/24");
        route.drop = true;
        break;
      case 1:
        // One next hop only: ECMP defaults whose next hops fall back on
        // the default itself resolve through each other exponentially.
        route.prefix = pfx("0.0.0.0/0");
        route.next_hop = link_peer(1);
        break;
      default:
        route.prefix = pfx("10.99.0.0/16");
        route.next_hop = addr("203.0." + std::to_string(1 + pick(5)) + ".5");
        break;
    }
    if (pick(3) == 0)
      rib.remove(route);
    else
      rib.add(route);
  }

  RibRoute te() {
    RibRoute route;
    route.prefix = net::Ipv4Prefix::host(loopback(1 + pick(6)));
    route.protocol = Protocol::kTe;
    route.admin_distance = 2;
    route.next_hop = link_peer(1 + pick(4));
    route.push_label = 1000 + pick(3);
    route.source = "tunnel";
    return route;
  }

  void gribi(Rib& rib) {
    net::Ipv4Prefix prefix = pfx("198.51.100." + std::to_string(64 * pick(2)) + "/26");
    if (pick(3) == 0) {
      rib.clear_protocol(Protocol::kGribi);
      return;
    }
    RibRoute route;
    route.prefix = prefix;
    route.protocol = Protocol::kGribi;
    route.admin_distance = 5;
    route.next_hop = pick(2) ? loopback(1 + pick(6)) : link_peer(1 + pick(4));
    route.source = "gribi";
    rib.add(route);
  }

  std::mt19937 rng_;
};

TEST(FibPatcher, RandomEditsMatchAFullCompile) {
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    RibEditor editor(seed);
    Rib rib;
    aft::Aft fib;
    FibPatcher patcher;
    LabelHops labels;
    for (int step = 0; step < 150; ++step) {
      int edits = 1 + static_cast<int>(editor.pick(4));
      for (int i = 0; i < edits; ++i) editor.edit(rib);
      if (editor.pick(50) == 0) rib = Rib();  // RIB reset: all dirty
      if (editor.pick(8) == 0) labels = editor.labels();

      aft::Aft before = fib;
      FibPatcher::Result result = patcher.patch(rib, fib, labels);
      aft::Aft expected = reference_fib(rib, labels);
      ASSERT_EQ(fib.to_json().dump(), expected.to_json().dump())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(result.changed, !(before == fib)) << "seed " << seed << " step " << step;
      ASSERT_EQ(result.forwarding_changed, !before.forwarding_equal(fib))
          << "seed " << seed << " step " << step;
      // Consumed: patching again changes nothing.
      ASSERT_FALSE(patcher.patch(rib, fib, labels).changed);
    }
  }
}

TEST(FibPatcher, ForkedPatchersShareStateAndDivergeIndependently) {
  RibEditor editor(7);
  Rib rib;
  aft::Aft fib;
  FibPatcher patcher;
  for (int i = 0; i < 60; ++i) editor.edit(rib);
  patcher.patch(rib, fib);

  Rib fork_rib = rib;
  aft::Aft fork_fib = fib;
  FibPatcher fork_patcher = patcher;
  for (int i = 0; i < 40; ++i) editor.edit(fork_rib);
  fork_patcher.patch(fork_rib, fork_fib);
  EXPECT_EQ(fork_fib.to_json().dump(), compile_fib(fork_rib).to_json().dump());
  // The base is untouched and keeps patching correctly on its own.
  EXPECT_EQ(fib.to_json().dump(), compile_fib(rib).to_json().dump());
  for (int i = 0; i < 40; ++i) editor.edit(rib);
  patcher.patch(rib, fib);
  EXPECT_EQ(fib.to_json().dump(), compile_fib(rib).to_json().dump());
}

TEST(FibPatcher, UnchangedRibKeepsTheSharedTable) {
  Rib rib = typical_rib();
  aft::Aft fib;
  FibPatcher patcher;
  EXPECT_TRUE(patcher.patch(rib, fib).changed);
  aft::Aft shared = fib;
  // A candidate that loses to the best route leaves the table alone.
  RibRoute worse;
  worse.prefix = pfx("2.2.2.2/32");
  worse.protocol = Protocol::kOspf;
  worse.admin_distance = 110 + 10;
  worse.next_hop = addr("100.64.0.1");
  worse.interface = "Ethernet1";
  rib.add(worse);
  FibPatcher::Result result = patcher.patch(rib, fib);
  EXPECT_FALSE(result.changed);
  EXPECT_TRUE(fib.shares_tables(shared));
}

// A dirty prefix that compiles to the entry it already has runs the whole
// walk, which changes nothing, so the table stays shared as well.
TEST(FibPatcher, RecompiledEqualTableStaysShared) {
  Rib rib = typical_rib();
  aft::Aft fib;
  FibPatcher patcher;
  EXPECT_TRUE(patcher.patch(rib, fib).changed);
  aft::Aft shared = fib;
  RibRoute route = rib.best(pfx("2.2.2.2/32")).front();
  rib.remove(route);
  rib.add(route);
  FibPatcher::Result result = patcher.patch(rib, fib);
  EXPECT_FALSE(result.changed);
  EXPECT_TRUE(fib.shares_tables(shared));
}

TEST(RibDirty, MutationsMarkWhatTheyTouch) {
  Rib rib = typical_rib();
  Rib::Dirty dirty = rib.take_dirty();
  EXPECT_TRUE(dirty.all);  // a fresh RIB has never been compiled
  EXPECT_EQ(dirty.prefixes.size(), 3u);
  EXPECT_TRUE(rib.take_dirty().prefixes.empty());

  RibRoute isis = rib.best(pfx("2.2.2.2/32")).front();
  isis.metric = 30;
  EXPECT_TRUE(rib.replace_prefixes(Protocol::kIsis, "", {isis.prefix}, {isis}));
  EXPECT_FALSE(rib.replace_prefixes(Protocol::kIsis, "", {isis.prefix}, {isis}));
  RibRoute connected = rib.best(pfx("100.64.0.0/31")).front();
  EXPECT_EQ(rib.clear_protocol(Protocol::kConnected), 1u);
  dirty = rib.take_dirty();
  EXPECT_FALSE(dirty.all);
  EXPECT_EQ(dirty.prefixes, (std::vector<net::Ipv4Prefix>{pfx("2.2.2.2/32"),
                                                           pfx("100.64.0.0/31")}));
  rib.add(connected);
  rib.replace_protocol(Protocol::kIsis, "", {});
  EXPECT_EQ(rib.take_dirty().prefixes,
            (std::vector<net::Ipv4Prefix>{pfx("2.2.2.2/32"), pfx("100.64.0.0/31")}));
}

/// Routers whose exported default-instance AFT differs from a fresh
/// compile of their RIB (none of these networks runs TE, so there are
/// no label entries to add).
std::vector<std::string> stale_routers(const emu::Emulation& emulation) {
  std::vector<std::string> stale;
  for (const net::NodeName& name : emulation.node_names()) {
    const vrouter::VirtualRouter* router = emulation.router(name);
    if (router->fib().to_json().dump() !=
        compile_fib(router->routing_table()).to_json().dump())
      stale.push_back(name);
  }
  return stale;
}

/// Routers whose IS-IS routes differ from a full replace_protocol
/// reinstall of their last SPF run.
std::vector<std::string> stale_isis_routers(const emu::Emulation& emulation) {
  std::vector<std::string> stale;
  for (const net::NodeName& name : emulation.node_names()) {
    const vrouter::VirtualRouter* router = emulation.router(name);
    const proto::IsisEngine* isis = router->isis();
    Rib reinstalled = router->routing_table();
    if (isis != nullptr &&
        reinstalled.replace_protocol(Protocol::kIsis, isis->instance(), isis->spf_routes()))
      stale.push_back(name);
  }
  return stale;
}

/// A converged 40-router WAN whose router wan5 can be reconfigured live.
class FibRefresh : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::WanOptions options;
    options.routers = 40;
    options.seed = 11;
    topology_ = workload::wan_topology(options);
    ASSERT_TRUE(emulation_.add_topology(topology_).ok());
    emulation_.start_all();
    ASSERT_TRUE(emulation_.run_to_convergence());
    ASSERT_TRUE(stale_routers(emulation_).empty());
  }

  /// Applies `edit` to wan5's configuration and re-converges.
  void reconfigure_wan5(const std::function<void(config::DeviceConfig&)>& edit) {
    const emu::NodeSpec* wan5 = nullptr;
    for (const emu::NodeSpec& node : topology_.nodes)
      if (node.name == "wan5") wan5 = &node;
    ASSERT_NE(wan5, nullptr);
    config::ParseResult parsed = config::parse_config(wan5->config_text, wan5->vendor);
    edit(parsed.config);
    ASSERT_TRUE(scenario::ScenarioRunner::apply(
        emulation_, scenario::ConfigReplace{wan5->name, config::write_config(parsed.config),
                                            wan5->vendor}));
    ASSERT_TRUE(emulation_.run_to_convergence());
  }

  uint64_t fib_versions() const {
    uint64_t versions = 0;
    for (const net::NodeName& name : emulation_.node_names())
      versions += emulation_.router(name)->fib_version();
    return versions;
  }

  emu::Topology topology_;
  emu::Emulation emulation_;
};

// Raising the IS-IS metric on every link of one router changes route
// metrics far away without changing their next hops. The AFT must still
// carry the new metrics: forwarding-equal tables used to be kept as they
// were, so gNMI exported the old metric on 11 of the 40 routers.
TEST_F(FibRefresh, MetricOnlyChangeReachesTheAft) {
  uint64_t versions_before = fib_versions();
  reconfigure_wan5([](config::DeviceConfig& config) {
    int raised = 0;
    for (auto& [name, iface] : config.interfaces)
      if (iface.isis_enabled && !iface.isis_passive) {
        iface.isis_metric = 25;
        ++raised;
      }
    ASSERT_GT(raised, 0);
  });
  EXPECT_EQ(stale_routers(emulation_), std::vector<std::string>{});
  EXPECT_GT(fib_versions(), versions_before);
}

// Renumbering wan5's end of one link leaves every SPF cost and first-hop
// set as it was, yet the neighbor's routes through that link must move to
// the new next-hop address. IS-IS diffs first-hop bit patterns, and the
// bits name adjacencies, so a changed adjacency must make it reinstall.
TEST_F(FibRefresh, RenumberedNeighborMovesTheIsisNextHop) {
  const net::Ipv4Address renumbered = addr("100.127.0.1");
  reconfigure_wan5([&](config::DeviceConfig& config) {
    for (auto& [name, iface] : config.interfaces)
      if (iface.isis_enabled && !iface.isis_passive && iface.address) {
        iface.address = net::InterfaceAddress{renumbered, pfx("100.127.0.0/31")};
        return;
      }
    FAIL() << "wan5 has no IS-IS link";
  });
  EXPECT_EQ(stale_isis_routers(emulation_), std::vector<std::string>{});
  EXPECT_EQ(stale_routers(emulation_), std::vector<std::string>{});
  size_t via_renumbered = 0;
  for (const net::NodeName& name : emulation_.node_names())
    emulation_.router(name)->routing_table().for_each_best(
        [&](const net::Ipv4Prefix&, const std::vector<RibRoute>& best) {
          for (const RibRoute& route : best)
            if (route.protocol == Protocol::kIsis && route.next_hop == renumbered)
              ++via_renumbered;
        });
  EXPECT_GT(via_renumbered, 0u);
}

}  // namespace
}  // namespace mfv::rib
