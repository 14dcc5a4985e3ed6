// What a fork shares with its base, and that sharing changes no answer.
//
// ForkIdentity pins forked what-if states across commits. It boots three
// networks (the 30-router WAN on IS-IS and on OSPF, and a 10-router WAN
// with an iBGP mesh and two border peers), then on forks of each applies
// a fixed list of double link cuts, a config edit and, on the BGP WAN, a
// route withdrawal. Every state is folded into one FNV digest of, per
// router: the full RIB candidate dump in slot order, the LSDB (origin,
// sequence, neighbors, prefixes), SPF run counts, FIB version and
// last-change time, plus the kernel's event and message counts and the
// snapshot JSON. The expected digests are fixed constants: a storage or
// fork change that moves any of these answers fails here.
//
// ForkSharing checks the copy-on-write accounting (util::cow_clone_count)
// and that forks reconverging on several threads leave their base alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "config/dialect.hpp"
#include "emu/emulation.hpp"
#include "gnmi/gnmi.hpp"
#include "scenario/scenario.hpp"
#include "util/cow.hpp"
#include "util/hash.hpp"
#include "workload/generator.hpp"

namespace mfv {
namespace {

void append_route(std::string& out, const rib::RibRoute& route) {
  out += ' ';
  out += rib::protocol_name(route.protocol);
  out += '/' + std::to_string(route.admin_distance) + '/' + std::to_string(route.metric);
  out += route.next_hop ? " nh " + route.next_hop->to_string() : " nh -";
  out += route.interface ? " if " + *route.interface : " if -";
  out += route.drop ? " drop" : "";
  out += route.push_label ? " label " + std::to_string(*route.push_label) : "";
  out += " src " + route.source + ';';
}

void append_rib(std::string& out, const rib::Rib& rib) {
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<rib::RibRoute>&) {
    out += "\n  " + prefix.to_string();
    for (const rib::RibRoute& route : rib.candidates(prefix)) append_route(out, route);
  });
}

template <typename Lsp>
void append_lsp(std::string& out, const Lsp& lsp) {
  out += "\n  lsp " + lsp.origin.to_string() + " seq " + std::to_string(lsp.sequence);
  for (const auto& neighbor : lsp.neighbors) out += " n" + std::to_string(neighbor.metric);
  for (const auto& prefix : lsp.prefixes)
    out += ' ' + prefix.prefix.to_string() + '/' + std::to_string(prefix.metric);
}

std::string rib_dump(const vrouter::VirtualRouter& router) {
  std::string out;
  append_rib(out, router.routing_table());
  return out;
}

std::string lsdb_dump(const vrouter::VirtualRouter& router) {
  std::string out;
  if (const proto::IsisEngine* isis = router.isis()) {
    out += "\n isis spf " + std::to_string(isis->spf_runs());
    for (const proto::IsisLspPtr& lsp : isis->database()) {
      append_lsp(out, *lsp);
      for (const auto& neighbor : lsp->neighbors) out += ' ' + neighbor.id.to_string();
    }
  }
  if (const proto::OspfEngine* ospf = router.ospf()) {
    out += "\n ospf spf " + std::to_string(ospf->spf_runs());
    for (const proto::OspfLsaPtr& lsa : ospf->database()) {
      append_lsp(out, *lsa);
      for (const auto& neighbor : lsa->neighbors) out += ' ' + neighbor.id.to_string();
    }
  }
  return out;
}

std::string router_dump(const vrouter::VirtualRouter& router) {
  return "router " + router.node_name() + " fib " + std::to_string(router.fib_version()) +
         " at " + std::to_string(router.last_fib_change().count_micros()) + rib_dump(router) +
         lsdb_dump(router);
}

uint64_t state_digest(const emu::Emulation& emulation) {
  uint64_t hash = util::fnv1a(gnmi::Snapshot::capture(emulation, "identity").to_json().dump());
  hash = util::fnv1a_mix(emulation.kernel().executed(), hash);
  hash = util::fnv1a_mix(emulation.messages_delivered(), hash);
  hash = util::fnv1a_mix(emulation.messages_dropped(), hash);
  hash = util::fnv1a_mix(static_cast<uint64_t>(emulation.converged_at().count_micros()), hash);
  for (const net::NodeName& node : emulation.node_names())
    hash = util::fnv1a(router_dump(*emulation.router(node)), hash);
  return hash;
}

/// A config edit on `node`: a heavier first link and a null route.
scenario::Perturbation config_edit(const emu::Topology& topology, const std::string& node) {
  const emu::NodeSpec* spec = topology.find_node(node);
  config::ParseResult parsed = config::parse_config(spec->config_text, spec->vendor);
  for (auto& [name, interface] : parsed.config.interfaces) {
    if (interface.is_loopback() || !interface.address) continue;
    interface.isis_metric = 55;
    interface.ospf_cost = 55;
    break;
  }
  config::StaticRoute route;
  route.prefix = *net::Ipv4Prefix::parse("198.18.7.0/24");
  route.null_route = true;
  parsed.config.static_routes.push_back(route);
  return scenario::ConfigReplace{node, config::write_config(parsed.config), spec->vendor};
}

/// The base digest, then one digest per forked scenario.
std::vector<uint64_t> fork_digests(const emu::Topology& topology, bool withdraw) {
  emu::Emulation base;
  EXPECT_TRUE(base.add_topology(topology).ok());
  base.start_all();
  EXPECT_TRUE(base.run_to_convergence());

  std::vector<std::vector<scenario::Perturbation>> scenarios;
  const size_t links = topology.links.size();
  for (auto [i, j] : {std::pair<size_t, size_t>{0, 1}, {2, 17}, {5, 30}, {10, 36}}) {
    const emu::LinkSpec& a = topology.links[i % links];
    const emu::LinkSpec& b = topology.links[j % links];
    scenarios.push_back({scenario::LinkCut{a.a, a.b}, scenario::LinkCut{b.a, b.b}});
  }
  scenarios.push_back({config_edit(topology, topology.nodes[3].name)});
  if (withdraw) {
    std::vector<net::Ipv4Prefix> half;
    const emu::ExternalPeerSpec& peer = topology.external_peers[0];
    for (size_t i = 0; i < peer.routes.size(); i += 2) half.push_back(peer.routes[i].prefix);
    scenarios.push_back({scenario::RouteWithdraw{peer.name, half}});
  }

  std::vector<uint64_t> digests{state_digest(base)};
  for (const auto& perturbations : scenarios) {
    std::unique_ptr<emu::Emulation> fork = base.fork();
    EXPECT_NE(fork, nullptr);
    if (fork == nullptr) break;
    for (const scenario::Perturbation& perturbation : perturbations)
      EXPECT_TRUE(scenario::ScenarioRunner::apply(*fork, perturbation));
    EXPECT_TRUE(fork->run_to_convergence());
    digests.push_back(state_digest(*fork));
  }
  // Forking and perturbing must leave the base as it was.
  EXPECT_EQ(state_digest(base), digests.front());
  return digests;
}

std::string hex(const std::vector<uint64_t>& digests) {
  std::string out;
  for (uint64_t digest : digests) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0x%016llxull, ",
                  static_cast<unsigned long long>(digest));
    out += buffer;
  }
  return out;
}

TEST(ForkIdentity, IsisWanStatesMatchPinnedDigests) {
  workload::WanOptions options;
  options.routers = 30;
  std::vector<uint64_t> digests = fork_digests(workload::wan_topology(options), false);
  const std::vector<uint64_t> expected{
      0xd7c0d5e9da1b9317ull, 0x8b8154d3aa1b5ef3ull, 0x5f8aa1628d924013ull,
      0x37c46e7e16747221ull, 0x532ce337efb60267ull, 0x7ff62df4d78f9d58ull};
  EXPECT_EQ(digests, expected) << hex(digests);
}

TEST(ForkIdentity, OspfWanStatesMatchPinnedDigests) {
  workload::WanOptions options;
  options.routers = 30;
  options.igp = workload::WanOptions::Igp::kOspf;
  std::vector<uint64_t> digests = fork_digests(workload::wan_topology(options), false);
  const std::vector<uint64_t> expected{
      0xfbc69c82f735ebd2ull, 0x99789258bb157ac5ull, 0x74f200e9ba431129ull,
      0x5e84beddad1f7c48ull, 0xc1b515657c9b8335ull, 0xb8311dd798508e9cull};
  EXPECT_EQ(digests, expected) << hex(digests);
}

TEST(ForkIdentity, BgpWanStatesMatchPinnedDigests) {
  workload::WanOptions options;
  options.routers = 10;
  options.seed = 5;
  options.border_count = 2;
  options.routes_per_peer = 40;
  options.ibgp_mesh = true;
  std::vector<uint64_t> digests = fork_digests(workload::wan_topology(options), true);
  const std::vector<uint64_t> expected{
      0x7a7e71f639d11f1bull, 0xc6fa522297eab574ull, 0x4ef6ee1e6b2e46f1ull,
      0x153a2c5ec718f5ecull, 0xf982abe215e33418ull, 0xc0ba7e53ad672c8cull,
      0x772cf0ecc0c11968ull};
  EXPECT_EQ(digests, expected) << hex(digests);
}


namespace sharing {

std::unique_ptr<emu::Emulation> boot(const emu::Topology& topology) {
  auto emulation = std::make_unique<emu::Emulation>();
  EXPECT_TRUE(emulation->add_topology(topology).ok());
  emulation->start_all();
  EXPECT_TRUE(emulation->run_to_convergence());
  return emulation;
}

using Igp = workload::WanOptions::Igp;

emu::Topology six_routers(bool line, Igp igp = Igp::kIsis) {
  workload::WanOptions options;
  options.routers = 6;
  options.seed = 11;
  options.extra_chords = line ? 0 : 2;
  options.line = line;
  options.igp = igp;
  return workload::wan_topology(options);
}

const char* name(Igp igp) { return igp == Igp::kIsis ? "isis" : "ospf"; }

uint64_t clones() { return util::cow_clone_count().load(); }

}  // namespace sharing

TEST(ForkSharing, UnperturbedForkClonesNothing) {
  for (sharing::Igp igp : {sharing::Igp::kIsis, sharing::Igp::kOspf}) {
    std::unique_ptr<emu::Emulation> base = sharing::boot(sharing::six_routers(false, igp));
    const uint64_t before = sharing::clones();
    {
      std::unique_ptr<emu::Emulation> fork = base->fork();
      ASSERT_NE(fork, nullptr);
      ASSERT_TRUE(fork->run_to_convergence());
      EXPECT_EQ(state_digest(*fork), state_digest(*base)) << sharing::name(igp);
    }
    EXPECT_EQ(sharing::clones() - before, 0u) << sharing::name(igp);
  }
}

// Every RIB and LSDB a perturbation changes is cloned once; every other
// one stays shared with the base, on either IGP. A cut on the line
// reaches every router: they all store the cut routers' new LSPs and lose
// the link's subnet. A gRIBI route programmed on one router of the ring
// changes only that router's RIB.
TEST(ForkSharing, PerturbationClonesOnlyTheStateItChanges) {
  for (sharing::Igp igp : {sharing::Igp::kIsis, sharing::Igp::kOspf}) {
    for (bool line : {true, false}) {
      emu::Topology topology = sharing::six_routers(line, igp);
      std::unique_ptr<emu::Emulation> base = sharing::boot(topology);
      std::unique_ptr<emu::Emulation> fork = base->fork();
      const uint64_t before = sharing::clones();
      if (line) {
        const emu::LinkSpec& cut = topology.links[2];
        ASSERT_TRUE(scenario::ScenarioRunner::apply(*fork, scenario::LinkCut{cut.a, cut.b}));
      } else {
        fork->router(topology.nodes[1].name)
            ->program_route(*net::Ipv4Prefix::parse("198.51.100.0/24"),
                            {*net::Ipv4Address::parse("10.0.0.3")});
      }
      ASSERT_TRUE(fork->run_to_convergence());
      const uint64_t cloned = sharing::clones() - before;

      size_t ribs = 0;
      size_t lsdbs = 0;
      for (const net::NodeName& node : base->node_names()) {
        ribs += rib_dump(*fork->router(node)) != rib_dump(*base->router(node));
        lsdbs += lsdb_dump(*fork->router(node)) != lsdb_dump(*base->router(node));
      }
      const std::string where = std::string(sharing::name(igp)) + (line ? " line" : " ring");
      EXPECT_EQ(cloned, ribs + lsdbs) << where;
      EXPECT_EQ(ribs, line ? topology.nodes.size() : 1u) << where;
      EXPECT_EQ(lsdbs, line ? topology.nodes.size() : 0u) << where;
    }
  }
}

// A router holds its FIB by value; a fork shares the base's tables until a
// patch replaces them. A gRIBI route on one router of the ring, via
// another router's loopback, replaces only that router's tables.
TEST(ForkSharing, GribiRouteLeavesOtherFibsShared) {
  emu::Topology topology = sharing::six_routers(false);
  std::unique_ptr<emu::Emulation> base = sharing::boot(topology);
  std::unique_ptr<emu::Emulation> fork = base->fork();
  const net::NodeName& programmed = topology.nodes[1].name;
  fork->router(programmed)
      ->program_route(*net::Ipv4Prefix::parse("198.51.100.0/24"),
                      {*net::Ipv4Address::parse("10.1.0.3")});
  ASSERT_TRUE(fork->run_to_convergence());
  for (const net::NodeName& node : base->node_names())
    EXPECT_EQ(fork->router(node)->fib().shares_tables(base->router(node)->fib()),
              node != programmed)
        << node;
}

TEST(ForkSharing, ConcurrentForksLeaveTheBaseUntouched) {
  workload::WanOptions options;
  options.routers = 30;
  emu::Topology topology = workload::wan_topology(options);
  std::unique_ptr<emu::Emulation> base = sharing::boot(topology);
  std::vector<std::string> before;
  for (const net::NodeName& node : base->node_names())
    before.push_back(router_dump(*base->router(node)));

  // Four different double cuts reconverge at once on forks of one base.
  auto cuts = [&](size_t t) {
    const emu::LinkSpec& a = topology.links[t];
    const emu::LinkSpec& b = topology.links[t + 9];
    return std::vector<scenario::Perturbation>{scenario::LinkCut{a.a, a.b},
                                               scenario::LinkCut{b.a, b.b}};
  };
  auto run = [&](size_t t) -> uint64_t {
    std::unique_ptr<emu::Emulation> fork = base->fork();
    if (fork == nullptr) return 0;
    for (const scenario::Perturbation& perturbation : cuts(t))
      if (!scenario::ScenarioRunner::apply(*fork, perturbation)) return 0;
    if (!fork->run_to_convergence()) return 0;
    return state_digest(*fork);
  };
  std::vector<uint64_t> threaded(4, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threaded.size(); ++t)
    workers.emplace_back([&, t] { threaded[t] = run(t); });
  for (std::thread& worker : workers) worker.join();

  std::vector<std::string> after;
  for (const net::NodeName& node : base->node_names())
    after.push_back(router_dump(*base->router(node)));
  EXPECT_EQ(after, before) << "a fork's reconvergence wrote through to its base";
  for (size_t t = 0; t < threaded.size(); ++t) {
    EXPECT_NE(threaded[t], 0u) << "cut " << t;
    EXPECT_EQ(threaded[t], run(t)) << "cut " << t << " differs from a serial rerun";
  }
}

}  // namespace
}  // namespace mfv
