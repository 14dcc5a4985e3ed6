// Ablation A2 (§6 "Non-deterministic behavior"): some convergence outcomes
// depend on message timing — e.g. the BGP arrival-order tiebreak. One
// emulation run yields one converged state; running multiple seeds with
// timing jitter explores the outcome space, which is the paper's proposed
// mitigation ("run multiple times in parallel to produce multiple
// resulting dataplanes").
//
// Setup: a listener with two eBGP sessions toward different ASes, both
// advertising the same prefix with identical attributes. The decision
// process reaches the prefer-oldest tiebreak, so the winner depends on
// which update arrived first.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <set>

#include "bench_json.hpp"
#include "emu/emulation.hpp"
#include "gnmi/gnmi.hpp"

namespace {

using namespace mfv;

config::DeviceConfig advertiser(const std::string& name, int index, net::AsNumber as,
                                const std::string& link_cidr,
                                const std::string& peer_address) {
  config::DeviceConfig config;
  config.hostname = name;
  auto& loopback = config.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0." + std::to_string(index) + "/32");
  auto& eth = config.interface("Ethernet1");
  eth.switchport = false;
  eth.address = net::InterfaceAddress::parse(link_cidr);
  config.bgp.enabled = true;
  config.bgp.local_as = as;
  config.bgp.router_id = loopback.address->address;
  config::BgpNeighborConfig neighbor;
  neighbor.peer = *net::Ipv4Address::parse(peer_address);
  neighbor.remote_as = 65000;
  config.bgp.neighbors.push_back(neighbor);
  config::StaticRoute discard;
  discard.prefix = *net::Ipv4Prefix::parse("203.0.113.0/24");
  discard.null_route = true;
  config.static_routes.push_back(discard);
  config.bgp.networks.push_back({*net::Ipv4Prefix::parse("203.0.113.0/24"), std::nullopt});
  return config;
}

/// Runs one emulation with the given options; returns the winning next hop
/// the listener installs for the contested prefix.
std::string run_once(uint64_t seed, int64_t jitter, bool prefer_oldest) {
  emu::EmulationOptions options;
  options.seed = seed;
  options.message_jitter_micros = jitter;
  options.bgp_prefer_oldest = prefer_oldest;
  emu::Emulation emulation(options);

  emulation.add_router(advertiser("A1", 1, 65001, "100.64.0.0/31", "100.64.0.1"));
  emulation.add_router(advertiser("A2", 2, 65002, "100.64.0.2/31", "100.64.0.3"));

  config::DeviceConfig listener;
  listener.hostname = "L";
  auto& loopback = listener.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0.9/32");
  for (int i = 1; i <= 2; ++i) {
    auto& eth = listener.interface("Ethernet" + std::to_string(i));
    eth.switchport = false;
    eth.address = net::InterfaceAddress::parse(
        "100.64.0." + std::to_string(i == 1 ? 1 : 3) + "/31");
    config::BgpNeighborConfig neighbor;
    neighbor.peer = *net::Ipv4Address::parse("100.64.0." + std::to_string(i == 1 ? 0 : 2));
    neighbor.remote_as = i == 1 ? 65001 : 65002;
    listener.bgp.neighbors.push_back(neighbor);
  }
  listener.bgp.enabled = true;
  listener.bgp.local_as = 65000;
  listener.bgp.router_id = loopback.address->address;
  emulation.add_router(std::move(listener));

  emulation.add_link({"A1", "Ethernet1"}, {"L", "Ethernet1"});
  emulation.add_link({"A2", "Ethernet1"}, {"L", "Ethernet2"});
  emulation.start_all();
  emulation.run_to_convergence();

  auto hops = emulation.router("L")->fib().forward(*net::Ipv4Address::parse("203.0.113.1"));
  if (hops.empty() || !hops[0].ip_address) return "none";
  return hops[0].ip_address->to_string();
}

void report() {
  constexpr int kRuns = 20;
  std::map<std::string, int> jittered;
  std::map<std::string, int> deterministic;
  std::map<std::string, int> no_jitter;
  for (int seed = 1; seed <= kRuns; ++seed) {
    ++jittered[run_once(static_cast<uint64_t>(seed), 2000, /*prefer_oldest=*/true)];
    ++deterministic[run_once(static_cast<uint64_t>(seed), 2000, /*prefer_oldest=*/false)];
    ++no_jitter[run_once(static_cast<uint64_t>(seed), 0, /*prefer_oldest=*/true)];
  }

  auto print = [](const char* label, const std::map<std::string, int>& outcomes) {
    std::printf("%-44s %zu distinct outcome(s):", label, outcomes.size());
    for (const auto& [winner, count] : outcomes)
      std::printf("  %s x%d", winner.c_str(), count);
    std::printf("\n");
  };
  std::printf("=== A2: Non-determinism from message timing (%d seeded runs) ===\n", kRuns);
  print("arrival-order tiebreak + timing jitter", jittered);
  print("arrival-order tiebreak, no jitter", no_jitter);
  print("deterministic (router-id) tiebreak + jitter", deterministic);

  mfv::util::Json fields = mfv::util::Json::object();
  fields["runs"] = kRuns;
  fields["jittered_outcomes"] = static_cast<uint64_t>(jittered.size());
  fields["no_jitter_outcomes"] = static_cast<uint64_t>(no_jitter.size());
  fields["deterministic_outcomes"] = static_cast<uint64_t>(deterministic.size());
  mfvbench::timing("A2_RESULT", fields);
  std::printf("\npaper: 'one run of emulation will produce a single converged state';\n"
              "running multiple times explores the ordering space. Model-based tools\n"
              "'avoid supporting features requiring non-determinism' — the\n"
              "deterministic-tiebreak row is that simplification, reproduced.\n\n");
}

void BM_SeededRun(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    std::string winner = run_once(seed++, 2000, true);
    benchmark::DoNotOptimize(winner.size());
  }
}
BENCHMARK(BM_SeededRun)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_a2_nondeterminism");
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
