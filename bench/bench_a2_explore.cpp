// Ablation A2b (§6 "Non-deterministic behavior", exhaustive follow-up):
// bench_a2_nondeterminism samples the arrival-order outcome space with
// jittered seeds; this bench enumerates it with the exploration engine
// (src/explore) and measures what the machinery buys — how many schedules
// actually ran vs the naive interleaving bound (partial-order reduction),
// and how many converged states survived dedup vs schedules executed
// (canonicalization). Writes BENCH_explore.json by contract.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_json.hpp"
#include "emu/emulation.hpp"
#include "explore/explore.hpp"
#include "workload/generator.hpp"

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

/// The A2 race with `advertisers` competing peers (un-started; the
/// explorer boots every branch).
std::unique_ptr<emu::Emulation> race_base(int advertisers) {
  emu::EmulationOptions options;
  options.seed = 1;
  options.bgp_prefer_oldest = true;
  auto emulation = std::make_unique<emu::Emulation>(options);

  config::DeviceConfig listener;
  listener.hostname = "L";
  auto& loopback = listener.interface("Loopback0");
  loopback.switchport = false;
  loopback.address = net::InterfaceAddress::parse("10.0.0.99/32");
  listener.bgp.enabled = true;
  listener.bgp.local_as = 65000;
  listener.bgp.router_id = loopback.address->address;

  for (int i = 1; i <= advertisers; ++i) {
    std::string subnet = std::to_string(2 * (i - 1));
    std::string peer_side = std::to_string(2 * (i - 1) + 1);
    emulation->add_router(advertiser("A" + std::to_string(i), i,
                                     static_cast<net::AsNumber>(65000 + i),
                                     "100.64.0." + subnet + "/31",
                                     "100.64.0." + peer_side));
    auto& eth = listener.interface("Ethernet" + std::to_string(i));
    eth.switchport = false;
    eth.address = net::InterfaceAddress::parse("100.64.0." + peer_side + "/31");
    config::BgpNeighborConfig neighbor;
    neighbor.peer = *net::Ipv4Address::parse("100.64.0." + subnet);
    neighbor.remote_as = static_cast<net::AsNumber>(65000 + i);
    listener.bgp.neighbors.push_back(neighbor);
  }
  emulation->add_router(std::move(listener));
  for (int i = 1; i <= advertisers; ++i)
    emulation->add_link({"A" + std::to_string(i), "Ethernet1"},
                        {"L", "Ethernet" + std::to_string(i)});
  return emulation;
}

void report_case(const std::string& label, const emu::Emulation& base,
                 explore::ExploreOptions options) {
  explore::ExploreInput input;
  input.base = &base;
  input.start = true;

  auto start = std::chrono::steady_clock::now();
  util::Result<explore::ExploreResult> result = explore::explore(input, options);
  auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  if (!result.ok()) {
    std::fprintf(stderr, "explore(%s) failed: %s\n", label.c_str(),
                 result.status().to_string().c_str());
    return;
  }

  util::Json fields = util::Json::object();
  fields["case"] = label;
  fields["runs"] = static_cast<int64_t>(result->runs);
  fields["unique_states"] = static_cast<int64_t>(result->unique_states);
  fields["dedup_hits"] = static_cast<int64_t>(result->dedup_hits);
  fields["por_skipped_branches"] = static_cast<int64_t>(result->por_skipped_branches);
  fields["naive_interleavings"] = static_cast<int64_t>(result->naive_interleavings);
  fields["choice_points"] = static_cast<int64_t>(result->choice_points);
  fields["complete"] = result->complete;
  fields["events_total"] = static_cast<int64_t>(result->events_total);
  fields["wall_ms"] = static_cast<int64_t>(wall_ms);
  mfvbench::timing("A2B_EXPLORE", fields);
}

void report() {
  std::printf("=== A2b: Exhaustive exploration vs naive interleaving ===\n");

  explore::ExploreOptions fig2;
  fig2.verify_properties = false;
  fig2.threads = 4;
  report_case("fig2_2adv", *race_base(2), fig2);
  report_case("fig2_3adv", *race_base(3), fig2);

  // Seeded WAN: border routers take external route feeds and the iBGP
  // mesh spreads them, so interior routers see co-pending updates from
  // multiple sessions during boot — organic races, not a crafted tie.
  workload::WanOptions wan;
  wan.routers = 4;
  wan.seed = 7;
  wan.border_count = 2;
  wan.routes_per_peer = 4;
  wan.ibgp_mesh = true;
  emu::EmulationOptions emu_options;
  emu_options.seed = 1;
  emu::Emulation base(emu_options);
  util::Status added = base.add_topology(workload::wan_topology(wan));
  if (added.ok()) {
    explore::ExploreOptions bounded = fig2;
    bounded.max_runs = 256;
    bounded.max_choice_points = 16;
    report_case("wan_4r_seed7", base, bounded);
  } else {
    std::fprintf(stderr, "wan topology rejected: %s\n", added.to_string().c_str());
  }

  std::printf("\nnaive_interleavings counts every schedule a reduction-free\n"
              "enumerator would execute (runs + POR-pruned branches); dedup_hits\n"
              "are executed schedules that converged to an already-seen state.\n"
              "The gap between the two columns and unique_states is the paper's\n"
              "\"run multiple times\" sampling advice, made exhaustive.\n\n");
}

void BM_ExploreTwoAdvertisers(benchmark::State& state) {
  explore::ExploreOptions options;
  options.verify_properties = false;
  for (auto _ : state) {
    std::unique_ptr<emu::Emulation> base = race_base(2);
    explore::ExploreInput input;
    input.base = base.get();
    input.start = true;
    util::Result<explore::ExploreResult> result = explore::explore(input, options);
    benchmark::DoNotOptimize(result.ok() ? result->unique_states : 0u);
  }
}
BENCHMARK(BM_ExploreTwoAdvertisers)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mfvbench::JsonReport::instance().init(&argc, argv, "bench_a2_explore",
                                        "BENCH_explore.json");
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mfvbench::JsonReport::instance().flush();
  return 0;
}
