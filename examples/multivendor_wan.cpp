// Multi-vendor WAN with injected routes — the deployment shape the paper
// argues only emulation can verify (93% of surveyed operators run
// multi-vendor networks; a single reference model cannot capture
// vendor-specific behaviour or cross-vendor interplay).
//
// Generates a 20-router WAN mixing both vendor dialects, attaches two
// external BGP peers injecting synthetic advertisement feeds, converges,
// verifies, and contrasts with the model-based backend (which cannot parse
// the vjun devices at all).
#include <cstdio>

#include "api/session.hpp"
#include "cli/show.hpp"
#include "orch/cluster.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace mfv;

  workload::WanOptions options;
  options.routers = 20;
  options.seed = 42;
  options.vjun_fraction = 0.35;
  options.border_count = 2;
  options.routes_per_peer = 500;
  options.ibgp_mesh = true;
  options.mpls = true;
  emu::Topology topology = workload::wan_topology(options);

  int vjun = 0;
  for (const auto& node : topology.nodes)
    if (node.vendor == config::Vendor::kVjun) ++vjun;
  std::printf("Generated WAN: %zu routers (%d ceos, %d vjun), %zu links, %zu peers\n",
              topology.nodes.size(), static_cast<int>(topology.nodes.size()) - vjun, vjun,
              topology.links.size(), topology.external_peers.size());

  // Where would this deploy? Ask the orchestrator.
  auto plan = orch::plan_deployment(orch::ClusterSpec::standard(1), topology);
  if (plan.ok())
    std::printf("Deployment plan: 1 machine, startup %s\n",
                plan->boot.total_startup.to_string().c_str());

  api::Session session;
  if (!session.init_snapshot(topology, "wan", api::Backend::kModelFree).ok()) {
    std::printf("emulation failed\n");
    return 1;
  }
  const api::SnapshotInfo* info = session.info("wan");
  std::printf("Converged in %s (%llu messages)\n",
              info->convergence_time.to_string().c_str(),
              static_cast<unsigned long long>(info->messages));

  auto pairwise = session.pairwise_reachability("wan");
  std::printf("Pairwise reachability: %zu/%zu%s\n", pairwise->reachable_pairs,
              pairwise->total_pairs, pairwise->full_mesh() ? " (full mesh)" : "");

  size_t entries = session.snapshot("wan")->total_entries();
  std::printf("Snapshot: %zu FIB entries across the WAN\n", entries);

  // Operator tooling works the same regardless of vendor:
  const emu::Emulation* live = session.emulation("wan");
  for (const auto& name : {"wan0", "wan1"}) {
    auto* router = live->router(name);
    if (router == nullptr) continue;
    std::printf("\n--- %s (%s): show isis neighbors ---\n", name,
                config::vendor_name(router->configuration().vendor).c_str());
    std::printf("%s", cli::show_isis_neighbors(*router).c_str());
  }

  // The model-based backend on the same inputs: vjun devices are opaque.
  if (!session.init_snapshot(topology, "model", api::Backend::kModelBased).ok()) return 1;
  std::printf("\nModel-based backend on the same topology:\n");
  std::printf("  unrecognized config lines: %zu\n",
              session.info("model")->unrecognized_lines);
  auto model_pairwise = session.pairwise_reachability("model");
  std::printf("  pairwise reachability: %zu/%zu (vendor coverage gap)\n",
              model_pairwise->reachable_pairs, model_pairwise->total_pairs);
  return pairwise->full_mesh() ? 0 : 1;
}
