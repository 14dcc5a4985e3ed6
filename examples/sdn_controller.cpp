// SDN network verified model-free — §3's claim made concrete: "emulated
// environments also support applying verification to SDN-based networks,
// as they support running an SDN controller and any control-plane
// instrumentation directly".
//
// The fabric runs NO routing protocols. A centralized controller computes
// shortest paths over the topology it knows and programs hop-by-hop routes
// for every loopback through the gRIBI-style API. The dataplane is then
// extracted and verified exactly like a protocol-driven network — and when
// the controller has a bug (it forgets one device), differential
// reachability pinpoints the blast radius.
#include <cstdio>
#include <map>
#include <queue>

#include "api/session.hpp"
#include "config/dialect.hpp"
#include "gribi/gribi.hpp"
#include "verify/queries.hpp"
#include "workload/generator.hpp"

namespace {

using namespace mfv;

/// The controller's view: node adjacency derived from the topology spec.
struct ControllerView {
  std::map<net::NodeName, std::map<net::NodeName, net::Ipv4Address>> next_hop_address;
  std::map<net::NodeName, net::Ipv4Address> loopbacks;
};

ControllerView learn_topology(const emu::Topology& topology, emu::Emulation& emulation) {
  ControllerView view;
  for (const emu::NodeSpec& node : topology.nodes) {
    auto* router = emulation.router(node.name);
    for (const auto& [name, iface] : router->configuration().interfaces)
      if (iface.is_loopback() && iface.address)
        view.loopbacks[node.name] = iface.address->address;
  }
  for (const emu::LinkSpec& link : topology.links) {
    auto address_of = [&](const net::PortRef& port) {
      const auto* iface =
          emulation.router(port.node)->configuration().find_interface(port.interface);
      return iface->address->address;
    };
    view.next_hop_address[link.a.node][link.b.node] = address_of(link.b);
    view.next_hop_address[link.b.node][link.a.node] = address_of(link.a);
  }
  return view;
}

/// BFS shortest paths from every node; programs each hop via gRIBI.
size_t program_fabric(const ControllerView& view, gribi::GribiClient& client,
                      const net::NodeName& skip = "") {
  size_t programmed = 0;
  for (const auto& [source, unused] : view.loopbacks) {
    if (source == skip) continue;
    // BFS tree rooted at `source`.
    std::map<net::NodeName, net::NodeName> parent;
    std::queue<net::NodeName> frontier;
    frontier.push(source);
    parent[source] = source;
    while (!frontier.empty()) {
      net::NodeName at = frontier.front();
      frontier.pop();
      auto it = view.next_hop_address.find(at);
      if (it == view.next_hop_address.end()) continue;
      for (const auto& [neighbor, address] : it->second) {
        if (parent.count(neighbor)) continue;
        parent[neighbor] = at;
        frontier.push(neighbor);
      }
    }
    // For every destination loopback, the first hop from `source`.
    for (const auto& [target, loopback] : view.loopbacks) {
      if (target == source || !parent.count(target)) continue;
      net::NodeName hop = target;
      while (parent.at(hop) != source) hop = parent.at(hop);
      gribi::RouteEntry entry;
      entry.prefix = net::Ipv4Prefix::host(loopback);
      entry.next_hops = {view.next_hop_address.at(source).at(hop)};
      if (client.add(source, entry).ok()) ++programmed;
    }
  }
  return programmed;
}

}  // namespace

int main() {
  // A protocol-free fabric: generate a WAN and strip the IGP from every
  // config (keep interfaces/addresses only).
  workload::WanOptions options;
  options.routers = 8;
  options.seed = 21;
  emu::Topology topology = workload::wan_topology(options);
  for (emu::NodeSpec& node : topology.nodes) {
    config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
    parsed.config.isis = config::IsisConfig{};
    for (auto& [name, iface] : parsed.config.interfaces) {
      iface.isis_enabled = false;
      iface.isis_passive = false;
    }
    node.config_text = config::write_config(parsed.config);
  }

  api::Session session;
  if (!session.init_snapshot(topology, "unprogrammed").ok()) return 1;
  auto before = session.pairwise_reachability("unprogrammed");
  std::printf("Protocol-free fabric before programming: %zu/%zu pairs reachable\n",
              before->reachable_pairs, before->total_pairs);

  // The controller programs its own boot of the same fabric through gRIBI
  // (a session's snapshots are read-only).
  emu::Emulation live;
  if (!live.add_topology(topology).ok()) return 1;
  live.start_all();
  live.run_to_convergence();
  ControllerView view = learn_topology(topology, live);
  gribi::GribiClient client(live);
  size_t programmed = program_fabric(view, client);
  live.run_to_convergence();
  std::printf("Controller programmed %zu routes across %zu devices\n", programmed,
              view.loopbacks.size());

  // Re-extract and verify: same pipeline, no protocols involved.
  gnmi::Snapshot snapshot = gnmi::Snapshot::capture(live, "programmed");
  session.add_snapshot(snapshot, "programmed");
  auto after = session.pairwise_reachability("programmed");
  std::printf("After programming: %zu/%zu pairs reachable%s\n", after->reachable_pairs,
              after->total_pairs, after->full_mesh() ? " (full mesh)" : "");

  // Buggy controller rollout: wan3 is skipped. Differential reachability
  // catches it before deployment.
  live.router("wan3")->unprogram_all();
  // Re-program everything except wan3 (simulating the partial rollout).
  program_fabric(view, client, /*skip=*/"wan3");
  live.run_to_convergence();
  session.add_snapshot(gnmi::Snapshot::capture(live, "buggy"), "buggy");
  auto diff = session.differential_reachability("programmed", "buggy");
  auto regressions = diff->regressions();
  std::printf("\nBuggy rollout (wan3 skipped): %zu regressions, e.g.\n",
              regressions.size());
  for (size_t i = 0; i < regressions.size() && i < 4; ++i)
    std::printf("  %s\n", regressions[i].to_string().c_str());

  return after->full_mesh() && !regressions.empty() ? 0 : 1;
}
