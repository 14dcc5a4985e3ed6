#include "verify/utilization.hpp"

#include "verify/queries.hpp"

namespace mfv::verify {

namespace {

class FlowRouter {
 public:
  using NodeId = ForwardingGraph::NodeId;
  using Visited = std::vector<uint8_t>;  // per node id

  FlowRouter(const ForwardingGraph& graph, UtilizationResult& result)
      : graph_(graph), result_(result) {}

  void route(const Demand& demand) {
    if (demand.bps <= 0) return;
    std::optional<NodeId> source = graph_.id_of(demand.source);
    if (!source) {
      result_.unrouted_bps += demand.bps;  // no such device: no route
      return;
    }
    route(*source, demand.destination, graph_.owner(demand.destination), demand.bps,
          Visited(graph_.node_count(), 0));
  }

 private:
  void route(NodeId node, net::Ipv4Address destination, NodeId destination_owner,
             double bps, Visited visited) {
    if (bps <= 0) return;
    if (visited[node]) {
      result_.unrouted_bps += bps;  // loop: traffic circulates, count as lost
      return;
    }
    visited[node] = 1;

    if (node == destination_owner) {
      result_.delivered_bps += bps;
      return;
    }
    const ForwardingGraph::Route* match = graph_.route(node, destination);
    if (match == nullptr || match->hops.empty()) {
      result_.unrouted_bps += bps;
      return;
    }
    double share = bps / static_cast<double>(match->hops.size());  // equal ECMP split
    for (const ForwardingGraph::Hop& hop : match->hops) {
      if (hop.drop) {
        result_.unrouted_bps += share;
        continue;
      }
      if (hop.source->interface) {
        if (!ForwardingGraph::permits(hop.egress_acl, destination)) {
          result_.unrouted_bps += share;
          continue;
        }
        result_.load_bps[{graph_.name(node), *hop.source->interface}] += share;
      }
      if (hop.addressed) {
        if (hop.next == ForwardingGraph::kNoNode ||
            !ForwardingGraph::permits(hop.ingress_acl, destination)) {
          result_.unrouted_bps += share;
          continue;
        }
        route(hop.next, destination, destination_owner, share, visited);
      } else if (destination_owner != ForwardingGraph::kNoNode) {
        // Attached delivery.
        route(destination_owner, destination, destination_owner, share, visited);
      } else {
        result_.delivered_bps += share;  // leaves the modeled network
      }
    }
  }

  const ForwardingGraph& graph_;
  UtilizationResult& result_;
};

}  // namespace

UtilizationResult link_utilization(const ForwardingGraph& graph,
                                   const std::vector<Demand>& demands) {
  UtilizationResult result;
  FlowRouter router(graph, result);
  for (const Demand& demand : demands) router.route(demand);
  return result;
}

std::vector<Demand> uniform_mesh_demand(const gnmi::Snapshot& snapshot,
                                        double bps_per_pair) {
  std::vector<Demand> demands;
  for (const auto& [source, source_device] : snapshot.devices) {
    for (const auto& [target, target_device] : snapshot.devices) {
      if (source == target) continue;
      auto loopback = device_loopback(snapshot, target);
      if (!loopback) continue;
      demands.push_back({source, *loopback, bps_per_pair});
    }
  }
  return demands;
}

}  // namespace mfv::verify
