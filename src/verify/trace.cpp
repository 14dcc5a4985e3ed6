#include "verify/trace.hpp"

namespace mfv::verify {

std::string TracePath::to_string() const {
  std::string out;
  for (size_t i = 0; i < hops.size(); ++i) {
    if (i != 0) {
      // Mark label-switched segments: R1 =(100001)=> R2.
      const auto& previous = hops[i - 1];
      out += previous.out_label
                 ? " =(" + std::to_string(*previous.out_label) + ")=> "
                 : " -> ";
    }
    out += hops[i].node;
  }
  out += " [" + disposition_name(disposition) + "]";
  return out;
}

namespace {

class Tracer {
 public:
  using NodeId = ForwardingGraph::NodeId;
  using Visited = std::vector<uint8_t>;  // per node id

  Tracer(const ForwardingGraph& graph, net::Ipv4Address destination,
         const TraceOptions& options)
      : graph_(graph),
        destination_(destination),
        destination_owner_(graph.owner(destination)),
        options_(options) {}

  TraceResult run(NodeId source) {
    walk(source, std::nullopt, {}, Visited(graph_.node_count(), 0));
    return std::move(result_);
  }

 private:
  void finish(std::vector<TraceHopDetail> path, Disposition disposition) {
    result_.dispositions.add(disposition);
    if (result_.paths.size() >= options_.max_paths) {
      result_.truncated = true;
      return;
    }
    TracePath trace_path;
    trace_path.hops = std::move(path);
    trace_path.disposition = disposition;
    result_.paths.push_back(std::move(trace_path));
  }

  /// Ingress verdict of `owner` receiving the packet on its interface
  /// holding `via`.
  bool ingress_permits(NodeId owner, net::Ipv4Address via) const {
    return ForwardingGraph::permits(graph_.ingress_acl(owner, via), destination_);
  }

  void walk(NodeId node, std::optional<uint32_t> carried_label,
            std::vector<TraceHopDetail> path, Visited visited) {
    if (result_.paths.size() >= options_.max_paths) {
      result_.truncated = true;
      return;
    }
    TraceHopDetail hop;
    hop.node = graph_.name(node);

    if (visited[node] || static_cast<int>(path.size()) >= options_.max_hops) {
      path.push_back(hop);
      finish(std::move(path), Disposition::kLoop);
      return;
    }
    visited[node] = 1;

    // Labeled packet: forward by the MPLS table until a pop returns it to
    // IP forwarding.
    while (carried_label) {
      std::span<const ForwardingGraph::Hop> label_hops =
          graph_.label_hops(node, *carried_label);
      if (label_hops.empty()) {
        // Broken LSP: the device has no (resolvable) binding for the
        // incoming label.
        path.push_back(hop);
        finish(std::move(path), Disposition::kNoRoute);
        return;
      }
      const ForwardingGraph::Hop& action = label_hops.front();  // LSPs do not ECMP here
      if (action.label_op == aft::LabelOp::kPop) {
        carried_label.reset();  // tail: resume IP forwarding on this node
        break;
      }
      // Swap and move downstream.
      hop.out_label = action.label;
      hop.next_hop = action.source->ip_address;
      hop.out_interface = action.source->interface;
      hop.origin_protocol = "MPLS";
      if (action.next == ForwardingGraph::kNoNode) {
        path.push_back(hop);
        finish(std::move(path), Disposition::kNeighborUnreachable);
        return;
      }
      path.push_back(hop);
      walk(action.next, action.label, std::move(path), std::move(visited));
      return;
    }

    // Delivered: this device owns the destination address.
    if (node == destination_owner_) {
      path.push_back(hop);
      finish(std::move(path), Disposition::kAccepted);
      return;
    }

    const ForwardingGraph::Route* route = graph_.route(node, destination_);
    if (route == nullptr) {
      path.push_back(hop);
      finish(std::move(path), Disposition::kNoRoute);
      return;
    }
    hop.matched_prefix = route->entry->prefix;
    hop.origin_protocol = route->entry->origin_protocol;

    if (route->hops.empty()) {
      path.push_back(hop);
      finish(std::move(path), Disposition::kNoRoute);
      return;
    }

    for (const ForwardingGraph::Hop& next_hop : route->hops) {
      TraceHopDetail branch_hop = hop;
      branch_hop.next_hop = next_hop.source->ip_address;
      branch_hop.out_interface = next_hop.source->interface;
      if (next_hop.label_op == aft::LabelOp::kPush) branch_hop.out_label = next_hop.label;
      std::vector<TraceHopDetail> branch_path = path;
      branch_path.push_back(branch_hop);

      if (next_hop.drop) {
        finish(std::move(branch_path), Disposition::kNullRouted);
        continue;
      }
      // Egress packet filter on the outgoing interface.
      if (!ForwardingGraph::permits(next_hop.egress_acl, destination_)) {
        finish(std::move(branch_path), Disposition::kDeniedOut);
        continue;
      }
      if (next_hop.addressed) {
        if (next_hop.next == ForwardingGraph::kNoNode) {
          finish(std::move(branch_path), Disposition::kNeighborUnreachable);
          continue;
        }
        // Ingress filter on the receiving interface.
        if (!ingress_permits(next_hop.next, *next_hop.source->ip_address)) {
          TraceHopDetail denied;
          denied.node = graph_.name(next_hop.next);
          branch_path.push_back(denied);
          finish(std::move(branch_path), Disposition::kDeniedIn);
          continue;
        }
        std::optional<uint32_t> pushed;
        if (next_hop.label_op == aft::LabelOp::kPush) pushed = next_hop.label;
        walk(next_hop.next, pushed, std::move(branch_path), visited);
        continue;
      }
      // Attached: forwarding onto a connected subnet.
      if (destination_owner_ != ForwardingGraph::kNoNode) {
        if (!ingress_permits(destination_owner_, destination_)) {
          TraceHopDetail denied;
          denied.node = graph_.name(destination_owner_);
          branch_path.push_back(denied);
          finish(std::move(branch_path), Disposition::kDeniedIn);
          continue;
        }
        walk(destination_owner_, std::nullopt, std::move(branch_path), visited);
      } else if (graph_.on_connected_subnet(node, destination_)) {
        finish(std::move(branch_path), Disposition::kDeliveredToSubnet);
      } else {
        finish(std::move(branch_path), Disposition::kExitsNetwork);
      }
    }
  }

  const ForwardingGraph& graph_;
  net::Ipv4Address destination_;
  NodeId destination_owner_;
  TraceOptions options_;
  TraceResult result_;
};

}  // namespace

TraceResult trace_flow(const ForwardingGraph& graph, const net::NodeName& source,
                       net::Ipv4Address destination, const TraceOptions& options) {
  std::optional<ForwardingGraph::NodeId> id = graph.id_of(source);
  if (!id) {
    TraceResult result;
    result.dispositions.add(Disposition::kNoRoute);
    return result;
  }
  return Tracer(graph, destination, options).run(*id);
}

}  // namespace mfv::verify
