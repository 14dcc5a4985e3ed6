#include "proto/ospf.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/logging.hpp"

namespace mfv::proto {

namespace {
constexpr util::Duration kSpfDelay = util::Duration::millis(50);
}

OspfEngine::OspfEngine(RouterEnv& env, const config::DeviceConfig& device) : env_(env) {
  if (!device.ospf.enabled) return;
  std::optional<net::RouterId> router_id = device.ospf.router_id;
  if (!router_id) router_id = device.effective_router_id();
  if (!router_id) {
    MFV_LOG(kWarn, "ospf") << env_.node_name() << ": no usable router-id, OSPF disabled";
    return;
  }
  active_ = true;
  router_id_ = *router_id;
  ospf_ = device.ospf;
  for (const auto& [name, iface] : device.interfaces) costs_[name] = iface.ospf_cost;
}

OspfEngine::OspfEngine(RouterEnv& env, const OspfEngine& other)
    : env_(env),
      active_(other.active_),
      router_id_(other.router_id_),
      ospf_(other.ospf_),
      costs_(other.costs_),
      adjacencies_(other.adjacencies_),
      lsdb_(other.lsdb_),
      own_sequence_(other.own_sequence_),
      spf_pending_(other.spf_pending_),
      spf_runs_(other.spf_runs_) {}

std::unique_ptr<OspfEngine> OspfEngine::fork(RouterEnv& env) const {
  return std::unique_ptr<OspfEngine>(new OspfEngine(env, *this));
}

bool OspfEngine::participates(const InterfaceView& interface) const {
  return interface.vrf.empty() && interface.address &&
         ospf_.covers(interface.address->address);
}

bool OspfEngine::passive(const InterfaceView& interface) const {
  // Loopbacks never form adjacencies.
  if (interface.name.rfind("Loopback", 0) == 0 || interface.name.rfind("lo", 0) == 0)
    return true;
  return ospf_.is_passive(interface.name);
}

uint32_t OspfEngine::cost_of(const net::InterfaceName& name) const {
  auto it = costs_.find(name);
  return it == costs_.end() ? 10 : it->second;
}

void OspfEngine::start() {
  if (!active_) return;
  for (const InterfaceView& interface : env_.interfaces())
    if (participates(interface) && !passive(interface) && interface.up)
      send_hello(interface);
  regenerate_lsa();
}

void OspfEngine::shutdown() {
  if (!active_) return;
  OspfLsa purge;
  purge.origin = router_id_;
  originate(std::move(purge));
  active_ = false;
}

std::vector<net::RouterId> OspfEngine::seen_on(const net::InterfaceName& interface) const {
  std::vector<net::RouterId> seen;
  auto it = adjacencies_.find(interface);
  if (it != adjacencies_.end()) seen.push_back(it->second.neighbor);
  return seen;
}

void OspfEngine::send_hello(const InterfaceView& interface) {
  if (!interface.address) return;
  OspfHello hello;
  hello.router_id = router_id_;
  hello.interface_address = interface.address->address;
  hello.seen_neighbors = seen_on(interface.name);
  env_.send_on_interface(interface.name, Message(hello));
}

void OspfEngine::handle(const net::InterfaceName& in_interface, const Message& message) {
  if (!active_) return;
  if (const auto* hello = std::get_if<OspfHello>(&message))
    handle_hello(in_interface, *hello);
  else if (const auto* lsa = std::get_if<OspfLsaPtr>(&message))
    handle_lsa(in_interface, *lsa);
}

void OspfEngine::handle_hello(const net::InterfaceName& in_interface,
                              const OspfHello& hello) {
  auto interface = env_.interface(in_interface);
  if (!interface || !participates(*interface) || passive(*interface) || !interface->up)
    return;
  if (hello.router_id == router_id_) return;
  // OSPF (unlike IS-IS) requires hello source and receiving interface to
  // share a subnet; mismatched link addressing keeps the adjacency down.
  if (interface->address &&
      !interface->address->subnet.contains(hello.interface_address))
    return;

  auto [it, inserted] = adjacencies_.try_emplace(in_interface);
  OspfAdjacency& adjacency = it->second;
  bool was_full = !inserted && adjacency.state == OspfAdjacency::State::kFull;
  bool neighbor_changed = inserted || adjacency.neighbor != hello.router_id;

  adjacency.neighbor = hello.router_id;
  adjacency.neighbor_address = hello.interface_address;
  adjacency.interface = in_interface;
  adjacency.cost = cost_of(in_interface);

  bool sees_us = std::find(hello.seen_neighbors.begin(), hello.seen_neighbors.end(),
                           router_id_) != hello.seen_neighbors.end();
  adjacency.state = sees_us ? OspfAdjacency::State::kFull : OspfAdjacency::State::kInit;

  bool now_full = adjacency.state == OspfAdjacency::State::kFull;
  if (neighbor_changed || now_full != was_full) send_hello(*interface);
  if (now_full != was_full) {
    regenerate_lsa();
    if (now_full) {
      // Database exchange on adjacency-full (DD/LSR/LSU collapsed).
      for (const OspfLsaPtr& lsa : lsdb_) env_.send_on_interface(in_interface, Message(lsa));
    }
  }
}

void OspfEngine::handle_lsa(const net::InterfaceName& in_interface, const OspfLsaPtr& lsa) {
  auto interface = env_.interface(in_interface);
  if (!interface || !participates(*interface) || passive(*interface)) return;

  if (lsa->origin == router_id_) {
    const OspfLsa* own = lsdb_.find(router_id_);
    if (lsa->sequence >= own_sequence_ && (own == nullptr || !lsa->same_content(*own))) {
      own_sequence_ = lsa->sequence;
      lsdb_.put(lsa);
      regenerate_lsa();
    }
    return;
  }
  const OspfLsa* stored = lsdb_.find(lsa->origin);
  if (stored != nullptr && stored->sequence >= lsa->sequence) return;
  lsdb_.put(lsa);
  flood(lsa, in_interface);
  schedule_spf();
}

void OspfEngine::regenerate_lsa() {
  if (!active_) return;
  OspfLsa lsa;
  lsa.origin = router_id_;
  for (const auto& [name, adjacency] : adjacencies_)
    if (adjacency.state == OspfAdjacency::State::kFull)
      lsa.neighbors.push_back({adjacency.neighbor, adjacency.cost});
  for (const InterfaceView& interface : env_.interfaces())
    if (participates(interface) && interface.up && interface.address)
      lsa.prefixes.push_back({interface.address->subnet, cost_of(interface.name)});
  std::sort(lsa.neighbors.begin(), lsa.neighbors.end());
  std::sort(lsa.prefixes.begin(), lsa.prefixes.end());

  const OspfLsa* own = lsdb_.find(router_id_);
  if (own != nullptr && own->same_content(lsa)) return;
  originate(std::move(lsa));
  schedule_spf();
}

void OspfEngine::originate(OspfLsa lsa) {
  lsa.sequence = ++own_sequence_;
  auto shared = std::make_shared<const OspfLsa>(std::move(lsa));
  lsdb_.put(shared);
  flood(shared, /*except=*/"");
}

void OspfEngine::flood(const OspfLsaPtr& lsa, const net::InterfaceName& except) {
  for (const auto& [name, adjacency] : adjacencies_) {
    if (adjacency.state != OspfAdjacency::State::kFull) continue;
    if (name == except) continue;
    env_.send_on_interface(name, Message(lsa));
  }
}

void OspfEngine::interfaces_changed() {
  if (!active_) return;
  bool dropped = false;
  for (auto it = adjacencies_.begin(); it != adjacencies_.end();) {
    auto interface = env_.interface(it->first);
    bool alive = interface && interface->up && participates(*interface) &&
                 !passive(*interface);
    if (!alive) {
      it = adjacencies_.erase(it);
      dropped = true;
    } else {
      ++it;
    }
  }
  for (const InterfaceView& interface : env_.interfaces())
    if (participates(interface) && !passive(interface) && interface.up)
      send_hello(interface);
  (void)dropped;
  regenerate_lsa();
}

void OspfEngine::schedule_spf() {
  if (spf_pending_) return;
  spf_pending_ = true;
  env_.schedule(kSpfDelay, [this] {
    spf_pending_ = false;
    run_spf();
  });
}

void OspfEngine::run_spf() {
  if (!active_) return;
  ++spf_runs_;

  struct NodeState {
    uint32_t distance = std::numeric_limits<uint32_t>::max();
    std::set<net::InterfaceName> first_hops;
  };
  std::map<net::RouterId, NodeState> states;
  states[router_id_].distance = 0;

  auto reports = [&](net::RouterId from, net::RouterId to) {
    const OspfLsa* lsa = lsdb_.find(from);
    if (lsa == nullptr) return false;
    for (const auto& neighbor : lsa->neighbors)
      if (neighbor.router_id == to) return true;
    return false;
  };

  using QueueItem = std::pair<uint32_t, net::RouterId>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  queue.push({0, router_id_});
  std::set<net::RouterId> settled;

  while (!queue.empty()) {
    auto [distance, node] = queue.top();
    queue.pop();
    if (settled.count(node)) continue;
    settled.insert(node);
    const OspfLsa* lsa = lsdb_.find(node);
    if (lsa == nullptr) continue;
    for (const auto& edge : lsa->neighbors) {
      if (!reports(edge.router_id, node)) continue;
      uint32_t candidate = distance + edge.metric;
      NodeState& neighbor_state = states[edge.router_id];
      std::set<net::InterfaceName> hops;
      if (node == router_id_) {
        for (const auto& [name, adjacency] : adjacencies_)
          if (adjacency.state == OspfAdjacency::State::kFull &&
              adjacency.neighbor == edge.router_id)
            hops.insert(name);
      } else {
        hops = states[node].first_hops;
      }
      if (hops.empty()) continue;
      if (candidate < neighbor_state.distance) {
        neighbor_state.distance = candidate;
        neighbor_state.first_hops = hops;
        queue.push({candidate, edge.router_id});
      } else if (candidate == neighbor_state.distance) {
        neighbor_state.first_hops.insert(hops.begin(), hops.end());
      }
    }
  }

  std::vector<rib::RibRoute> fresh;
  std::map<net::Ipv4Prefix, uint32_t> best_metric;
  for (const OspfLsaPtr& lsa : lsdb_) {
    if (lsa->origin == router_id_) continue;
    auto state_it = states.find(lsa->origin);
    if (state_it == states.end() ||
        state_it->second.distance == std::numeric_limits<uint32_t>::max())
      continue;
    for (const auto& item : lsa->prefixes) {
      uint32_t total = state_it->second.distance + item.metric;
      auto best_it = best_metric.find(item.prefix);
      if (best_it != best_metric.end() && best_it->second < total) continue;
      best_metric[item.prefix] = total;
      for (const net::InterfaceName& hop : state_it->second.first_hops) {
        auto adjacency_it = adjacencies_.find(hop);
        if (adjacency_it == adjacencies_.end()) continue;
        rib::RibRoute route;
        route.prefix = item.prefix;
        route.protocol = rib::Protocol::kOspf;
        route.admin_distance = rib::default_admin_distance(rib::Protocol::kOspf);
        route.metric = total;
        route.next_hop = adjacency_it->second.neighbor_address;
        route.interface = hop;
        route.source = std::to_string(ospf_.process_id);
        fresh.push_back(std::move(route));
      }
    }
  }
  // Notify only on a real change — identical SPF results (common during
  // incremental re-convergence) must not cascade downstream recomputation.
  if (env_.rib().replace_protocol(rib::Protocol::kOspf, std::to_string(ospf_.process_id),
                                  std::move(fresh)))
    env_.notify_rib_changed();
}

}  // namespace mfv::proto
