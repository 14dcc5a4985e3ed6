#include "vrouter/virtual_router.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace mfv::vrouter {

namespace {
constexpr util::Duration kFibCompileDelay = util::Duration::millis(20);
}

std::vector<aft::AclRule> resolve_acl(const config::Acl& acl) {
  std::vector<const config::AclEntry*> ordered;
  ordered.reserve(acl.entries.size());
  for (const config::AclEntry& entry : acl.entries) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const config::AclEntry* a, const config::AclEntry* b) {
              return a->seq < b->seq;
            });
  std::vector<aft::AclRule> rules;
  rules.reserve(ordered.size());
  for (const config::AclEntry* entry : ordered)
    rules.push_back({entry->permit, entry->destination});
  return rules;
}

VirtualRouter::VirtualRouter(config::DeviceConfig config, Fabric& fabric,
                             VirtualRouterOptions options)
    : config_(std::move(config)),
      fabric_(fabric),
      options_(options),
      alive_(std::make_shared<bool>(true)),
      generation_(std::make_shared<uint64_t>(0)) {}

VirtualRouter::~VirtualRouter() { *alive_ = false; }

VirtualRouter::VirtualRouter(const VirtualRouter& other, Fabric& fabric)
    : config_(other.config_),
      fabric_(fabric),
      options_(other.options_),
      started_(other.started_),
      alive_(std::make_shared<bool>(true)),
      generation_(std::make_shared<uint64_t>(*other.generation_)),
      rib_(other.rib_),
      vrf_ribs_(other.vrf_ribs_),
      link_connected_(other.link_connected_),
      fib_(other.fib_),
      vrf_fibs_(other.vrf_fibs_),
      fib_patcher_(other.fib_patcher_),
      vrf_patchers_(other.vrf_patchers_),
      fib_version_(other.fib_version_),
      last_fib_change_(other.last_fib_change_),
      fib_compile_pending_(other.fib_compile_pending_) {
  // Engines are forked against *this* router's env so their callbacks and
  // RIB writes land in the clone. BGP rebinds its policy pointers to our
  // config copy.
  if (other.isis_) isis_ = other.isis_->fork(*this);
  if (other.ospf_) ospf_ = other.ospf_->fork(*this);
  if (other.bgp_) bgp_ = other.bgp_->fork(*this, config_);
  if (other.te_) te_ = other.te_->fork(*this);
}

std::unique_ptr<VirtualRouter> VirtualRouter::fork(Fabric& fabric) const {
  return std::unique_ptr<VirtualRouter>(new VirtualRouter(*this, fabric));
}

bool VirtualRouter::interface_up(const config::InterfaceConfig& interface) const {
  if (interface.shutdown) return false;
  if (interface.is_loopback()) return true;
  if (!interface.routed()) return false;  // L2 switchport: no L3 presence
  auto it = link_connected_.find(interface.name);
  return it != link_connected_.end() && it->second;
}

proto::InterfaceView VirtualRouter::view_of(const net::InterfaceName& name,
                                            const config::InterfaceConfig& interface) const {
  proto::InterfaceView view;
  view.name = name;
  view.address = interface.address;
  view.up = interface_up(interface);
  view.isis_enabled = interface.isis_enabled;
  view.isis_passive = interface.isis_passive;
  view.isis_metric = interface.isis_metric;
  view.mpls_enabled = interface.mpls_enabled;
  view.vrf = interface.vrf;
  return view;
}

std::vector<proto::InterfaceView> VirtualRouter::interfaces() const {
  std::vector<proto::InterfaceView> views;
  views.reserve(config_.interfaces.size());
  for (const auto& [name, interface] : config_.interfaces) views.push_back(view_of(name, interface));
  return views;
}

std::optional<proto::InterfaceView> VirtualRouter::interface(
    const net::InterfaceName& name) const {
  auto it = config_.interfaces.find(name);
  if (it == config_.interfaces.end()) return std::nullopt;
  return view_of(it->first, it->second);
}

void VirtualRouter::install_connected_routes() {
  rib_.clear_protocol(rib::Protocol::kConnected);
  rib_.clear_protocol(rib::Protocol::kLocal);
  for (auto& [vrf, vrf_rib] : vrf_ribs_) {
    vrf_rib.clear_protocol(rib::Protocol::kConnected);
    vrf_rib.clear_protocol(rib::Protocol::kLocal);
  }
  for (const auto& [name, interface] : config_.interfaces) {
    if (!interface.address || !interface_up(interface)) continue;
    rib::Rib& rib = interface.vrf.empty() ? rib_ : vrf_ribs_[interface.vrf];
    rib::RibRoute connected;
    connected.prefix = interface.address->subnet;
    connected.protocol = rib::Protocol::kConnected;
    connected.admin_distance = 0;
    connected.interface = name;
    connected.source = name;
    rib.add(connected);

    if (interface.address->subnet.length() < 32) {
      rib::RibRoute local;
      local.prefix = net::Ipv4Prefix::host(interface.address->address);
      local.protocol = rib::Protocol::kLocal;
      local.admin_distance = 0;
      local.interface = name;
      local.source = name;
      rib.add(local);
    }
  }
}

void VirtualRouter::install_static_routes() {
  rib_.clear_protocol(rib::Protocol::kStatic);
  for (auto& [vrf, vrf_rib] : vrf_ribs_) vrf_rib.clear_protocol(rib::Protocol::kStatic);
  for (const config::StaticRoute& route : config_.static_routes) {
    if (!route.vrf.empty() && !config_.has_vrf(route.vrf)) {
      MFV_LOG(kWarn, "vrouter") << config_.hostname << ": static route references "
                                << "undeclared vrf '" << route.vrf << "', skipped";
      continue;
    }
    rib::RibRoute entry;
    entry.prefix = route.prefix;
    entry.protocol = rib::Protocol::kStatic;
    entry.admin_distance = route.distance;
    entry.next_hop = route.next_hop;
    entry.interface = route.exit_interface;
    entry.drop = route.null_route;
    entry.source = "static";
    (route.vrf.empty() ? rib_ : vrf_ribs_[route.vrf]).add(entry);
  }
}

void VirtualRouter::start() {
  started_ = true;
  install_connected_routes();
  install_static_routes();

  isis_ = std::make_unique<proto::IsisEngine>(*this, config_);
  ospf_ = std::make_unique<proto::OspfEngine>(*this, config_);
  bgp_ = std::make_unique<proto::BgpEngine>(*this, config_, options_.bgp);
  te_ = std::make_unique<proto::TeEngine>(*this, config_, options_.te);

  isis_->start();
  ospf_->start();
  bgp_->start();
  te_->start();
  notify_rib_changed();
}

void VirtualRouter::apply_config(config::DeviceConfig config) {
  // Graceful control-plane teardown: purge our IS-IS LSP so neighbors
  // withdraw routes through us (the event-driven model has no LSP aging;
  // the restart will re-originate immediately anyway).
  if (isis_ != nullptr && isis_->active()) isis_->shutdown();
  if (ospf_ != nullptr && ospf_->active()) ospf_->shutdown();
  config_ = std::move(config);
  rib_ = rib::Rib();
  vrf_ribs_.clear();
  ++*generation_;  // orphan callbacks scheduled by the outgoing engines
  fib_compile_pending_ = false;
  if (started_) start();
}

void VirtualRouter::program_route(const net::Ipv4Prefix& prefix,
                                  const std::vector<net::Ipv4Address>& next_hops) {
  unprogram_route(prefix);  // gRIBI replace semantics
  for (net::Ipv4Address next_hop : next_hops) {
    rib::RibRoute route;
    route.prefix = prefix;
    route.protocol = rib::Protocol::kGribi;
    route.admin_distance = rib::default_admin_distance(rib::Protocol::kGribi);
    route.next_hop = next_hop;
    route.source = "gribi";
    rib_.add(route);
  }
  if (started_) notify_rib_changed();
}

bool VirtualRouter::unprogram_route(const net::Ipv4Prefix& prefix) {
  bool removed = false;
  for (const rib::RibRoute& route : rib_.candidates(prefix)) {
    if (route.protocol != rib::Protocol::kGribi) continue;
    rib_.remove(route);
    removed = true;
  }
  if (removed && started_) notify_rib_changed();
  return removed;
}

size_t VirtualRouter::unprogram_all() {
  size_t removed = rib_.clear_protocol(rib::Protocol::kGribi);
  if (removed > 0 && started_) notify_rib_changed();
  return removed;
}

std::map<net::Ipv4Prefix, std::vector<net::Ipv4Address>>
VirtualRouter::programmed_routes() const {
  std::map<net::Ipv4Prefix, std::vector<net::Ipv4Address>> programmed;
  // Every prefix's candidates, not just its best set: a programmed route
  // counts even while another protocol wins.
  rib_.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<rib::RibRoute>&) {
    for (const rib::RibRoute& route : rib_.candidates(prefix))
      if (route.protocol == rib::Protocol::kGribi && route.next_hop)
        programmed[prefix].push_back(*route.next_hop);
  });
  return programmed;
}

void VirtualRouter::set_link_state(const net::InterfaceName& interface, bool connected) {
  bool& state = link_connected_[interface];
  if (state == connected) return;
  state = connected;
  if (!started_) return;
  install_connected_routes();
  if (isis_) isis_->interfaces_changed();
  if (ospf_) ospf_->interfaces_changed();
  notify_rib_changed();
}

void VirtualRouter::deliver_on_interface(const net::InterfaceName& interface,
                                         const proto::Message& message) {
  if (!started_) return;
  // Link-scoped messages: IGP traffic. Each engine ignores the other's
  // message types.
  if (isis_) isis_->handle(interface, message);
  if (ospf_) ospf_->handle(interface, message);
}

void VirtualRouter::deliver_addressed(const proto::Message& message) {
  if (!started_) return;
  if (std::holds_alternative<proto::BgpOpen>(message) ||
      std::holds_alternative<proto::BgpUpdate>(message) ||
      std::holds_alternative<proto::BgpKeepalive>(message) ||
      std::holds_alternative<proto::BgpNotification>(message)) {
    if (bgp_) bgp_->handle(message);
  } else if (te_) {
    te_->handle(message);
  }
}

bool VirtualRouter::owns_address(net::Ipv4Address address) const {
  for (const auto& [name, interface] : config_.interfaces)
    if (interface.address && interface.address->address == address &&
        interface_up(interface))
      return true;
  return false;
}

void VirtualRouter::send_on_interface(const net::InterfaceName& interface,
                                      const proto::Message& message) {
  fabric_.send_on_interface(config_.hostname, interface, message);
}

void VirtualRouter::send_addressed(net::Ipv4Address destination,
                                   const proto::Message& message) {
  fabric_.send_addressed(config_.hostname, destination, message);
}

void VirtualRouter::schedule(util::Duration delay, std::function<void()> fn) {
  fabric_.schedule(config_.hostname, delay,
                   [alive = alive_, generation = generation_,
                    expected = *generation_, fn = std::move(fn)] {
                     if (*alive && *generation == expected) fn();
                   });
}

bool VirtualRouter::reachable(net::Ipv4Address address) const {
  if (owns_address(address)) return true;
  for (const rib::RibRoute& route : rib_.longest_match(address))
    if (!route.drop) return true;
  return false;
}

void VirtualRouter::notify_rib_changed() {
  schedule_fib_compile();
  propagate_rib_change();
}

void VirtualRouter::propagate_rib_change() {
  if (propagating_) return;  // engines notifying during propagation: coalesce
  propagating_ = true;
  if (bgp_) bgp_->rib_changed();
  if (te_) te_->rib_changed();
  propagating_ = false;
}

void VirtualRouter::schedule_fib_compile() {
  if (fib_compile_pending_) return;
  fib_compile_pending_ = true;
  schedule(kFibCompileDelay, [this] {
    fib_compile_pending_ = false;
    compile_fib_now();
  });
}

rib::LabelHops VirtualRouter::label_hops() const {
  // MPLS forwarding state: RSVP-TE transit/tail bindings become label
  // entries (swap toward the recorded downstream, or pop at the tail).
  rib::LabelHops hops;
  if (te_ == nullptr) return hops;
  for (const auto& [label, binding] : te_->label_bindings()) {
    aft::NextHop hop;
    if (binding.out_label) {
      hop.label_op = aft::LabelOp::kSwap;
      hop.label = *binding.out_label;
      hop.ip_address = binding.downstream;
      if (binding.downstream)
        for (const rib::RibRoute& route : rib_.longest_match(*binding.downstream))
          if (route.interface) {
            hop.interface = route.interface;
            break;
          }
    } else {
      hop.label_op = aft::LabelOp::kPop;
    }
    hops.emplace_back(binding.in_label, std::move(hop));
  }
  return hops;
}

void VirtualRouter::compile_fib_now() {
  // The patched tables always end up equal to a fresh compile, so a change
  // that leaves forwarding intact (a metric or origin-protocol shift)
  // still reaches the AFT. Only forwarding changes (a VRF instance coming
  // or going included) bump the version and the last-change time the
  // convergence detector watches.
  bool forwarding_changed = fib_patcher_.patch(rib_, fib_, label_hops()).forwarding_changed;
  for (auto& [vrf, vrf_rib] : vrf_ribs_) {
    auto [vrf_fib, added] = vrf_fibs_.try_emplace(vrf);
    forwarding_changed |= vrf_patchers_[vrf].patch(vrf_rib, vrf_fib->second).forwarding_changed;
    forwarding_changed |= added;
  }
  auto gone = [&](const auto& item) { return !vrf_ribs_.count(item.first); };
  std::erase_if(vrf_patchers_, gone);
  forwarding_changed |= std::erase_if(vrf_fibs_, gone) > 0;
  if (!forwarding_changed) return;
  ++fib_version_;
  last_fib_change_ = fabric_.now();
}

aft::DeviceAft VirtualRouter::recompiled_device_aft() const {
  aft::DeviceAft device = device_aft();
  device.aft = rib::compile_fib(rib_);
  for (const auto& [label, hop] : label_hops())
    device.aft.set_label_entry({label, device.aft.add_group(device.aft.add_next_hop(hop))});
  device.instances.clear();
  for (const auto& [vrf, vrf_rib] : vrf_ribs_) device.instances[vrf] = rib::compile_fib(vrf_rib);
  return device;
}

aft::DeviceAft VirtualRouter::device_aft() const {
  aft::DeviceAft device;
  device.node = config_.hostname;
  device.aft = fib_;
  device.instances = vrf_fibs_;
  for (const auto& [name, interface] : config_.interfaces) {
    aft::InterfaceState state;
    state.name = name;
    state.address = interface.address;
    state.oper_up = interface_up(interface);
    state.vrf = interface.vrf;
    // Attach resolved packet filters. A dangling access-group reference
    // behaves like no filter on the real device, so it is left off.
    if (interface.acl_in) {
      auto it = config_.acls.find(*interface.acl_in);
      if (it != config_.acls.end()) state.acl_in = resolve_acl(it->second);
    }
    if (interface.acl_out) {
      auto it = config_.acls.find(*interface.acl_out);
      if (it != config_.acls.end()) state.acl_out = resolve_acl(it->second);
    }
    device.interfaces[name] = std::move(state);
  }
  return device;
}

}  // namespace mfv::vrouter
