// The compiled forwarding graph against the AFTs it was compiled from.
//
// ForwardingGraph turns each snapshot into id-indexed tables (interval LPM,
// pre-resolved next hops, label tables, owner and ingress tables), and both
// the memoized engine and trace_flow read only those tables. This suite
// re-derives every answer straight from the AFT model — Aft::longest_match,
// group -> next-hop resolution, the last-wins ownership rule, the interface
// map plus aft::acl_permits — so the fuzz `engines` oracle's trace_flow
// reference stays independent of the compile step. Every node is probed at
// each packet class's first, last and representative address and at each
// class edge +-1, where an off-by-one interval end would show.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fuzz.hpp"
#include "gribi/gribi.hpp"
#include "helpers.hpp"
#include "verify/forwarding_graph.hpp"
#include "verify/packet_classes.hpp"
#include "workload/generator.hpp"

namespace mfv::verify {
namespace {

using test::base_router;
using test::link;
using test::wire;
using NodeId = ForwardingGraph::NodeId;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }
net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }

/// Group -> next-hop resolution, skipping dangling indices.
std::vector<const aft::NextHop*> reference_hops(const aft::Aft& aft, uint64_t group_id) {
  std::vector<const aft::NextHop*> hops;
  const aft::NextHopGroup* group = aft.group(group_id);
  if (group == nullptr) return hops;
  for (const auto& [index, weight] : group->next_hops)
    if (const aft::NextHop* hop = aft.next_hop(index)) hops.push_back(hop);
  return hops;
}

/// The last device, in name order, with an up default-instance interface
/// holding `address`.
std::optional<net::NodeName> reference_owner(const gnmi::Snapshot& snapshot,
                                             net::Ipv4Address address) {
  std::optional<net::NodeName> owner;
  for (const auto& [node, device] : snapshot.devices)
    for (const auto& [name, interface] : device.interfaces)
      if (interface.oper_up && interface.address && interface.vrf.empty() &&
          interface.address->address == address)
        owner = node;
  return owner;
}

bool reference_permits(const std::optional<std::vector<aft::AclRule>>& acl,
                       net::Ipv4Address destination) {
  return !acl || aft::acl_permits(*acl, destination);
}

/// Ingress verdict at `device` for a packet to `destination` arriving on
/// its first up interface (name order) holding `via`.
bool reference_ingress(const aft::DeviceAft& device, net::Ipv4Address via,
                       net::Ipv4Address destination) {
  for (const auto& [name, interface] : device.interfaces)
    if (interface.oper_up && interface.address && interface.address->address == via)
      return reference_permits(interface.acl_in, destination);
  return true;
}

/// Egress verdict of `hop` on `device` for `destination`.
bool reference_egress(const aft::DeviceAft& device, const aft::NextHop& hop,
                      net::Ipv4Address destination) {
  if (!hop.interface) return true;
  auto it = device.interfaces.find(*hop.interface);
  return it == device.interfaces.end() || reference_permits(it->second.acl_out, destination);
}

bool reference_connected(const aft::DeviceAft& device, net::Ipv4Address address) {
  for (const auto& [name, interface] : device.interfaces)
    if (interface.oper_up && interface.address && interface.vrf.empty() &&
        interface.address->subnet.contains(address))
      return true;
  return false;
}

/// First, last and representative address of every packet class, plus
/// each class edge +-1.
std::vector<net::Ipv4Address> probe_addresses(const ForwardingGraph& graph) {
  std::vector<uint32_t> bits;
  for (const PacketClass& cls : compute_packet_classes(graph.relevant_prefixes())) {
    bits.push_back(cls.representative().bits());
    for (uint64_t edge : {uint64_t{cls.first.bits()}, uint64_t{cls.last.bits()}})
      for (int64_t delta : {-1, 0, 1}) {
        int64_t probe = static_cast<int64_t>(edge) + delta;
        if (probe >= 0 && probe <= int64_t{UINT32_MAX})
          bits.push_back(static_cast<uint32_t>(probe));
      }
  }
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  std::vector<net::Ipv4Address> probes;
  for (uint32_t value : bits) probes.emplace_back(value);
  return probes;
}

NodeId id_or_none(const ForwardingGraph& graph, const std::optional<net::NodeName>& name) {
  return name ? graph.id_of(*name).value_or(ForwardingGraph::kNoNode)
              : ForwardingGraph::kNoNode;
}

/// Compiled hops against the group they came from, with the filter
/// verdicts at `destination`.
void expect_hops_match(const ForwardingGraph& graph, const aft::DeviceAft& device,
                       std::span<const ForwardingGraph::Hop> hops,
                       const std::vector<const aft::NextHop*>& expected,
                       net::Ipv4Address destination, const std::string& where) {
  ASSERT_EQ(hops.size(), expected.size()) << where;
  for (size_t i = 0; i < hops.size(); ++i) {
    const ForwardingGraph::Hop& hop = hops[i];
    const aft::NextHop& source = *expected[i];
    ASSERT_EQ(hop.source, &source) << where << " hop " << i;
    EXPECT_EQ(hop.drop, source.drop) << where;
    EXPECT_EQ(hop.addressed, source.ip_address.has_value()) << where;
    EXPECT_EQ(hop.label_op, source.label_op) << where;
    EXPECT_EQ(hop.label, source.label) << where;
    EXPECT_EQ(ForwardingGraph::permits(hop.egress_acl, destination),
              reference_egress(device, source, destination))
        << where;
    NodeId next = ForwardingGraph::kNoNode;
    if (source.ip_address)
      next = id_or_none(graph, reference_owner(graph.snapshot(), *source.ip_address));
    ASSERT_EQ(hop.next, next) << where;
    if (next != ForwardingGraph::kNoNode) {
      EXPECT_EQ(ForwardingGraph::permits(hop.ingress_acl, destination),
                reference_ingress(graph.snapshot().devices.at(graph.name(next)),
                                  *source.ip_address, destination))
          << where;
    }
  }
}

/// Every compiled table of `graph` against its snapshot's AFTs.
void expect_compiled_matches_aft(const ForwardingGraph& graph) {
  const gnmi::Snapshot& snapshot = graph.snapshot();
  ASSERT_EQ(graph.node_count(), snapshot.devices.size());
  std::vector<net::Ipv4Address> probes = probe_addresses(graph);
  ASSERT_FALSE(probes.empty());

  NodeId id = 0;
  for (const auto& [node, device] : snapshot.devices) {
    ASSERT_EQ(graph.name(id), node);
    ASSERT_EQ(graph.id_of(node).value_or(ForwardingGraph::kNoNode), id);
    const aft::Aft& aft = device.aft;

    ASSERT_EQ(graph.routes(id).size(), aft.ipv4_entries().size()) << node;
    size_t r = 0;
    for (const aft::Ipv4Entry& entry : aft.ipv4_entries())
      EXPECT_EQ(graph.routes(id)[r++].entry, &entry) << node << " " << entry.prefix.to_string();

    for (net::Ipv4Address probe : probes) {
      std::string where = node + " @ " + probe.to_string();
      const aft::Ipv4Entry* expected = aft.longest_match(probe);
      const ForwardingGraph::Route* route = graph.route(id, probe);
      ASSERT_EQ(route == nullptr ? nullptr : route->entry, expected) << where;
      if (route != nullptr)
        expect_hops_match(graph, device, route->hops,
                          reference_hops(aft, expected->next_hop_group), probe, where);
      EXPECT_EQ(graph.on_connected_subnet(id, probe), reference_connected(device, probe))
          << where;
      EXPECT_EQ(ForwardingGraph::permits(graph.ingress_acl(id, probe), probe),
                reference_ingress(device, probe, probe))
          << where;
    }

    ASSERT_EQ(graph.labels(id).size(), aft.label_entries().size()) << node;
    for (const aft::LabelEntry& entry : aft.label_entries()) {
      std::string where = node + " label " + std::to_string(entry.label);
      expect_hops_match(graph, device, graph.label_hops(id, entry.label),
                        reference_hops(aft, entry.next_hop_group), net::Ipv4Address(), where);
      if (aft.label_entry(entry.label + 1) == nullptr) {
        EXPECT_TRUE(graph.label_hops(id, entry.label + 1).empty()) << where;
      }
    }
    ++id;
  }

  for (net::Ipv4Address probe : probes)
    EXPECT_EQ(graph.owner(probe), id_or_none(graph, reference_owner(snapshot, probe)))
        << probe.to_string();
  EXPECT_FALSE(graph.id_of("no-such-node").has_value());
}

gnmi::Snapshot converge(emu::Emulation& emulation, const std::string& name) {
  emulation.start_all();
  EXPECT_TRUE(emulation.run_to_convergence());
  return gnmi::Snapshot::capture(emulation, name);
}

TEST(VerifyCompiled, Wan30) {
  emu::Emulation emulation;
  workload::WanOptions options;
  options.routers = 30;
  options.seed = 7;
  ASSERT_TRUE(emulation.add_topology(workload::wan_topology(options)).ok());
  ForwardingGraph graph(converge(emulation, "wan"));
  expect_compiled_matches_aft(graph);
}

/// R1 - R2 with a stub subnet toward R3; R2 filters on both interfaces.
TEST(VerifyCompiled, AclFixture) {
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  wire(r2, 2, "192.0.2.1/24").isis_passive = true;
  config::Acl acl;
  acl.name = "FILTER";
  acl.entries.push_back({10, false, pfx("192.0.2.128/25")});
  acl.entries.push_back({20, true, net::Ipv4Prefix()});
  r2.acls["FILTER"] = acl;
  r2.interface("Ethernet2").acl_out = "FILTER";
  r2.interface("Ethernet1").acl_in = "FILTER";
  auto r3 = base_router("R3", 3, /*isis=*/false);
  wire(r3, 1, "192.0.2.2/24", /*isis=*/false);
  emu::Emulation emulation;
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R3", 1);
  ForwardingGraph graph(converge(emulation, "acl"));
  expect_compiled_matches_aft(graph);
}

/// R1 - R2 with R1's management interface in VRF MGMT: its address must
/// stay out of the owner and connected tables.
TEST(VerifyCompiled, VrfFixture) {
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  r1.vrfs.push_back("MGMT");
  auto& mgmt = r1.interface("Management1");
  mgmt.switchport = false;
  mgmt.vrf = "MGMT";
  mgmt.address = net::InterfaceAddress::parse("192.168.0.10/24");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  auto mgmt_switch = base_router("SW", 9, /*isis=*/false);
  wire(mgmt_switch, 1, "192.168.0.1/24", /*isis=*/false);
  emu::Emulation emulation;
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(mgmt_switch));
  link(emulation, "R1", 1, "R2", 1);
  emulation.add_link({"R1", "Management1"}, {"SW", "Ethernet1"});
  ForwardingGraph graph(converge(emulation, "vrf"));
  expect_compiled_matches_aft(graph);
  EXPECT_EQ(graph.owner(addr("192.168.0.10")), ForwardingGraph::kNoNode);
}

/// R1 - R2 - R3 with a TE tunnel from R1 to R3's loopback: label tables.
TEST(VerifyCompiled, LspFixture) {
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31").mpls_enabled = true;
  r1.mpls.enabled = true;
  r1.mpls.te_enabled = true;
  config::TeTunnel tunnel;
  tunnel.name = "TE1";
  tunnel.destination = addr("10.0.0.3");
  r1.mpls.tunnels.push_back(tunnel);
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31").mpls_enabled = true;
  wire(r2, 2, "100.64.0.2/31").mpls_enabled = true;
  r2.mpls.enabled = true;
  auto r3 = base_router("R3", 3);
  wire(r3, 1, "100.64.0.3/31").mpls_enabled = true;
  r3.mpls.enabled = true;
  emu::Emulation emulation;
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R3", 1);
  ForwardingGraph graph(converge(emulation, "lsp"));
  size_t bindings = 0;
  for (NodeId id = 0; id < graph.node_count(); ++id) bindings += graph.labels(id).size();
  EXPECT_GT(bindings, 0u);
  expect_compiled_matches_aft(graph);
}

/// gRIBI-programmed entries (a single-hop override and an ECMP entry).
TEST(VerifyCompiled, GribiFixture) {
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  wire(r1, 2, "100.64.0.4/31");
  auto r2 = base_router("R2", 2);
  wire(r2, 1, "100.64.0.1/31");
  auto r3 = base_router("R3", 3);
  wire(r3, 1, "100.64.0.5/31");
  emu::Emulation emulation;
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R1", 2, "R3", 1);
  converge(emulation, "igp");
  gribi::GribiClient client(emulation);
  ASSERT_TRUE(client.add("R2", {pfx("10.0.0.3/32"), {addr("100.64.0.0")}}).ok());
  ASSERT_TRUE(
      client.add("R1", {pfx("203.0.113.0/24"), {addr("100.64.0.1"), addr("100.64.0.5")}})
          .ok());
  ASSERT_TRUE(emulation.run_to_convergence());
  ForwardingGraph graph(gnmi::Snapshot::capture(emulation, "sdn"));
  expect_compiled_matches_aft(graph);
}

/// Plants dangling references on every device: a group naming a missing
/// next-hop index beside a real one, a nested entry and a label bound to
/// missing groups.
void plant_dangling(gnmi::Snapshot& snapshot) {
  for (auto& [node, device] : snapshot.devices) {
    aft::NextHop drop;
    drop.drop = true;
    uint64_t real = device.aft.add_next_hop(drop);
    device.aft.set_ipv4_entry(
        {pfx("198.18.0.0/15"), device.aft.add_group({{999999, 1}, {real, 1}}), "STATIC", 0});
    device.aft.set_ipv4_entry({pfx("198.18.4.0/24"), 888888, "STATIC", 0});
    device.aft.set_label_entry({77, 888888});
  }
}

/// Synthetic adversarial dataplanes: drops, unowned hop addresses,
/// attached hops, ACLs and multi-label cycles, plus dangling references.
TEST(VerifyCompiled, FuzzSyntheticCases) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gnmi::Snapshot snapshot = fuzz::synth_snapshot(seed);
    if (seed % 2 == 1) plant_dangling(snapshot);
    ForwardingGraph graph(snapshot);
    expect_compiled_matches_aft(graph);
  }
}

}  // namespace
}  // namespace mfv::verify
