// LSP-aware verification: traces follow MPLS label-switched paths hop by
// hop — push at the head-end, swap at transit, pop at the tail — and
// detect broken label chains.
#include <gtest/gtest.h>

#include "gnmi/gnmi.hpp"
#include "helpers.hpp"
#include "verify/queries.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::link;
using test::wire;

net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

/// R1 - R2 - R3 with IS-IS and a TE tunnel from R1 to R3's loopback.
void build(emu::Emulation& emulation) {
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
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  emulation.add_router(std::move(r3));
  link(emulation, "R1", 1, "R2", 1);
  link(emulation, "R2", 2, "R3", 1);
}

struct LspFixture : ::testing::Test {
  void SetUp() override {
    build(emulation);
    emulation.start_all();
    ASSERT_TRUE(emulation.run_to_convergence());
    snapshot = gnmi::Snapshot::capture(emulation, "lsp");
  }
  emu::Emulation emulation;
  gnmi::Snapshot snapshot;
};

TEST_F(LspFixture, LabelEntriesAppearInSnapshot) {
  EXPECT_EQ(snapshot.devices.at("R2").aft.label_entries().size(), 1u);  // swap
  EXPECT_EQ(snapshot.devices.at("R3").aft.label_entries().size(), 1u);  // pop
  EXPECT_TRUE(snapshot.devices.at("R1").aft.label_entries().empty());

  // The swap entry points at R3 with the tail's label.
  const auto& r2_aft = snapshot.devices.at("R2").aft;
  const aft::LabelEntry& entry = r2_aft.label_entries().front();
  auto group = r2_aft.group(entry.next_hop_group);
  ASSERT_NE(group, nullptr);
  const aft::NextHop* hop = r2_aft.next_hop(group->next_hops[0].first);
  ASSERT_NE(hop, nullptr);
  EXPECT_EQ(hop->label_op, aft::LabelOp::kSwap);
  ASSERT_TRUE(hop->ip_address.has_value());
  EXPECT_EQ(hop->ip_address->to_string(), "100.64.0.3");
}

TEST_F(LspFixture, TraceFollowsTheLsp) {
  verify::ForwardingGraph graph(snapshot);
  verify::TraceResult trace = verify::trace_flow(graph, "R1", addr("10.0.0.3"));
  ASSERT_TRUE(trace.reachable());
  ASSERT_EQ(trace.paths.size(), 1u);
  const verify::TracePath& path = trace.paths[0];
  ASSERT_EQ(path.hops.size(), 3u);
  EXPECT_TRUE(path.hops[0].out_label.has_value()) << "head-end must push";
  EXPECT_TRUE(path.hops[1].out_label.has_value()) << "transit must swap";
  EXPECT_EQ(path.hops[1].origin_protocol, "MPLS");
  // Rendering shows the label segments.
  EXPECT_NE(path.to_string().find("=("), std::string::npos) << path.to_string();
}

TEST_F(LspFixture, NonTunnelTrafficStaysUnlabeled) {
  verify::ForwardingGraph graph(snapshot);
  verify::TraceResult trace = verify::trace_flow(graph, "R1", addr("10.0.0.2"));
  ASSERT_TRUE(trace.reachable());
  for (const auto& hop : trace.paths[0].hops) EXPECT_FALSE(hop.out_label.has_value());
}

TEST_F(LspFixture, BrokenLabelChainIsDetected) {
  // Corrupt the transit binding: R2 loses its label entry (the class of
  // hardware/programming bug the paper's §6 mentions — an LSP deletion not
  // correctly applied).
  gnmi::Snapshot corrupted = snapshot;
  aft::DeviceAft& r2 = corrupted.devices.at("R2");
  aft::Aft rebuilt;
  for (const aft::Ipv4Entry& entry : r2.aft.ipv4_entries()) {
    // Copy IP entries only, drop the MPLS table.
    std::vector<aft::NextHop> hops;
    const aft::NextHopGroup* group = r2.aft.group(entry.next_hop_group);
    std::vector<std::pair<uint64_t, uint64_t>> members;
    for (const auto& [index, weight] : group->next_hops)
      members.emplace_back(rebuilt.add_next_hop(*r2.aft.next_hop(index)), weight);
    aft::Ipv4Entry copy = entry;
    copy.next_hop_group = rebuilt.add_group(members);
    rebuilt.set_ipv4_entry(copy);
  }
  r2.aft = std::move(rebuilt);

  verify::ForwardingGraph graph(corrupted);
  verify::TraceResult trace = verify::trace_flow(graph, "R1", addr("10.0.0.3"));
  EXPECT_FALSE(trace.reachable());
  EXPECT_TRUE(trace.dispositions.contains(verify::Disposition::kNoRoute));
}

TEST_F(LspFixture, DifferentialCatchesLspCorruption) {
  gnmi::Snapshot corrupted = snapshot;
  // Point R2's swap at a bogus label so R3 drops it.
  aft::DeviceAft& r2 = corrupted.devices.at("R2");
  aft::LabelEntry entry = r2.aft.label_entries().front();
  aft::NextHop bogus;
  bogus.label_op = aft::LabelOp::kSwap;
  bogus.label = 999999;  // no binding at R3
  bogus.ip_address = addr("100.64.0.3");
  bogus.interface = "Ethernet2";
  entry.next_hop_group = r2.aft.add_group(r2.aft.add_next_hop(bogus));
  r2.aft.set_label_entry(entry);

  verify::ForwardingGraph base(snapshot);
  verify::ForwardingGraph bad(corrupted);
  auto diff = verify::differential_reachability(base, bad);
  EXPECT_FALSE(diff.empty());
  bool found = false;
  for (const auto& row : diff.regressions())
    if (row.source == "R1" && row.destination.contains(addr("10.0.0.3"))) found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mfv
