// Emulation fabric behaviour: message delivery semantics, channel
// serialization, jitter/seed determinism, external-peer injection
// mechanics, and event accounting.
#include <gtest/gtest.h>

#include "emu/emulation.hpp"
#include "gnmi/gnmi.hpp"
#include "helpers.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace mfv {
namespace {

using test::base_router;
using test::link;
using test::wire;

TEST(Fabric, DroppedWhenLinkDownOrUnwired) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  wire(r1, 1, "100.64.0.0/31");
  emulation.add_router(std::move(r1));
  // No link: hellos sent at start go nowhere... the interface is down so
  // IS-IS will not even send. Force a send on a bogus interface:
  emulation.start_all();
  emulation.run_to_convergence();
  uint64_t dropped = emulation.messages_dropped();
  emulation.send_on_interface("R1", "Ethernet1", proto::Message(proto::BgpKeepalive{}));
  emulation.run_to_convergence();
  EXPECT_EQ(emulation.messages_dropped(), dropped + 1);
}

TEST(Fabric, AddressedDeliveryRequiresOwner) {
  emu::Emulation emulation;
  auto r1 = base_router("R1", 1);
  emulation.add_router(std::move(r1));
  emulation.start_all();
  emulation.run_to_convergence();
  uint64_t dropped = emulation.messages_dropped();
  emulation.send_addressed("R1", *net::Ipv4Address::parse("172.31.0.1"),
                           proto::Message(proto::BgpKeepalive{}));
  emulation.run_to_convergence();
  EXPECT_EQ(emulation.messages_dropped(), dropped + 1);
}

TEST(Fabric, ChannelSerializationPreservesOrderBehindLargeUpdates) {
  // A large update followed by a small one on the same session must not be
  // overtaken: the BGP engine relies on in-order delivery.
  emu::EmulationOptions options;
  options.per_route_processing_micros = 1000;
  emu::Emulation emulation(options);
  auto r1 = base_router("R1", 1, false);
  wire(r1, 1, "100.64.0.0/31", false);
  auto r2 = base_router("R2", 2, false);
  wire(r2, 1, "100.64.0.1/31", false);
  test::ebgp(r1, 65001, "100.64.0.1", 65002);
  test::ebgp(r2, 65002, "100.64.0.0", 65001);
  emulation.add_router(std::move(r1));
  emulation.add_router(std::move(r2));
  link(emulation, "R1", 1, "R2", 1);
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());

  // Big announce then a withdraw of one prefix, back-to-back.
  proto::BgpUpdate big;
  big.source = *net::Ipv4Address::parse("100.64.0.0");
  for (int i = 0; i < 100; ++i) {
    proto::BgpRoute route;
    route.prefix = net::Ipv4Prefix(net::Ipv4Address(0x20000000u + uint32_t(i) * 256), 24);
    route.attributes.as_path = {65001};
    route.attributes.next_hop = big.source;
    big.announced.push_back(route);
  }
  proto::BgpUpdate withdraw;
  withdraw.source = big.source;
  withdraw.withdrawn.push_back(big.announced[0].prefix);

  emulation.send_addressed("R1", *net::Ipv4Address::parse("100.64.0.1"),
                           proto::Message(big));
  emulation.send_addressed("R1", *net::Ipv4Address::parse("100.64.0.1"),
                           proto::Message(withdraw));
  ASSERT_TRUE(emulation.run_to_convergence());

  // If the withdraw had overtaken the announce, prefix 0 would be present.
  const auto* router = emulation.router("R2");
  EXPECT_EQ(router->fib().ipv4_entry(big.announced[0].prefix), nullptr);
  EXPECT_NE(router->fib().ipv4_entry(big.announced[1].prefix), nullptr);
}

TEST(Fabric, SameSeedSameOutcomeDifferentSeedMayReorder) {
  auto run = [](uint64_t seed) {
    emu::EmulationOptions options;
    options.seed = seed;
    options.message_jitter_micros = 3000;
    emu::Emulation emulation(options);
    EXPECT_TRUE(emulation.add_topology(workload::fig2_topology(false)).ok());
    emulation.start_all();
    EXPECT_TRUE(emulation.run_to_convergence());
    std::string dump;
    for (const auto& device : emulation.dump_afts()) dump += device.to_json().dump();
    return dump;
  };
  EXPECT_EQ(run(7), run(7));  // reproducible under jitter with equal seed
  // Different seeds must still converge to the same *forwarding* on this
  // topology (no ties to break differently).
  EXPECT_EQ(run(7), run(8));
}

TEST(Fabric, ExternalPeerEstablishesAndInjects) {
  workload::WanOptions options;
  options.routers = 3;
  options.seed = 2;
  options.border_count = 1;
  options.routes_per_peer = 25;
  options.ibgp_mesh = true;
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(workload::wan_topology(options)).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  ASSERT_EQ(emulation.external_peers().size(), 1u);
  EXPECT_TRUE(emulation.external_peers()[0]->established());
  // All 25 routes present on every router via the iBGP mesh.
  for (const auto& device : emulation.dump_afts()) {
    size_t injected = 0;
    for (const aft::Ipv4Entry& entry : device.aft.ipv4_entries())
      if (entry.prefix.address().bits() >> 29 == 1) ++injected;  // 32.0.0.0/3 space
    EXPECT_EQ(injected, 25u) << device.node;
  }
}

TEST(Fabric, InjectionBatchSizeDoesNotChangeOutcome) {
  auto run = [](size_t batch) {
    workload::WanOptions options;
    options.routers = 3;
    options.seed = 2;
    options.border_count = 1;
    options.routes_per_peer = 50;
    options.ibgp_mesh = true;
    emu::EmulationOptions emulation_options;
    emulation_options.injection_batch_size = batch;
    emu::Emulation emulation(emulation_options);
    EXPECT_TRUE(emulation.add_topology(workload::wan_topology(options)).ok());
    emulation.start_all();
    EXPECT_TRUE(emulation.run_to_convergence());
    return gnmi::Snapshot::capture(emulation, "snap");
  };
  gnmi::Snapshot small = run(7);
  gnmi::Snapshot large = run(1000);
  for (const auto& [node, device] : small.devices)
    EXPECT_TRUE(device.aft.forwarding_equal(large.devices.at(node).aft)) << node;
}

TEST(Fabric, MessageAccountingMonotone) {
  emu::Emulation emulation;
  ASSERT_TRUE(emulation.add_topology(workload::fig3_line_topology()).ok());
  emulation.start_all();
  ASSERT_TRUE(emulation.run_to_convergence());
  uint64_t delivered = emulation.messages_delivered();
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(emulation.kernel().executed(), delivered);
}

}  // namespace
}  // namespace mfv
