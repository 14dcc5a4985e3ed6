#include <gtest/gtest.h>

#include <algorithm>

#include "aft/aft.hpp"
#include "gnmi/gnmi.hpp"
#include "util/rng.hpp"

namespace mfv::aft {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

Aft sample_aft() {
  Aft aft;
  NextHop nh1;
  nh1.ip_address = addr("10.0.0.1");
  nh1.interface = "Ethernet1";
  uint64_t i1 = aft.add_next_hop(nh1);
  NextHop nh2;
  nh2.ip_address = addr("10.0.0.3");
  nh2.interface = "Ethernet2";
  uint64_t i2 = aft.add_next_hop(nh2);
  NextHop drop;
  drop.drop = true;
  uint64_t i3 = aft.add_next_hop(drop);

  uint64_t ecmp = aft.add_group({{i1, 1}, {i2, 1}});
  uint64_t single = aft.add_group(i1);
  uint64_t null_group = aft.add_group(i3);

  aft.set_ipv4_entry({pfx("10.1.0.0/16"), ecmp, "ISIS", 20});
  aft.set_ipv4_entry({pfx("10.1.2.0/24"), single, "BGP", 0});
  aft.set_ipv4_entry({pfx("0.0.0.0/0"), null_group, "STATIC", 0});
  aft.set_label_entry({100001, single});
  return aft;
}

TEST(Aft, LongestMatchAndForward) {
  Aft aft = sample_aft();
  const Ipv4Entry* entry = aft.longest_match(addr("10.1.2.9"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->origin_protocol, "BGP");
  EXPECT_EQ(aft.forward(addr("10.1.2.9")).size(), 1u);
  EXPECT_EQ(aft.forward(addr("10.1.99.1")).size(), 2u);  // ECMP
  auto hops = aft.forward(addr("192.0.2.1"));            // default: drop
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_TRUE(hops[0].drop);
}

TEST(Aft, MutationInvalidatesLookupCache) {
  Aft aft = sample_aft();
  EXPECT_EQ(aft.longest_match(addr("10.1.99.1"))->origin_protocol, "ISIS");
  NextHop nh;
  nh.drop = true;
  uint64_t g = aft.add_group(aft.add_next_hop(nh));
  aft.set_ipv4_entry({pfx("10.1.99.0/24"), g, "STATIC", 0});
  EXPECT_EQ(aft.longest_match(addr("10.1.99.1"))->origin_protocol, "STATIC");
}

TEST(Aft, CopyIsIndependent) {
  Aft aft = sample_aft();
  Aft copy = aft;
  EXPECT_TRUE(copy.forwarding_equal(aft));
  NextHop nh;
  nh.drop = true;
  uint64_t g = copy.add_group(copy.add_next_hop(nh));
  copy.set_ipv4_entry({pfx("10.1.0.0/16"), g, "STATIC", 0});
  EXPECT_FALSE(copy.forwarding_equal(aft));
  // Original unchanged and its cache still valid.
  EXPECT_EQ(aft.forward(addr("10.1.99.1")).size(), 2u);
}

TEST(Aft, ForwardingEqualIgnoresIndexNumbering) {
  // Same behaviour built in a different insertion order.
  Aft a;
  {
    NextHop nh;
    nh.ip_address = addr("10.0.0.1");
    nh.interface = "Ethernet1";
    a.set_ipv4_entry({pfx("10.0.0.0/8"), a.add_group(a.add_next_hop(nh)), "ISIS", 10});
  }
  Aft b;
  {
    NextHop filler;
    filler.drop = true;
    b.add_next_hop(filler);  // shift the index space
    NextHop nh;
    nh.ip_address = addr("10.0.0.1");
    nh.interface = "Ethernet1";
    b.set_ipv4_entry({pfx("10.0.0.0/8"), b.add_group(b.add_next_hop(nh)), "ISIS", 10});
  }
  EXPECT_TRUE(a.forwarding_equal(b));
  EXPECT_TRUE(b.forwarding_equal(a));
  EXPECT_FALSE(a == b);  // structural equality differs
}

TEST(Aft, ForwardingEqualDetectsNextHopChange) {
  Aft a = sample_aft();
  Aft b = sample_aft();
  EXPECT_TRUE(a.forwarding_equal(b));
  NextHop nh;
  nh.ip_address = addr("10.0.0.9");
  nh.interface = "Ethernet9";
  b.set_ipv4_entry({pfx("10.1.2.0/24"), b.add_group(b.add_next_hop(nh)), "BGP", 0});
  EXPECT_FALSE(a.forwarding_equal(b));
}

TEST(Aft, JsonRoundTrip) {
  Aft aft = sample_aft();
  util::Json json = aft.to_json();
  auto restored = Aft::from_json(json);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_TRUE(restored->forwarding_equal(aft));
  EXPECT_TRUE(*restored == aft);
  EXPECT_EQ(restored->label_entries().size(), 1u);
}

// longest_match and forward agree with a brute-force scan over a random
// prefix population, repeats included (the last entry set for a prefix
// wins).
TEST(Aft, LongestMatchAndForwardMatchBruteForce) {
  util::Pcg32 rng(1234);
  Aft aft;
  std::vector<std::pair<net::Ipv4Prefix, uint32_t>> prefixes;  // prefix, last i
  for (uint32_t i = 0; i < 300; ++i) {
    net::Ipv4Prefix prefix(net::Ipv4Address(rng.next()),
                           static_cast<uint8_t>(rng.next_below(33)));
    NextHop nh;
    nh.interface = "Ethernet" + std::to_string(i);
    aft.set_ipv4_entry({prefix, aft.add_group(aft.add_next_hop(nh)), "STATIC", i});
    auto it = std::find_if(prefixes.begin(), prefixes.end(),
                           [&](const auto& seen) { return seen.first == prefix; });
    if (it == prefixes.end())
      prefixes.emplace_back(prefix, i);
    else
      it->second = i;
  }
  ASSERT_EQ(aft.entry_count(), prefixes.size());
  for (int trial = 0; trial < 2000; ++trial) {
    net::Ipv4Address probe(rng.next());
    const std::pair<net::Ipv4Prefix, uint32_t>* best = nullptr;
    for (const auto& entry : prefixes) {
      if (!entry.first.contains(probe)) continue;
      if (best == nullptr || entry.first.length() > best->first.length()) best = &entry;
    }
    const Ipv4Entry* match = aft.longest_match(probe);
    std::vector<NextHop> hops = aft.forward(probe);
    if (best == nullptr) {
      EXPECT_EQ(match, nullptr) << probe.to_string();
      EXPECT_TRUE(hops.empty()) << probe.to_string();
      continue;
    }
    ASSERT_NE(match, nullptr) << probe.to_string();
    EXPECT_EQ(match->prefix, best->first) << probe.to_string();
    EXPECT_EQ(match->metric, best->second) << probe.to_string();
    ASSERT_EQ(hops.size(), 1u) << probe.to_string();
    EXPECT_EQ(hops[0].interface, "Ethernet" + std::to_string(best->second))
        << probe.to_string();
  }
}

// from_json keeps a map's rules for documents out of key order: every table
// iterates sorted by key, and of the records sharing a key the last wins.
TEST(Aft, FromJsonSortsAndKeepsTheLastRecordOfAKey) {
  std::optional<util::Json> shuffled = util::Json::parse(R"({
    "next-hops": [{"index": 3, "drop": true},
                  {"index": 1, "interface-ref": "Ethernet1"},
                  {"index": 3, "interface-ref": "Ethernet3"}],
    "next-hop-groups": [{"id": 2, "next-hops": [{"index": 3, "weight": 1}]},
                        {"id": 1, "next-hops": [{"index": 1, "weight": 1}]},
                        {"id": 2, "next-hops": [{"index": 1, "weight": 2}]}],
    "ipv4-unicast": [
      {"prefix": "10.2.0.0/16", "next-hop-group": 1, "origin-protocol": "BGP", "metric": 0},
      {"prefix": "10.1.0.0/16", "next-hop-group": 2, "origin-protocol": "ISIS", "metric": 10},
      {"prefix": "10.2.0.0/16", "next-hop-group": 2, "origin-protocol": "STATIC", "metric": 1},
      {"prefix": "0.0.0.0/0", "next-hop-group": 1, "origin-protocol": "STATIC", "metric": 0}],
    "mpls": [{"label": 200, "next-hop-group": 1},
             {"label": 100, "next-hop-group": 2},
             {"label": 200, "next-hop-group": 2}]
  })");
  std::optional<util::Json> by_hand = util::Json::parse(R"({
    "next-hops": [{"index": 1, "interface-ref": "Ethernet1"},
                  {"index": 3, "interface-ref": "Ethernet3"}],
    "next-hop-groups": [{"id": 1, "next-hops": [{"index": 1, "weight": 1}]},
                        {"id": 2, "next-hops": [{"index": 1, "weight": 2}]}],
    "ipv4-unicast": [
      {"prefix": "0.0.0.0/0", "next-hop-group": 1, "origin-protocol": "STATIC", "metric": 0},
      {"prefix": "10.1.0.0/16", "next-hop-group": 2, "origin-protocol": "ISIS", "metric": 10},
      {"prefix": "10.2.0.0/16", "next-hop-group": 2, "origin-protocol": "STATIC", "metric": 1}],
    "mpls": [{"label": 100, "next-hop-group": 2},
             {"label": 200, "next-hop-group": 2}]
  })");
  ASSERT_TRUE(shuffled.has_value());
  ASSERT_TRUE(by_hand.has_value());
  auto aft = Aft::from_json(*shuffled);
  auto expected = Aft::from_json(*by_hand);
  ASSERT_TRUE(aft.ok()) << aft.status().to_string();
  ASSERT_TRUE(expected.ok()) << expected.status().to_string();

  std::vector<uint64_t> indices, ids;
  std::vector<std::string> prefixes;
  std::vector<uint32_t> labels;
  for (const NextHop& nh : aft->next_hops()) indices.push_back(nh.index);
  for (const NextHopGroup& group : aft->groups()) ids.push_back(group.id);
  for (const Ipv4Entry& entry : aft->ipv4_entries()) prefixes.push_back(entry.prefix.to_string());
  for (const LabelEntry& entry : aft->label_entries()) labels.push_back(entry.label);
  EXPECT_EQ(indices, (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(prefixes, (std::vector<std::string>{"0.0.0.0/0", "10.1.0.0/16", "10.2.0.0/16"}));
  EXPECT_EQ(labels, (std::vector<uint32_t>{100, 200}));

  EXPECT_FALSE(aft->next_hop(3)->drop);
  EXPECT_EQ(aft->group(2)->next_hops, (std::vector<std::pair<uint64_t, uint64_t>>{{1, 2}}));
  EXPECT_EQ(aft->ipv4_entry(pfx("10.2.0.0/16"))->origin_protocol, "STATIC");
  EXPECT_EQ(aft->forward(addr("10.2.3.4")).size(), 1u);
  EXPECT_EQ(aft->to_json().dump(), expected->to_json().dump());
  EXPECT_EQ(aft->add_next_hop(NextHop{}), 4u);  // the last index plus one
}

TEST(Aft, FromJsonRejectsGarbage) {
  EXPECT_FALSE(Aft::from_json(util::Json(5)).ok());
  util::Json bad = util::Json::object();
  util::Json entries = util::Json::array();
  util::Json entry = util::Json::object();
  entry["prefix"] = "not-a-prefix";
  entry["next-hop-group"] = 1;
  entries.push_back(std::move(entry));
  bad["ipv4-unicast"] = std::move(entries);
  EXPECT_FALSE(Aft::from_json(bad).ok());
}

TEST(DeviceAft, JsonRoundTripWithInterfaces) {
  DeviceAft device;
  device.node = "R1";
  device.aft = sample_aft();
  InterfaceState state;
  state.name = "Ethernet1";
  state.address = net::InterfaceAddress::parse("10.0.0.0/31");
  state.oper_up = true;
  device.interfaces["Ethernet1"] = state;
  InterfaceState down;
  down.name = "Ethernet2";
  down.oper_up = false;
  device.interfaces["Ethernet2"] = down;

  auto restored = DeviceAft::from_json(device.to_json());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->node, "R1");
  EXPECT_EQ(restored->interfaces.size(), 2u);
  EXPECT_TRUE(restored->interfaces.at("Ethernet1").oper_up);
  EXPECT_FALSE(restored->interfaces.at("Ethernet2").oper_up);
  EXPECT_TRUE(restored->aft.forwarding_equal(device.aft));
}

// ---------------------------------------------------------------------------
// json_length() against the dump it counts.

/// Every escape the dump writes ('"', '\\', '\n', '\t', '\r' and bytes
/// below 0x20, NUL among them), then a UTF-8 byte pair it copies as is.
const std::string kEscapes = std::string(" \" \\ \n \t \r \x01\x1f") + '\0' + "\xc3\xa9";

NextHop next_hop(uint64_t index) {
  NextHop nh;
  nh.index = index;
  return nh;
}

/// Reaches every conditional member of Aft::to_json(), and indices, ids
/// and weights at 2^63 and above, which util::Json stores as int64_t and
/// so dumps negative.
Aft json_length_aft() {
  constexpr uint64_t kHigh = uint64_t{1} << 63;
  constexpr uint64_t kMax = ~uint64_t{0};
  NextHop full = next_hop(1);
  full.ip_address = addr("10.0.0.1");
  full.interface = "Ethernet1";
  full.label_op = LabelOp::kPush;
  full.label = 16001;
  NextHop attached = next_hop(2);
  attached.interface = "Ethernet" + kEscapes;
  attached.label_op = LabelOp::kSwap;
  NextHop via = next_hop(3);
  via.ip_address = addr("255.255.255.255");
  via.label_op = LabelOp::kPop;
  via.label = 1048575;
  NextHop drop = next_hop(kHigh);
  drop.drop = true;
  NextHop plain = next_hop(kMax);
  plain.ip_address = addr("0.0.0.0");

  NextHopGroup weighted;
  weighted.id = 1;
  weighted.next_hops = {{1, 1}, {2, 3}, {kHigh, kMax}};
  NextHopGroup empty;
  empty.id = 2;
  NextHopGroup high;
  high.id = kHigh + 5;
  high.next_hops = {{kMax, 100}};

  Aft aft;
  aft.replace_tables({full, attached, via, drop, plain}, {weighted, empty, high},
                     {{pfx("0.0.0.0/0"), kHigh + 5, "STATIC", 0},
                      {pfx("10.1.2.0/24"), 1, "", 4294967295u},
                      {pfx("192.168.100.128/25"), 2, "ISIS" + kEscapes, 20}},
                     {{0, 1}, {1048575, kHigh + 5}});
  return aft;
}

std::vector<AclRule> acl(std::initializer_list<std::pair<bool, const char*>> rules) {
  std::vector<AclRule> out;
  for (const auto& [permit, destination] : rules) {
    AclRule rule;
    rule.permit = permit;
    rule.destination = pfx(destination);
    out.push_back(rule);
  }
  return out;
}

/// Reaches every conditional member of DeviceAft::to_json() and
/// Snapshot::to_json(), with a device that has no interfaces.
gnmi::Snapshot json_length_snapshot() {
  DeviceAft r1;
  r1.node = "R1" + kEscapes;
  r1.aft = json_length_aft();
  r1.instances["blue"] = json_length_aft();
  r1.instances["red" + kEscapes] = Aft();

  InterfaceState up;
  up.name = "Ethernet1";
  up.address = net::InterfaceAddress::parse("10.0.0.1/31");
  up.acl_in = acl({});
  up.acl_out = acl({{true, "0.0.0.0/0"}, {false, "10.1.0.0/16"}});
  InterfaceState down;
  down.name = "Ethernet2";
  down.oper_up = false;
  down.vrf = "blue";
  down.acl_in = acl({{false, "192.168.100.128/25"}});
  down.acl_out = acl({});
  InterfaceState odd;
  odd.name = "Ethernet" + kEscapes;
  odd.address = net::InterfaceAddress::parse("1.2.3.4/32");
  odd.vrf = "red" + kEscapes;
  for (const InterfaceState& state : {up, down, odd}) r1.interfaces[state.name] = state;

  DeviceAft r2;
  r2.node = "R2";

  gnmi::Snapshot snapshot;
  snapshot.name = "what-if" + kEscapes;
  snapshot.devices[r1.node] = r1;
  snapshot.devices[r2.node] = r2;
  return snapshot;
}

TEST(JsonLength, HandBuiltSnapshotMatchesItsDump) {
  gnmi::Snapshot snapshot = json_length_snapshot();
  std::string dump = snapshot.to_json().dump();
  // The fixture reaches what it claims to.
  for (const char* text :
       {R"("index":-9223372036854775808)", R"("weight":-1)", R"("id":-9223372036854775803)",
        R"("label-op":"POP")", R"("drop":true)", R"("acl-in":[])", R"("next-hops":[])",
        R"("address":"10.0.0.1/31")", R"("oper-status":"DOWN")", R"("vrf":"blue")",
        R"("interfaces":[])", R"(\u0000)", R"(\u001f)", R"(\")", R"(\\)", R"(\n)", R"(\t)",
        R"(\r)", "\xc3\xa9"})
    EXPECT_NE(dump.find(text), std::string::npos) << text;

  for (const auto& [node, device] : snapshot.devices) {
    EXPECT_EQ(device.json_length(), device.to_json().dump().size()) << node;
    EXPECT_EQ(device.aft.json_length(), device.aft.to_json().dump().size()) << node;
    for (const auto& [name, instance] : device.instances)
      EXPECT_EQ(instance.json_length(), instance.to_json().dump().size()) << node << " " << name;
  }
  EXPECT_EQ(snapshot.json_length(), dump.size());
}

TEST(JsonLength, EmptyDocumentsMatchTheirDump) {
  EXPECT_EQ(Aft().json_length(), Aft().to_json().dump().size());
  DeviceAft bare;
  EXPECT_EQ(bare.json_length(), bare.to_json().dump().size());
  gnmi::Snapshot empty;
  EXPECT_EQ(empty.json_length(), empty.to_json().dump().size());
  empty.name = "named";
  EXPECT_EQ(empty.json_length(), empty.to_json().dump().size());
}

TEST(LabelOp, NamesRoundTrip) {
  for (LabelOp op : {LabelOp::kNone, LabelOp::kPush, LabelOp::kSwap, LabelOp::kPop})
    EXPECT_EQ(parse_label_op(label_op_name(op)), op);
  EXPECT_FALSE(parse_label_op("JUMP").has_value());
}

}  // namespace
}  // namespace mfv::aft
