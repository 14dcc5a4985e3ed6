#include "fuzz/fuzz.hpp"

#include <utility>

#include "config/dialect.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace mfv::fuzz {

namespace {

/// Dedicated RNG streams so adding draws to one generation stage never
/// shifts another stage's bytes for the same seed.
constexpr uint64_t kStreamShape = 0xF022;
constexpr uint64_t kStreamLiterals = 0xF023;
constexpr uint64_t kStreamPerturb = 0xF024;
constexpr uint64_t kStreamSynth = 0xF025;

std::string random_quad(util::Pcg32& rng) {
  return std::to_string(rng.next_below(256)) + "." + std::to_string(rng.next_below(256)) +
         "." + std::to_string(rng.next_below(256)) + "." +
         std::to_string(rng.next_below(256));
}

/// A literal that is usually canonical but sometimes carries one of the
/// classic parser traps: leading-zero octets (octal ambiguity),
/// out-of-range octets, non-canonical or overflowing mask text, trailing
/// garbage, embedded sign characters.
std::string mutate_literal(util::Pcg32& rng) {
  std::string text = random_quad(rng);
  switch (rng.next_below(8)) {
    case 0:  // leading zero on one octet: "10.0.0.01"
      for (size_t i = 0, dot = rng.next_below(4), seen = 0; i <= text.size(); ++i)
        if (i == 0 || i == text.size() || text[i] == '.') {
          if (seen++ == dot) {
            text.insert(i == 0 ? 0 : i + 1, "0");
            break;
          }
        }
      break;
    case 1:  // out-of-range octet
      text = std::to_string(256 + rng.next_below(744)) + text.substr(text.find('.'));
      break;
    case 2:  // non-canonical mask
      text += rng.next_below(2) ? "/032" : "/00";
      break;
    case 3:  // overflowing or empty mask
      text += rng.next_below(2) ? "/4294967298" : "/";
      break;
    case 4:  // trailing garbage
      text += rng.next_below(2) ? " " : ".";
      break;
    case 5:  // sign characters parse_uint-style readers may tolerate
      text.insert(rng.next_below(text.size()), "+");
      break;
    case 6:  // canonical prefix form
      text += "/" + std::to_string(rng.next_below(33));
      break;
    default:  // canonical plain address
      break;
  }
  return text;
}

/// Picks the first usable Ethernet-side interface address of a node, by
/// parsing its config in its own dialect. nullopt when the node has none.
std::optional<net::Ipv4Address> node_interface_address(const emu::NodeSpec& node) {
  config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
  for (const auto& [name, iface] : parsed.config.interfaces)
    if (!iface.is_loopback() && iface.address) return iface.address->address;
  return std::nullopt;
}

/// Injects a mutual static-route loop between two routers: both claim the
/// same dark prefix and point it at each other. A converged control plane
/// rarely produces forwarding loops on its own; this plants the loop bug
/// surface (multi-node cycles, cache taint) into emulated dataplanes.
void inject_static_loop(emu::Topology& topology, util::Pcg32& rng) {
  if (topology.nodes.size() < 2) return;
  size_t a = rng.next_below(static_cast<uint32_t>(topology.nodes.size()));
  size_t b = rng.next_below(static_cast<uint32_t>(topology.nodes.size()));
  if (a == b) b = (b + 1) % topology.nodes.size();
  auto addr_a = node_interface_address(topology.nodes[a]);
  auto addr_b = node_interface_address(topology.nodes[b]);
  if (!addr_a || !addr_b) return;
  auto dark = net::Ipv4Prefix::parse("203.0.113.0/24");
  auto add_route = [&](emu::NodeSpec& node, net::Ipv4Address via) {
    config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
    config::StaticRoute route;
    route.prefix = *dark;
    route.next_hop = via;
    parsed.config.static_routes.push_back(route);
    node.config_text = config::write_config(parsed.config);
  };
  add_route(topology.nodes[a], *addr_b);
  add_route(topology.nodes[b], *addr_a);
}

/// Prepends a '0' to one address octet somewhere in the config text — the
/// accepted-but-reinterpreted literal a strict parser must reject. The
/// mutation lands in the raw bytes, so the canonicalization scan sees it
/// whether or not the dialect parser keeps the line.
void mutate_config_literal(std::string& text, util::Pcg32& rng) {
  std::vector<size_t> spots;
  for (size_t i = 3; i + 1 < text.size(); ++i)
    if (text[i] == '.' && text[i + 1] >= '1' && text[i + 1] <= '9' &&
        text[i - 1] >= '0' && text[i - 1] <= '9')
      spots.push_back(i + 1);
  if (spots.empty()) return;
  text.insert(spots[rng.next_below(static_cast<uint32_t>(spots.size()))], "0");
}

std::vector<scenario::Perturbation> random_perturbations(const emu::Topology& topology,
                                                         util::Pcg32& rng) {
  std::vector<scenario::Perturbation> out;
  size_t count = rng.next_below(4);  // 0..3
  bool have_cut = false;
  scenario::LinkCut last_cut;
  for (size_t i = 0; i < count; ++i) {
    switch (rng.next_below(4)) {
      case 0: {
        if (topology.links.empty()) break;
        const emu::LinkSpec& link =
            topology.links[rng.next_below(static_cast<uint32_t>(topology.links.size()))];
        last_cut = scenario::LinkCut{link.a, link.b};
        have_cut = true;
        out.push_back(last_cut);
        break;
      }
      case 1: {
        if (!have_cut) break;  // restores only make sense after a cut
        out.push_back(scenario::LinkRestore{last_cut.a, last_cut.b});
        break;
      }
      case 2: {
        if (topology.nodes.empty()) break;
        const emu::NodeSpec& node =
            topology.nodes[rng.next_below(static_cast<uint32_t>(topology.nodes.size()))];
        config::ParseResult parsed = config::parse_config(node.config_text, node.vendor);
        config::StaticRoute route;
        route.prefix = net::Ipv4Prefix(net::Ipv4Address(198, 18, rng.next_below(256), 0), 24);
        route.null_route = true;
        parsed.config.static_routes.push_back(route);
        out.push_back(scenario::ConfigReplace{node.name,
                                              config::write_config(parsed.config),
                                              node.vendor});
        break;
      }
      default: {
        if (topology.external_peers.empty()) break;
        const emu::ExternalPeerSpec& peer = topology.external_peers[rng.next_below(
            static_cast<uint32_t>(topology.external_peers.size()))];
        out.push_back(scenario::RouteWithdraw{peer.name, {}});
        break;
      }
    }
  }
  return out;
}

FuzzCase generate_wan_case(uint64_t seed, util::Pcg32& rng) {
  FuzzCase out;
  out.seed = seed;
  out.mode = Mode::kWan;

  workload::WanOptions options;
  options.seed = seed;
  options.routers = static_cast<int>(3 + rng.next_below(4));  // 3..6
  options.extra_chords = static_cast<int>(rng.next_below(3));
  options.line = rng.next_below(4) == 0;
  uint32_t dialect_mix = rng.next_below(3);
  options.vjun_fraction = dialect_mix == 0 ? 0.0 : (dialect_mix == 1 ? 0.5 : 1.0);
  options.mpls = rng.next_below(2) == 1;
  options.igp = rng.next_below(2) == 1 ? workload::WanOptions::Igp::kOspf
                                       : workload::WanOptions::Igp::kIsis;
  if (rng.next_below(3) == 0) {
    options.border_count = 1;
    options.routes_per_peer = 4 + rng.next_below(13);
    options.ibgp_mesh = true;
  }
  out.topology = workload::wan_topology(options);

  if (rng.next_below(2) == 1) inject_static_loop(out.topology, rng);
  if (rng.next_below(3) == 0 && !out.topology.nodes.empty()) {
    emu::NodeSpec& victim = out.topology.nodes[rng.next_below(
        static_cast<uint32_t>(out.topology.nodes.size()))];
    mutate_config_literal(victim.config_text, rng);
  }

  util::Pcg32 perturb_rng(seed, kStreamPerturb);
  out.perturbations = random_perturbations(out.topology, perturb_rng);
  return out;
}

}  // namespace

std::string mode_name(Mode mode) {
  return mode == Mode::kWan ? "wan" : "synthetic";
}

std::string oracle_name(uint32_t oracle) {
  switch (oracle) {
    case kOracleEngines:
      return "engines";
    case kOracleFork:
      return "fork";
    case kOracleStore:
      return "store";
    case kOracleDialect:
      return "dialect";
    case kOracleSharded:
      return "sharded";
    case kOracleIncremental:
      return "incremental";
    case kOracleExplore:
      return "explore";
    case kOracleFib:
      return "fib";
    case kOracleAll:
      return "all";
    default:
      return "oracle-" + std::to_string(oracle);
  }
}

std::optional<uint32_t> parse_oracle(std::string_view name) {
  if (name == "engines") return kOracleEngines;
  if (name == "fork") return kOracleFork;
  if (name == "store") return kOracleStore;
  if (name == "dialect") return kOracleDialect;
  if (name == "sharded") return kOracleSharded;
  if (name == "incremental") return kOracleIncremental;
  if (name == "explore") return kOracleExplore;
  if (name == "fib") return kOracleFib;
  if (name == "all") return kOracleAll;
  return std::nullopt;
}

uint32_t FuzzCase::oracles() const {
  uint32_t mask = 0;
  if (!snapshot.devices.empty()) mask |= kOracleEngines | kOracleIncremental;
  if (!topology.nodes.empty())
    mask |= kOracleEngines | kOracleFork | kOracleStore | kOracleDialect | kOracleSharded |
            kOracleIncremental | kOracleExplore | kOracleFib;
  if (!literals.empty()) mask |= kOracleDialect;
  return mask;
}

util::Json FuzzCase::to_json() const {
  util::Json json = util::Json::object();
  json["seed"] = static_cast<uint64_t>(seed);
  json["mode"] = mode_name(mode);
  if (!topology.nodes.empty()) json["topology"] = topology.to_json();
  if (!perturbations.empty()) {
    util::Json list = util::Json::array();
    for (const scenario::Perturbation& perturbation : perturbations)
      list.push_back(scenario::perturbation_to_json(perturbation));
    json["perturbations"] = std::move(list);
  }
  if (!snapshot.devices.empty()) json["snapshot"] = snapshot.to_json();
  if (!literals.empty()) {
    util::Json list = util::Json::array();
    for (const std::string& literal : literals) list.push_back(literal);
    json["literals"] = std::move(list);
  }
  return json;
}

util::Result<FuzzCase> FuzzCase::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("fuzz case must be an object");
  FuzzCase out;
  if (const util::Json* seed = json.find("seed"); seed != nullptr)
    out.seed = static_cast<uint64_t>(seed->as_int());
  if (const util::Json* mode = json.find("mode"); mode != nullptr)
    out.mode = mode->as_string() == "wan" ? Mode::kWan : Mode::kSynthetic;
  if (const util::Json* topology = json.find("topology"); topology != nullptr) {
    auto parsed = emu::Topology::from_json(*topology);
    if (!parsed.ok()) return parsed.status();
    out.topology = std::move(parsed.value());
  }
  if (const util::Json* perturbations = json.find("perturbations");
      perturbations != nullptr) {
    auto parsed = scenario::perturbations_from_json(*perturbations);
    if (!parsed.ok()) return parsed.status();
    out.perturbations = std::move(parsed.value());
  }
  if (const util::Json* snapshot = json.find("snapshot"); snapshot != nullptr) {
    auto parsed = gnmi::Snapshot::from_json(*snapshot);
    if (!parsed.ok()) return parsed.status();
    out.snapshot = std::move(parsed.value());
  }
  if (const util::Json* literals = json.find("literals");
      literals != nullptr && literals->is_array()) {
    for (const util::Json& literal : literals->as_array())
      out.literals.push_back(literal.as_string());
  }
  return out;
}

util::Result<FuzzCase> FuzzCase::from_json_text(std::string_view text) {
  auto json = util::Json::parse_checked(text);
  if (!json.ok()) return json.status();
  return from_json(json.value());
}

gnmi::Snapshot synth_snapshot(uint64_t seed) {
  util::Pcg32 rng(seed, kStreamSynth);
  gnmi::Snapshot snapshot;
  snapshot.name = "snap";

  uint32_t device_count = 3 + rng.next_below(4);  // 3..6
  bool labels = rng.next_below(5) != 0;           // most cases carry MPLS state
  uint32_t label_count = 2 + rng.next_below(3);   // labels 1..label_count

  std::vector<net::NodeName> names;
  std::vector<net::Ipv4Address> addresses;
  for (uint32_t i = 0; i < device_count; ++i) {
    names.push_back("d" + std::to_string(i));
    addresses.push_back(net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  // One device may own the probe destination; when none does, every path
  // ends in no-route/subnet/loop outcomes — also worth checking.
  std::optional<uint32_t> sink;
  if (rng.next_below(10) < 7) sink = rng.next_below(device_count);

  const net::Ipv4Address destination(99, 0, 0, 1);
  const std::vector<net::Ipv4Prefix> prefix_pool = {
      net::Ipv4Prefix(net::Ipv4Address(99, 0, 0, 0), 8),
      net::Ipv4Prefix(net::Ipv4Address(99, 0, 0, 0), 16),
      net::Ipv4Prefix(destination, 32),
      net::Ipv4Prefix(net::Ipv4Address(0, 0, 0, 0), 0),
  };

  for (uint32_t i = 0; i < device_count; ++i) {
    aft::DeviceAft device;
    device.node = names[i];

    aft::InterfaceState eth;
    eth.name = "Ethernet0";
    eth.address = net::InterfaceAddress{addresses[i],
                                        net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24)};
    eth.oper_up = rng.next_below(10) != 0;  // occasionally down
    if (rng.next_below(10) < 3) {
      // Random egress/ingress filter over the probe space.
      std::vector<aft::AclRule> rules;
      rules.push_back(aft::AclRule{rng.next_below(2) == 0,
                                   net::Ipv4Prefix(net::Ipv4Address(99, 0, 0, 0), 8)});
      rules.push_back(aft::AclRule{true, net::Ipv4Prefix()});  // any
      if (rng.next_below(2) == 0)
        eth.acl_out = rules;
      else
        eth.acl_in = rules;
    }
    device.interfaces[eth.name] = eth;

    aft::InterfaceState loop;
    loop.name = "Loopback0";
    loop.address = net::InterfaceAddress{
        net::Ipv4Address(10, 255, 0, static_cast<uint8_t>(i + 1)),
        net::Ipv4Prefix(net::Ipv4Address(10, 255, 0, static_cast<uint8_t>(i + 1)), 32)};
    device.interfaces[loop.name] = loop;

    if (sink && *sink == i) {
      aft::InterfaceState owner;
      owner.name = "Loopback1";
      owner.address =
          net::InterfaceAddress{destination, net::Ipv4Prefix(destination, 32)};
      device.interfaces[owner.name] = owner;
    }

    // Random IP entries over the probe prefixes. Next hops point at other
    // devices (sometimes pushing a label), drop, dangle, or go attached.
    uint32_t entry_count = 1 + rng.next_below(3);
    for (uint32_t e = 0; e < entry_count; ++e) {
      const net::Ipv4Prefix& prefix =
          prefix_pool[rng.next_below(static_cast<uint32_t>(prefix_pool.size()))];
      uint32_t fan = 1 + rng.next_below(2);
      std::vector<std::pair<uint64_t, uint64_t>> members;
      for (uint32_t h = 0; h < fan; ++h) {
        aft::NextHop hop;
        uint32_t kind = rng.next_below(10);
        if (kind == 0) {
          hop.drop = true;
        } else if (kind == 1) {
          hop.interface = "Ethernet0";  // attached, no resolved address
        } else if (kind == 2) {
          hop.ip_address = net::Ipv4Address(172, 16, 0, 9);  // nobody owns this
          hop.interface = "Ethernet0";
        } else {
          hop.ip_address = addresses[rng.next_below(device_count)];
          hop.interface = "Ethernet0";
          if (labels && rng.next_below(10) < 4) {
            hop.label_op = aft::LabelOp::kPush;
            hop.label = 1 + rng.next_below(label_count);
          }
        }
        members.emplace_back(device.aft.add_next_hop(hop), 1);
      }
      aft::Ipv4Entry entry;
      entry.prefix = prefix;
      entry.next_hop_group = device.aft.add_group(std::move(members));
      entry.origin_protocol = "STATIC";
      device.aft.set_ipv4_entry(entry);
    }

    // Random label table: swap chains between devices with occasional
    // pops. Pops resume IP forwarding on the same node, so IP entries and
    // label entries compose into cycles spanning multiple label states.
    if (labels) {
      for (uint32_t label = 1; label <= label_count; ++label) {
        if (rng.next_below(10) >= 7) continue;
        aft::NextHop hop;
        if (rng.next_below(10) < 3) {
          hop.label_op = aft::LabelOp::kPop;
          hop.interface = "Ethernet0";
        } else {
          hop.label_op = aft::LabelOp::kSwap;
          hop.label = 1 + rng.next_below(label_count);
          hop.ip_address = addresses[rng.next_below(device_count)];
          hop.interface = "Ethernet0";
        }
        aft::LabelEntry entry;
        entry.label = label;
        entry.next_hop_group = device.aft.add_group(device.aft.add_next_hop(hop));
        device.aft.set_label_entry(entry);
      }
    }

    snapshot.devices[device.node] = std::move(device);
  }
  return snapshot;
}

FuzzCase generate_case(uint64_t seed) {
  util::Pcg32 rng(seed, kStreamShape);
  FuzzCase out;
  if (rng.next_below(2) == 0) {
    out.seed = seed;
    out.mode = Mode::kSynthetic;
    out.snapshot = synth_snapshot(seed);
  } else {
    out = generate_wan_case(seed, rng);
  }
  util::Pcg32 literal_rng(seed, kStreamLiterals);
  uint32_t literal_count = 4 + literal_rng.next_below(5);
  for (uint32_t i = 0; i < literal_count; ++i)
    out.literals.push_back(mutate_literal(literal_rng));
  return out;
}

}  // namespace mfv::fuzz
