#include "aft/aft.hpp"

#include <algorithm>
#include <set>

namespace mfv::aft {

uint64_t Aft::add_next_hop(NextHop next_hop) {
  Tables& tables = mutate();
  uint64_t index = tables.next_hop_counter++;
  next_hop.index = index;
  tables.next_hops[index] = std::move(next_hop);
  return index;
}

uint64_t Aft::add_group(std::vector<std::pair<uint64_t, uint64_t>> weighted_next_hops) {
  Tables& tables = mutate();
  uint64_t id = tables.group_counter++;
  NextHopGroup group;
  group.id = id;
  group.next_hops = std::move(weighted_next_hops);
  tables.groups[id] = std::move(group);
  return id;
}

void Aft::set_ipv4_entry(Ipv4Entry entry) {
  Tables& tables = mutate();
  tables.ipv4_entries[entry.prefix] = std::move(entry);
}

void Aft::set_label_entry(LabelEntry entry) { mutate().label_entries[entry.label] = entry; }

void Aft::patch(const std::vector<net::Ipv4Prefix>& erase, std::vector<Ipv4Entry> write,
                std::map<uint64_t, NextHop> next_hops, std::map<uint64_t, NextHopGroup> groups,
                std::map<uint32_t, LabelEntry> labels) {
  // Rebuilt in prefix order instead of cloned and edited: a clone lays its
  // nodes out in tree order, and every later walk of the table (capture,
  // graph build, FIB diff) pays for the scattered reads. Building costs
  // the same allocations a clone would.
  Tables fresh;
  auto& entries = fresh.ipv4_entries;
  auto written = write.begin();
  auto erased = erase.begin();
  for (const auto& [prefix, entry] : tables_->ipv4_entries) {
    for (; written != write.end() && written->prefix < prefix; ++written)
      entries.emplace_hint(entries.end(), written->prefix, std::move(*written));
    while (erased != erase.end() && *erased < prefix) ++erased;
    if (written != write.end() && written->prefix == prefix) {
      entries.emplace_hint(entries.end(), prefix, std::move(*written++));
    } else if (erased == erase.end() || *erased != prefix) {
      entries.emplace_hint(entries.end(), prefix, entry);
    }
  }
  for (; written != write.end(); ++written)
    entries.emplace_hint(entries.end(), written->prefix, std::move(*written));
  fresh.next_hop_counter = next_hops.empty() ? 1 : next_hops.rbegin()->first + 1;
  fresh.group_counter = groups.empty() ? 1 : groups.rbegin()->first + 1;
  fresh.next_hops = std::move(next_hops);
  fresh.groups = std::move(groups);
  fresh.label_entries = std::move(labels);
  tables_ = std::move(fresh);
  trie_valid_ = false;
}

const NextHop* Aft::next_hop(uint64_t index) const {
  auto it = tables_->next_hops.find(index);
  return it == tables_->next_hops.end() ? nullptr : &it->second;
}

const NextHopGroup* Aft::group(uint64_t id) const {
  auto it = tables_->groups.find(id);
  return it == tables_->groups.end() ? nullptr : &it->second;
}

const Ipv4Entry* Aft::ipv4_entry(const net::Ipv4Prefix& prefix) const {
  auto it = tables_->ipv4_entries.find(prefix);
  return it == tables_->ipv4_entries.end() ? nullptr : &it->second;
}

void Aft::rebuild_trie() const {
  trie_.clear();
  for (const auto& [prefix, entry] : tables_->ipv4_entries) trie_.insert(prefix, &entry);
  trie_valid_ = true;
}

const Ipv4Entry* Aft::longest_match(net::Ipv4Address destination) const {
  if (!trie_valid_) rebuild_trie();
  auto match = trie_.longest_match(destination);
  return match ? *match->second : nullptr;
}

std::vector<NextHop> Aft::forward(net::Ipv4Address destination) const {
  const Ipv4Entry* entry = longest_match(destination);
  if (entry == nullptr) return {};
  const NextHopGroup* nhg = group(entry->next_hop_group);
  if (nhg == nullptr) return {};
  std::vector<NextHop> hops;
  for (const auto& [index, weight] : nhg->next_hops) {
    const NextHop* nh = next_hop(index);
    if (nh != nullptr) hops.push_back(*nh);
  }
  return hops;
}

bool Aft::forwarding_equal(const Aft& other) const {
  if (&*tables_ == &*other.tables_) return true;  // shared storage
  if (tables_->ipv4_entries.size() != other.tables_->ipv4_entries.size()) return false;
  if (tables_->label_entries.size() != other.tables_->label_entries.size()) return false;
  auto resolved = [](const Aft& aft, uint64_t group_id) {
    // Canonical, index-free view of one entry's action set.
    std::set<std::tuple<std::string, std::string, bool, int, uint32_t>> actions;
    const NextHopGroup* nhg = aft.group(group_id);
    if (nhg == nullptr) return actions;
    for (const auto& [index, weight] : nhg->next_hops) {
      const NextHop* nh = aft.next_hop(index);
      if (nh == nullptr) continue;
      actions.emplace(nh->ip_address ? nh->ip_address->to_string() : "",
                      nh->interface.value_or(""), nh->drop,
                      static_cast<int>(nh->label_op), nh->label);
    }
    return actions;
  };
  for (const auto& [prefix, entry] : tables_->ipv4_entries) {
    const Ipv4Entry* theirs = other.ipv4_entry(prefix);
    if (theirs == nullptr) return false;
    if (resolved(*this, entry.next_hop_group) != resolved(other, theirs->next_hop_group))
      return false;
  }
  for (const auto& [label, entry] : tables_->label_entries) {
    auto it = other.tables_->label_entries.find(label);
    if (it == other.tables_->label_entries.end()) return false;
    if (resolved(*this, entry.next_hop_group) !=
        resolved(other, it->second.next_hop_group))
      return false;
  }
  return true;
}

std::string label_op_name(LabelOp op) {
  switch (op) {
    case LabelOp::kNone: return "NONE";
    case LabelOp::kPush: return "PUSH";
    case LabelOp::kSwap: return "SWAP";
    case LabelOp::kPop: return "POP";
  }
  return "NONE";
}

std::optional<LabelOp> parse_label_op(std::string_view name) {
  if (name == "NONE") return LabelOp::kNone;
  if (name == "PUSH") return LabelOp::kPush;
  if (name == "SWAP") return LabelOp::kSwap;
  if (name == "POP") return LabelOp::kPop;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// JSON (OpenConfig-shaped)

util::Json Aft::to_json() const {
  using util::Json;
  Json afts = Json::object();

  Json next_hops = Json::array();
  for (const auto& [index, nh] : tables_->next_hops) {
    Json j = Json::object();
    j["index"] = nh.index;
    if (nh.ip_address) j["ip-address"] = nh.ip_address->to_string();
    if (nh.interface) j["interface-ref"] = *nh.interface;
    if (nh.drop) j["drop"] = true;
    if (nh.label_op != LabelOp::kNone) {
      j["label-op"] = label_op_name(nh.label_op);
      j["label"] = nh.label;
    }
    next_hops.push_back(std::move(j));
  }
  afts["next-hops"] = std::move(next_hops);

  Json groups = Json::array();
  for (const auto& [id, group] : tables_->groups) {
    Json j = Json::object();
    j["id"] = group.id;
    Json members = Json::array();
    for (const auto& [index, weight] : group.next_hops) {
      Json member = Json::object();
      member["index"] = index;
      member["weight"] = weight;
      members.push_back(std::move(member));
    }
    j["next-hops"] = std::move(members);
    groups.push_back(std::move(j));
  }
  afts["next-hop-groups"] = std::move(groups);

  Json entries = Json::array();
  for (const auto& [prefix, entry] : tables_->ipv4_entries) {
    Json j = Json::object();
    j["prefix"] = prefix.to_string();
    j["next-hop-group"] = entry.next_hop_group;
    j["origin-protocol"] = entry.origin_protocol;
    j["metric"] = entry.metric;
    entries.push_back(std::move(j));
  }
  afts["ipv4-unicast"] = std::move(entries);

  Json labels = Json::array();
  for (const auto& [label, entry] : tables_->label_entries) {
    Json j = Json::object();
    j["label"] = entry.label;
    j["next-hop-group"] = entry.next_hop_group;
    labels.push_back(std::move(j));
  }
  afts["mpls"] = std::move(labels);

  return afts;
}

util::Result<Aft> Aft::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("AFT document must be an object");
  Aft aft;
  Tables& tables = aft.mutate();

  if (const util::Json* next_hops = json.find("next-hops"); next_hops && next_hops->is_array()) {
    for (const util::Json& j : next_hops->as_array()) {
      NextHop nh;
      const util::Json* index = j.find("index");
      if (index == nullptr) return util::invalid_argument("next-hop missing index");
      nh.index = static_cast<uint64_t>(index->as_int());
      if (const util::Json* ip = j.find("ip-address")) {
        auto address = net::Ipv4Address::parse(ip->as_string());
        if (!address) return util::invalid_argument("bad next-hop ip-address");
        nh.ip_address = *address;
      }
      if (const util::Json* iface = j.find("interface-ref")) nh.interface = iface->as_string();
      if (const util::Json* drop = j.find("drop")) nh.drop = drop->as_bool();
      if (const util::Json* op = j.find("label-op")) {
        auto parsed = parse_label_op(op->as_string());
        if (!parsed) return util::invalid_argument("bad label-op");
        nh.label_op = *parsed;
        if (const util::Json* label = j.find("label"))
          nh.label = static_cast<uint32_t>(label->as_int());
      }
      tables.next_hops[nh.index] = nh;
      tables.next_hop_counter = std::max(tables.next_hop_counter, nh.index + 1);
    }
  }

  if (const util::Json* groups = json.find("next-hop-groups"); groups && groups->is_array()) {
    for (const util::Json& j : groups->as_array()) {
      NextHopGroup group;
      const util::Json* id = j.find("id");
      if (id == nullptr) return util::invalid_argument("next-hop-group missing id");
      group.id = static_cast<uint64_t>(id->as_int());
      if (const util::Json* members = j.find("next-hops"); members && members->is_array()) {
        for (const util::Json& member : members->as_array()) {
          const util::Json* index = member.find("index");
          const util::Json* weight = member.find("weight");
          if (index == nullptr) return util::invalid_argument("group member missing index");
          group.next_hops.emplace_back(
              static_cast<uint64_t>(index->as_int()),
              weight ? static_cast<uint64_t>(weight->as_int()) : 1);
        }
      }
      tables.groups[group.id] = std::move(group);
      tables.group_counter = std::max(tables.group_counter, tables.groups.rbegin()->first + 1);
    }
  }

  if (const util::Json* entries = json.find("ipv4-unicast"); entries && entries->is_array()) {
    for (const util::Json& j : entries->as_array()) {
      Ipv4Entry entry;
      const util::Json* prefix = j.find("prefix");
      const util::Json* nhg = j.find("next-hop-group");
      if (prefix == nullptr || nhg == nullptr)
        return util::invalid_argument("ipv4 entry missing prefix or next-hop-group");
      auto parsed = net::Ipv4Prefix::parse(prefix->as_string());
      if (!parsed) return util::invalid_argument("bad ipv4 entry prefix");
      entry.prefix = *parsed;
      entry.next_hop_group = static_cast<uint64_t>(nhg->as_int());
      if (const util::Json* origin = j.find("origin-protocol"))
        entry.origin_protocol = origin->as_string();
      if (const util::Json* metric = j.find("metric"))
        entry.metric = static_cast<uint32_t>(metric->as_int());
      tables.ipv4_entries[entry.prefix] = std::move(entry);
    }
  }

  if (const util::Json* labels = json.find("mpls"); labels && labels->is_array()) {
    for (const util::Json& j : labels->as_array()) {
      LabelEntry entry;
      const util::Json* label = j.find("label");
      const util::Json* nhg = j.find("next-hop-group");
      if (label == nullptr || nhg == nullptr)
        return util::invalid_argument("label entry missing label or next-hop-group");
      entry.label = static_cast<uint32_t>(label->as_int());
      entry.next_hop_group = static_cast<uint64_t>(nhg->as_int());
      tables.label_entries[entry.label] = entry;
    }
  }

  return aft;
}

bool acl_permits(const std::vector<AclRule>& rules, net::Ipv4Address destination) {
  for (const AclRule& rule : rules)
    if (rule.destination.contains(destination)) return rule.permit;
  return false;
}

namespace {
util::Json acl_to_json(const std::vector<AclRule>& rules) {
  util::Json array = util::Json::array();
  for (const AclRule& rule : rules) {
    util::Json j = util::Json::object();
    j["permit"] = rule.permit;
    j["destination"] = rule.destination.to_string();
    array.push_back(std::move(j));
  }
  return array;
}

util::Result<std::vector<AclRule>> acl_from_json(const util::Json& json) {
  std::vector<AclRule> rules;
  if (!json.is_array()) return util::invalid_argument("acl must be an array");
  for (const util::Json& j : json.as_array()) {
    AclRule rule;
    const util::Json* permit = j.find("permit");
    const util::Json* destination = j.find("destination");
    if (permit == nullptr || destination == nullptr)
      return util::invalid_argument("acl rule missing permit/destination");
    rule.permit = permit->as_bool();
    auto prefix = net::Ipv4Prefix::parse(destination->as_string());
    if (!prefix) return util::invalid_argument("bad acl destination");
    rule.destination = *prefix;
    rules.push_back(rule);
  }
  return rules;
}
}  // namespace

util::Json DeviceAft::to_json() const {
  using util::Json;
  Json j = Json::object();
  j["node"] = node;
  Json interfaces_json = Json::array();
  for (const auto& [name, state] : interfaces) {
    Json iface = Json::object();
    iface["name"] = state.name;
    if (state.address) iface["address"] = state.address->to_string();
    iface["oper-status"] = state.oper_up ? "UP" : "DOWN";
    if (!state.vrf.empty()) iface["vrf"] = state.vrf;
    if (state.acl_in) iface["acl-in"] = acl_to_json(*state.acl_in);
    if (state.acl_out) iface["acl-out"] = acl_to_json(*state.acl_out);
    interfaces_json.push_back(std::move(iface));
  }
  j["interfaces"] = std::move(interfaces_json);
  j["afts"] = aft.to_json();
  if (!instances.empty()) {
    Json instances_json = Json::object();
    for (const auto& [name, instance_aft] : instances)
      instances_json[name] = instance_aft.to_json();
    j["instances"] = std::move(instances_json);
  }
  return j;
}

util::Result<DeviceAft> DeviceAft::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("device AFT must be an object");
  DeviceAft device;
  const util::Json* node = json.find("node");
  if (node == nullptr) return util::invalid_argument("device AFT missing node");
  device.node = node->as_string();
  if (const util::Json* interfaces = json.find("interfaces"); interfaces && interfaces->is_array()) {
    for (const util::Json& j : interfaces->as_array()) {
      InterfaceState state;
      const util::Json* name = j.find("name");
      if (name == nullptr) return util::invalid_argument("interface missing name");
      state.name = name->as_string();
      if (const util::Json* address = j.find("address")) {
        auto parsed = net::InterfaceAddress::parse(address->as_string());
        if (!parsed) return util::invalid_argument("bad interface address");
        state.address = *parsed;
      }
      if (const util::Json* status = j.find("oper-status"))
        state.oper_up = status->as_string() == "UP";
      if (const util::Json* vrf = j.find("vrf")) state.vrf = vrf->as_string();
      if (const util::Json* acl = j.find("acl-in")) {
        auto rules = acl_from_json(*acl);
        if (!rules.ok()) return rules.status();
        state.acl_in = std::move(rules).value();
      }
      if (const util::Json* acl = j.find("acl-out")) {
        auto rules = acl_from_json(*acl);
        if (!rules.ok()) return rules.status();
        state.acl_out = std::move(rules).value();
      }
      device.interfaces[state.name] = std::move(state);
    }
  }
  const util::Json* afts = json.find("afts");
  if (afts == nullptr) return util::invalid_argument("device AFT missing afts");
  auto aft = Aft::from_json(*afts);
  if (!aft.ok()) return aft.status();
  device.aft = std::move(aft).value();
  if (const util::Json* instances = json.find("instances"); instances && instances->is_object()) {
    for (const auto& [name, value] : instances->members()) {
      auto instance_aft = Aft::from_json(value);
      if (!instance_aft.ok()) return instance_aft.status();
      device.instances[name] = std::move(instance_aft).value();
    }
  }
  return device;
}

}  // namespace mfv::aft
