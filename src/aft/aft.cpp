#include "aft/aft.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace mfv::aft {

namespace {

/// The record in a key-sorted table whose key is `key`, or null.
template <typename Record, typename Key, typename Field>
const Record* find_record(const std::vector<Record>& table, const Key& key, Field field) {
  auto it = std::ranges::lower_bound(table, key, {}, field);
  return it == table.end() || std::invoke(field, *it) != key ? nullptr : &*it;
}

/// Inserts `record` at its key's place in a key-sorted table, replacing the
/// record with an equal key.
template <typename Record, typename Field>
void set_record(std::vector<Record>& table, Record record, Field field) {
  auto it = std::ranges::lower_bound(table, std::invoke(field, record), {}, field);
  if (it != table.end() && std::invoke(field, *it) == std::invoke(field, record))
    *it = std::move(record);
  else
    table.insert(it, std::move(record));
}

/// Sorts a table parsed in document order by key; of the records sharing a
/// key, the last one parsed stays.
template <typename Record, typename Field>
void sort_keeping_last(std::vector<Record>& table, Field field) {
  std::ranges::stable_sort(table, {}, field);
  auto kept = table.begin();
  for (auto it = table.begin(); it != table.end(); ++it) {
    auto next = std::next(it);
    if (next != table.end() && std::invoke(field, *next) == std::invoke(field, *it)) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  table.erase(kept, table.end());
}

}  // namespace

uint64_t Aft::add_next_hop(NextHop next_hop) {
  std::vector<NextHop>& next_hops = tables_.mutate().next_hops;
  next_hop.index = next_hops.empty() ? 1 : next_hops.back().index + 1;
  next_hops.push_back(std::move(next_hop));
  return next_hops.back().index;
}

uint64_t Aft::add_group(std::vector<std::pair<uint64_t, uint64_t>> weighted_next_hops) {
  std::vector<NextHopGroup>& groups = tables_.mutate().groups;
  NextHopGroup group;
  group.id = groups.empty() ? 1 : groups.back().id + 1;
  group.next_hops = std::move(weighted_next_hops);
  groups.push_back(std::move(group));
  return groups.back().id;
}

void Aft::set_ipv4_entry(Ipv4Entry entry) {
  set_record(tables_.mutate().ipv4_entries, std::move(entry), &Ipv4Entry::prefix);
}

void Aft::set_label_entry(LabelEntry entry) {
  set_record(tables_.mutate().label_entries, entry, &LabelEntry::label);
}

void Aft::replace_tables(std::vector<NextHop> next_hops, std::vector<NextHopGroup> groups,
                         std::vector<Ipv4Entry> ipv4_entries,
                         std::vector<LabelEntry> label_entries) {
  tables_ = Tables{std::move(next_hops), std::move(groups), std::move(ipv4_entries),
                   std::move(label_entries)};
}

const NextHop* Aft::next_hop(uint64_t index) const {
  return find_record(tables_->next_hops, index, &NextHop::index);
}

const NextHopGroup* Aft::group(uint64_t id) const {
  return find_record(tables_->groups, id, &NextHopGroup::id);
}

const Ipv4Entry* Aft::ipv4_entry(const net::Ipv4Prefix& prefix) const {
  return find_record(tables_->ipv4_entries, prefix, &Ipv4Entry::prefix);
}

const LabelEntry* Aft::label_entry(uint32_t label) const {
  return find_record(tables_->label_entries, label, &LabelEntry::label);
}

const Ipv4Entry* Aft::longest_match(net::Ipv4Address destination) const {
  for (int length = 32; length >= 0; --length)
    if (const Ipv4Entry* entry =
            ipv4_entry(net::Ipv4Prefix(destination, static_cast<uint8_t>(length))))
      return entry;
  return nullptr;
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
  if (shares_tables(other)) return true;
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
  for (const Ipv4Entry& entry : tables_->ipv4_entries) {
    const Ipv4Entry* theirs = other.ipv4_entry(entry.prefix);
    if (theirs == nullptr) return false;
    if (resolved(*this, entry.next_hop_group) != resolved(other, theirs->next_hop_group))
      return false;
  }
  for (const LabelEntry& entry : tables_->label_entries) {
    const LabelEntry* theirs = other.label_entry(entry.label);
    if (theirs == nullptr) return false;
    if (resolved(*this, entry.next_hop_group) != resolved(other, theirs->next_hop_group))
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

namespace {

// The json_length() counters mirror to_json() member by member. Compact
// JSON follows every element of an array or object with one separator: a
// ',' before the next element, the closing bracket after the last.

/// Length of `"key":`, a `value`-byte value and the separator after it.
constexpr size_t member(std::string_view key, size_t value) { return key.size() + 4 + value; }

/// Length of an array element of `value` bytes and the separator after it.
constexpr size_t element(size_t value) { return value + 1; }

/// Length of an array or object whose elements, each counted with its
/// separator, add up to `elements` bytes.
constexpr size_t enclosed(size_t elements) { return elements == 0 ? 2 : 1 + elements; }

/// util::Json holds a uint64_t as int64_t, so 2^63 and above dump negative.
size_t id_length(uint64_t id) { return util::json_int_length(static_cast<int64_t>(id)); }

/// Length of Ipv4Address::to_string(): three dots and each octet's digits.
size_t address_length(net::Ipv4Address address) {
  size_t length = 3;
  for (int shift = 24; shift >= 0; shift -= 8) {
    uint32_t octet = (address.bits() >> shift) & 0xFF;
    length += 1 + (octet >= 10) + (octet >= 100);
  }
  return length;
}

/// Length of a quoted "a.b.c.d/len", as Ipv4Prefix and InterfaceAddress
/// write it.
size_t quoted_prefix_length(net::Ipv4Address address, uint8_t prefix_length) {
  return address_length(address) + 1 + util::json_int_length(prefix_length) + 2;
}

}  // namespace

util::Json Aft::to_json() const {
  using util::Json;
  Json afts = Json::object();

  Json next_hops = Json::array();
  for (const NextHop& nh : tables_->next_hops) {
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
  for (const NextHopGroup& group : tables_->groups) {
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
  for (const Ipv4Entry& entry : tables_->ipv4_entries) {
    Json j = Json::object();
    j["prefix"] = entry.prefix.to_string();
    j["next-hop-group"] = entry.next_hop_group;
    j["origin-protocol"] = entry.origin_protocol;
    j["metric"] = entry.metric;
    entries.push_back(std::move(j));
  }
  afts["ipv4-unicast"] = std::move(entries);

  Json labels = Json::array();
  for (const LabelEntry& entry : tables_->label_entries) {
    Json j = Json::object();
    j["label"] = entry.label;
    j["next-hop-group"] = entry.next_hop_group;
    labels.push_back(std::move(j));
  }
  afts["mpls"] = std::move(labels);

  return afts;
}

size_t Aft::json_length() const {
  size_t next_hops = 0;
  for (const NextHop& nh : tables_->next_hops) {
    size_t record = member("index", id_length(nh.index));
    if (nh.ip_address) record += member("ip-address", address_length(*nh.ip_address) + 2);
    if (nh.interface) record += member("interface-ref", util::json_string_length(*nh.interface));
    if (nh.drop) record += member("drop", 4);
    if (nh.label_op != LabelOp::kNone)
      record += member("label-op", label_op_name(nh.label_op).size() + 2) +
                member("label", util::json_int_length(nh.label));
    next_hops += element(enclosed(record));
  }

  size_t groups = 0;
  for (const NextHopGroup& group : tables_->groups) {
    size_t members = 0;
    for (const auto& [index, weight] : group.next_hops)
      members += element(
          enclosed(member("index", id_length(index)) + member("weight", id_length(weight))));
    groups += element(
        enclosed(member("id", id_length(group.id)) + member("next-hops", enclosed(members))));
  }

  size_t entries = 0;
  for (const Ipv4Entry& entry : tables_->ipv4_entries)
    entries += element(enclosed(
        member("prefix", quoted_prefix_length(entry.prefix.address(), entry.prefix.length())) +
        member("next-hop-group", id_length(entry.next_hop_group)) +
        member("origin-protocol", util::json_string_length(entry.origin_protocol)) +
        member("metric", util::json_int_length(entry.metric))));

  size_t labels = 0;
  for (const LabelEntry& entry : tables_->label_entries)
    labels += element(enclosed(member("label", util::json_int_length(entry.label)) +
                               member("next-hop-group", id_length(entry.next_hop_group))));

  return enclosed(member("next-hops", enclosed(next_hops)) +
                  member("next-hop-groups", enclosed(groups)) +
                  member("ipv4-unicast", enclosed(entries)) + member("mpls", enclosed(labels)));
}

util::Result<Aft> Aft::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("AFT document must be an object");
  Aft aft;
  Tables& tables = aft.tables_.mutate();

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
      tables.next_hops.push_back(std::move(nh));
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
      tables.groups.push_back(std::move(group));
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
      tables.ipv4_entries.push_back(std::move(entry));
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
      tables.label_entries.push_back(entry);
    }
  }

  sort_keeping_last(tables.next_hops, &NextHop::index);
  sort_keeping_last(tables.groups, &NextHopGroup::id);
  sort_keeping_last(tables.ipv4_entries, &Ipv4Entry::prefix);
  sort_keeping_last(tables.label_entries, &LabelEntry::label);
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

size_t acl_json_length(const std::vector<AclRule>& rules) {
  size_t elements = 0;
  for (const AclRule& rule : rules)
    elements += element(enclosed(
        member("permit", rule.permit ? 4 : 5) +
        member("destination",
               quoted_prefix_length(rule.destination.address(), rule.destination.length()))));
  return enclosed(elements);
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

size_t DeviceAft::json_length() const {
  size_t interfaces_json = 0;
  for (const auto& [name, state] : interfaces) {
    size_t iface = member("name", util::json_string_length(state.name));
    if (state.address)
      iface += member("address", quoted_prefix_length(state.address->address,
                                                      state.address->subnet.length()));
    iface += member("oper-status", state.oper_up ? 4 : 6);
    if (!state.vrf.empty()) iface += member("vrf", util::json_string_length(state.vrf));
    if (state.acl_in) iface += member("acl-in", acl_json_length(*state.acl_in));
    if (state.acl_out) iface += member("acl-out", acl_json_length(*state.acl_out));
    interfaces_json += element(enclosed(iface));
  }
  size_t length = member("node", util::json_string_length(node)) +
                  member("interfaces", enclosed(interfaces_json)) +
                  member("afts", aft.json_length());
  if (!instances.empty()) {
    // Keyed by instance name: `"<name>":<afts>` and its separator.
    size_t instances_json = 0;
    for (const auto& [name, instance_aft] : instances)
      instances_json += util::json_string_length(name) + 2 + instance_aft.json_length();
    length += member("instances", enclosed(instances_json));
  }
  return enclosed(length);
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
