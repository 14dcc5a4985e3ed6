#include "gnmi/gnmi.hpp"

#include "util/strings.hpp"

namespace mfv::gnmi {

namespace {

/// Extracts "Ethernet1" from "interface[name=Ethernet1]".
std::optional<std::string> key_of(std::string_view segment) {
  size_t open = segment.find("[name=");
  if (open == std::string_view::npos) return std::nullopt;
  size_t close = segment.find(']', open);
  if (close == std::string_view::npos) return std::nullopt;
  return std::string(segment.substr(open + 6, close - open - 6));
}

}  // namespace

util::Result<util::Json> GnmiService::get(const net::NodeName& node,
                                          std::string_view path) const {
  const vrouter::VirtualRouter* router = emulation_.router(node);
  if (router == nullptr) return util::not_found("no such target '" + node + "'");

  // Normalize: extract the network-instance name if present.
  std::string normalized(path);
  std::string instance = "default";
  const std::string ni_prefix = "/network-instances/network-instance[name=";
  if (util::starts_with(normalized, ni_prefix)) {
    size_t close = normalized.find(']', ni_prefix.size());
    if (close == std::string::npos)
      return util::invalid_argument("malformed network-instance path");
    instance = normalized.substr(ni_prefix.size(), close - ni_prefix.size());
    normalized = normalized.substr(close + 1);
  }
  if (normalized.empty()) normalized = "/afts";

  std::vector<std::string> segments;
  for (const std::string& segment : util::split(normalized, '/'))
    if (!segment.empty()) segments.push_back(segment);
  if (segments.empty()) return util::invalid_argument("empty path");

  aft::DeviceAft device = router->device_aft();

  if (segments[0] == "afts") {
    const aft::Aft* aft = &device.aft;
    if (instance != "default") {
      auto it = device.instances.find(instance);
      if (it == device.instances.end())
        return util::not_found("no network instance '" + instance + "' on '" + node + "'");
      aft = &it->second;
    }
    util::Json afts = aft->to_json();
    if (segments.size() == 1) return afts;
    const util::Json* subtree = afts.find(segments[1]);
    if (subtree == nullptr)
      return util::not_found("unknown afts subtree '" + segments[1] + "'");
    return *subtree;
  }

  if (segments[0] == "interfaces") {
    util::Json all = device.to_json();
    const util::Json* interfaces = all.find("interfaces");
    if (segments.size() == 1) return *interfaces;
    auto key = key_of(segments[1]);
    if (!key) return util::invalid_argument("expected interface[name=...]");
    for (const util::Json& iface : interfaces->as_array()) {
      const util::Json* name = iface.find("name");
      if (name != nullptr && name->as_string() == *key) return iface;
    }
    return util::not_found("no interface '" + *key + "' on '" + node + "'");
  }

  return util::unimplemented("unsupported path '" + std::string(path) + "'");
}

void GnmiSubscriber::add(const net::NodeName& node, std::string path,
                         SubscriptionMode mode) {
  entries_.push_back({node, std::move(path), mode, std::nullopt});
}

std::vector<SubscriptionUpdate> GnmiSubscriber::run(util::Duration duration,
                                                    util::Duration interval) {
  std::vector<SubscriptionUpdate> collected;
  util::TimePoint end = emulation_.kernel().now() + duration;
  while (emulation_.kernel().now() < end) {
    emulation_.kernel().run_for(interval);
    for (Entry& entry : entries_) {
      auto payload = service_.get(entry.node, entry.path);
      if (!payload.ok()) continue;  // node gone / bad path: skip this poll
      std::string digest = payload->dump();
      if (entry.mode == SubscriptionMode::kOnChange && entry.last_payload == digest)
        continue;
      entry.last_payload = digest;
      SubscriptionUpdate update;
      update.timestamp = emulation_.kernel().now();
      update.node = entry.node;
      update.path = entry.path;
      update.payload = std::move(payload).value();
      collected.push_back(update);
      updates_.push_back(std::move(update));
    }
  }
  return collected;
}

Snapshot Snapshot::capture(const emu::Emulation& emulation, std::string name) {
  Snapshot snapshot;
  snapshot.name = std::move(name);
  for (aft::DeviceAft& device : emulation.dump_afts())
    snapshot.devices[device.node] = std::move(device);
  return snapshot;
}

size_t Snapshot::total_entries() const {
  size_t total = 0;
  for (const auto& [node, device] : devices) total += device.aft.entry_count();
  return total;
}

util::Json Snapshot::to_json() const {
  util::Json j = util::Json::object();
  j["name"] = name;
  util::Json devices_json = util::Json::array();
  for (const auto& [node, device] : devices) devices_json.push_back(device.to_json());
  j["devices"] = std::move(devices_json);
  return j;
}

size_t Snapshot::json_length() const {
  // {"name":<name>,"devices":[<device>,<device>]}: each device counted with
  // the ',' or ']' after it.
  size_t devices_json = devices.empty() ? 2 : 1;
  for (const auto& [node, device] : devices) devices_json += device.json_length() + 1;
  return std::string_view(R"({"name":,"devices":})").size() + util::json_string_length(name) +
         devices_json;
}

util::Result<Snapshot> Snapshot::from_json(const util::Json& json) {
  if (!json.is_object()) return util::invalid_argument("snapshot must be an object");
  Snapshot snapshot;
  if (const util::Json* name = json.find("name")) snapshot.name = name->as_string();
  const util::Json* devices = json.find("devices");
  if (devices == nullptr || !devices->is_array())
    return util::invalid_argument("snapshot missing devices array");
  for (const util::Json& d : devices->as_array()) {
    auto device = aft::DeviceAft::from_json(d);
    if (!device.ok()) return device.status();
    snapshot.devices[device->node] = std::move(device).value();
  }
  return snapshot;
}

util::Result<Snapshot> Snapshot::from_json_text(std::string_view text) {
  auto json = util::Json::parse(text);
  if (!json) return util::invalid_argument("snapshot JSON syntax error");
  return from_json(*json);
}

}  // namespace mfv::gnmi
