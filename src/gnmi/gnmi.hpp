// gNMI-style management access to the emulated routers.
//
// Models the vendor-agnostic extraction step of §4.1: after convergence,
// the pipeline issues Get requests against OpenConfig-shaped paths on every
// device and assembles a Snapshot — the dataplane input handed to the
// verification engine in place of a model-derived dataplane. Transport is
// in-process (no gRPC), but path semantics and JSON payload shapes follow
// the OpenConfig AFT model.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "aft/aft.hpp"
#include "emu/emulation.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace mfv::gnmi {

/// Read-only Get service over a running emulation.
class GnmiService {
 public:
  explicit GnmiService(const emu::Emulation& emulation) : emulation_(emulation) {}

  /// Supported paths:
  ///   /network-instances/network-instance[name=default]/afts
  ///   /afts                      (shorthand for the above)
  ///   /afts/ipv4-unicast
  ///   /afts/next-hop-groups
  ///   /afts/next-hops
  ///   /afts/mpls
  ///   /interfaces
  ///   /interfaces/interface[name=<ifname>]/state
  util::Result<util::Json> get(const net::NodeName& node, std::string_view path) const;

  /// Device list (the management-plane inventory).
  std::vector<net::NodeName> list_targets() const { return emulation_.node_names(); }

 private:
  const emu::Emulation& emulation_;
};

// ---------------------------------------------------------------------------
// Subscriptions (gNMI Subscribe: SAMPLE / ON_CHANGE)

enum class SubscriptionMode {
  kSample,    // emit the payload at every poll interval
  kOnChange,  // emit only when the payload differs from the previous poll
};

struct SubscriptionUpdate {
  util::TimePoint timestamp;
  net::NodeName node;
  std::string path;
  util::Json payload;
};

/// Collects streaming telemetry from the emulated devices: registers
/// (node, path, mode) subscriptions and drives virtual time forward in
/// poll intervals, recording updates — the telemetry-collection analogue
/// of the paper's gNMI usage. Polling happens from the outside (like a
/// real collector), so it composes with any emulation state.
class GnmiSubscriber {
 public:
  explicit GnmiSubscriber(emu::Emulation& emulation)
      : emulation_(emulation), service_(emulation) {}

  /// Registers a subscription. Unknown nodes/paths surface as errors at
  /// run() time, matching gNMI's per-update error semantics.
  void add(const net::NodeName& node, std::string path,
           SubscriptionMode mode = SubscriptionMode::kOnChange);

  /// Advances the emulation by `duration`, polling every `interval`.
  /// Returns the updates collected during this run (also appended to
  /// `updates()`).
  std::vector<SubscriptionUpdate> run(util::Duration duration, util::Duration interval);

  const std::vector<SubscriptionUpdate>& updates() const { return updates_; }

 private:
  struct Entry {
    net::NodeName node;
    std::string path;
    SubscriptionMode mode;
    std::optional<std::string> last_payload;  // dump() digest for on-change
  };

  emu::Emulation& emulation_;
  GnmiService service_;
  std::vector<Entry> entries_;
  std::vector<SubscriptionUpdate> updates_;
};

/// A converged-dataplane snapshot: what the verification stage consumes.
struct Snapshot {
  std::string name;
  std::map<net::NodeName, aft::DeviceAft> devices;

  /// Pulls AFTs + interface state from every device via the gNMI paths.
  static Snapshot capture(const emu::Emulation& emulation, std::string name = "snapshot");

  size_t total_entries() const;

  bool operator==(const Snapshot&) const = default;

  util::Json to_json() const;
  /// to_json().dump().size(), counted without building the document: the
  /// snapshot store's retention charge.
  size_t json_length() const;
  static util::Result<Snapshot> from_json(const util::Json& json);
  static util::Result<Snapshot> from_json_text(std::string_view text);
};

}  // namespace mfv::gnmi
