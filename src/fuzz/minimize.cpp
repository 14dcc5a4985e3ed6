#include "fuzz/minimize.hpp"

#include <map>
#include <utility>

#include "fuzz/oracles.hpp"
#include "util/strings.hpp"

namespace mfv::fuzz {

namespace {

/// Copies an Aft, optionally dropping one IPv4 or label entry. Next-hop
/// and group indices are re-assigned; dangling references are preserved
/// as-is (the walker already treats them as unreachable).
aft::Aft copy_aft_excluding(const aft::Aft& in, const net::Ipv4Prefix* drop_prefix,
                            const uint32_t* drop_label) {
  aft::Aft out;
  std::map<uint64_t, uint64_t> hop_map;
  for (const aft::NextHop& hop : in.next_hops()) hop_map[hop.index] = out.add_next_hop(hop);
  std::map<uint64_t, uint64_t> group_map;
  for (const aft::NextHopGroup& group : in.groups()) {
    std::vector<std::pair<uint64_t, uint64_t>> members;
    for (const auto& [hop, weight] : group.next_hops) {
      auto it = hop_map.find(hop);
      members.emplace_back(it != hop_map.end() ? it->second : hop, weight);
    }
    group_map[group.id] = out.add_group(std::move(members));
  }
  auto mapped_group = [&group_map](uint64_t id) {
    auto it = group_map.find(id);
    return it != group_map.end() ? it->second : id;
  };
  for (const aft::Ipv4Entry& entry : in.ipv4_entries()) {
    if (drop_prefix != nullptr && entry.prefix == *drop_prefix) continue;
    aft::Ipv4Entry copy = entry;
    copy.next_hop_group = mapped_group(entry.next_hop_group);
    out.set_ipv4_entry(copy);
  }
  for (const aft::LabelEntry& entry : in.label_entries()) {
    if (drop_label != nullptr && entry.label == *drop_label) continue;
    aft::LabelEntry copy = entry;
    copy.next_hop_group = mapped_group(entry.next_hop_group);
    out.set_label_entry(copy);
  }
  return out;
}

class Reducer {
 public:
  Reducer(FuzzCase current, const std::function<bool(const FuzzCase&)>& still_fails,
          MinimizeStats& stats, size_t budget)
      : current_(std::move(current)), still_fails_(still_fails), stats_(stats),
        budget_(budget) {}

  FuzzCase run() {
    bool progressed = true;
    while (progressed && stats_.attempts < budget_) {
      progressed = false;
      progressed |= shrink_perturbations();
      progressed |= shrink_peers();
      progressed |= shrink_nodes();
      progressed |= shrink_links();
      progressed |= shrink_config_lines();
      progressed |= shrink_devices();
      progressed |= shrink_aft_entries();
      progressed |= shrink_literals();
    }
    return std::move(current_);
  }

 private:
  /// Commits `candidate` if the failure survives it.
  bool accept(FuzzCase candidate) {
    if (stats_.attempts >= budget_) return false;
    ++stats_.attempts;
    if (!still_fails_(candidate)) return false;
    current_ = std::move(candidate);
    ++stats_.accepted;
    return true;
  }

  bool shrink_perturbations() {
    bool progressed = false;
    if (!current_.perturbations.empty()) {
      FuzzCase candidate = current_;
      candidate.perturbations.clear();
      progressed |= accept(std::move(candidate));
    }
    for (size_t i = 0; i < current_.perturbations.size();) {
      FuzzCase candidate = current_;
      candidate.perturbations.erase(candidate.perturbations.begin() +
                                    static_cast<ptrdiff_t>(i));
      if (accept(std::move(candidate)))
        progressed = true;
      else
        ++i;
    }
    return progressed;
  }

  bool shrink_peers() {
    bool progressed = false;
    for (size_t i = 0; i < current_.topology.external_peers.size();) {
      FuzzCase candidate = current_;
      candidate.topology.external_peers.erase(
          candidate.topology.external_peers.begin() + static_cast<ptrdiff_t>(i));
      if (accept(std::move(candidate)))
        progressed = true;
      else
        ++i;
    }
    return progressed;
  }

  bool shrink_nodes() {
    bool progressed = false;
    for (size_t i = 0; i < current_.topology.nodes.size();) {
      FuzzCase candidate = current_;
      net::NodeName victim = candidate.topology.nodes[i].name;
      candidate.topology.nodes.erase(candidate.topology.nodes.begin() +
                                     static_cast<ptrdiff_t>(i));
      std::erase_if(candidate.topology.links, [&victim](const emu::LinkSpec& link) {
        return link.a.node == victim || link.b.node == victim;
      });
      std::erase_if(candidate.topology.external_peers,
                    [&victim](const emu::ExternalPeerSpec& peer) {
                      return peer.attach_node == victim;
                    });
      if (accept(std::move(candidate)))
        progressed = true;
      else
        ++i;
    }
    return progressed;
  }

  bool shrink_links() {
    bool progressed = false;
    for (size_t i = 0; i < current_.topology.links.size();) {
      FuzzCase candidate = current_;
      candidate.topology.links.erase(candidate.topology.links.begin() +
                                     static_cast<ptrdiff_t>(i));
      if (accept(std::move(candidate)))
        progressed = true;
      else
        ++i;
    }
    return progressed;
  }

  bool shrink_config_lines() {
    bool progressed = false;
    for (size_t n = 0; n < current_.topology.nodes.size(); ++n) {
      std::vector<std::string> lines =
          util::split(current_.topology.nodes[n].config_text, '\n');
      for (size_t i = 0; i < lines.size();) {
        std::string joined;
        for (size_t j = 0; j < lines.size(); ++j) {
          if (j == i) continue;
          joined += lines[j];
          joined += '\n';
        }
        FuzzCase candidate = current_;
        candidate.topology.nodes[n].config_text = joined;
        if (accept(std::move(candidate))) {
          lines.erase(lines.begin() + static_cast<ptrdiff_t>(i));
          progressed = true;
        } else {
          ++i;
        }
      }
    }
    return progressed;
  }

  bool shrink_devices() {
    bool progressed = false;
    for (auto it = current_.snapshot.devices.begin();
         it != current_.snapshot.devices.end();) {
      FuzzCase candidate = current_;
      candidate.snapshot.devices.erase(it->first);
      if (accept(std::move(candidate))) {
        it = current_.snapshot.devices.begin();
        progressed = true;
      } else {
        ++it;
      }
    }
    return progressed;
  }

  bool shrink_aft_entries() {
    bool progressed = false;
    // Name lists are materialized up front: accept() replaces current_,
    // invalidating any iterator into it.
    std::vector<net::NodeName> nodes;
    for (const auto& [node, device] : current_.snapshot.devices) nodes.push_back(node);
    for (const net::NodeName& node : nodes) {
      std::vector<net::Ipv4Prefix> prefixes;
      for (const aft::Ipv4Entry& entry : current_.snapshot.devices.at(node).aft.ipv4_entries())
        prefixes.push_back(entry.prefix);
      for (const net::Ipv4Prefix& prefix : prefixes) {
        FuzzCase candidate = current_;
        candidate.snapshot.devices[node].aft =
            copy_aft_excluding(current_.snapshot.devices.at(node).aft, &prefix, nullptr);
        progressed |= accept(std::move(candidate));
      }
      std::vector<uint32_t> labels;
      for (const aft::LabelEntry& entry : current_.snapshot.devices.at(node).aft.label_entries())
        labels.push_back(entry.label);
      for (uint32_t label : labels) {
        FuzzCase candidate = current_;
        candidate.snapshot.devices[node].aft =
            copy_aft_excluding(current_.snapshot.devices.at(node).aft, nullptr, &label);
        progressed |= accept(std::move(candidate));
      }
      // Filters off, one interface at a time.
      std::vector<net::InterfaceName> filtered;
      for (const auto& [name, iface] : current_.snapshot.devices.at(node).interfaces)
        if (iface.acl_in || iface.acl_out) filtered.push_back(name);
      for (const net::InterfaceName& name : filtered) {
        FuzzCase candidate = current_;
        aft::InterfaceState& target = candidate.snapshot.devices[node].interfaces[name];
        target.acl_in.reset();
        target.acl_out.reset();
        progressed |= accept(std::move(candidate));
      }
    }
    return progressed;
  }

  bool shrink_literals() {
    bool progressed = false;
    for (size_t i = 0; i < current_.literals.size();) {
      FuzzCase candidate = current_;
      candidate.literals.erase(candidate.literals.begin() + static_cast<ptrdiff_t>(i));
      if (accept(std::move(candidate)))
        progressed = true;
      else
        ++i;
    }
    return progressed;
  }

  FuzzCase current_;
  const std::function<bool(const FuzzCase&)>& still_fails_;
  MinimizeStats& stats_;
  size_t budget_;
};

}  // namespace

FuzzCase minimize(const FuzzCase& failing,
                  const std::function<bool(const FuzzCase&)>& still_fails,
                  MinimizeStats* stats, size_t budget) {
  MinimizeStats local;
  Reducer reducer(failing, still_fails, stats != nullptr ? *stats : local, budget);
  return reducer.run();
}

FuzzCase minimize_for_oracle(const FuzzCase& failing, uint32_t oracle_mask,
                             MinimizeStats* stats, size_t budget) {
  return minimize(
      failing,
      [oracle_mask](const FuzzCase& candidate) {
        return first_failure(candidate, oracle_mask).has_value();
      },
      stats, budget);
}

}  // namespace mfv::fuzz
