#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "rib/rib.hpp"

namespace mfv::rib {
namespace {

net::Ipv4Prefix pfx(const std::string& text) { return *net::Ipv4Prefix::parse(text); }
net::Ipv4Address addr(const std::string& text) { return *net::Ipv4Address::parse(text); }

RibRoute make_route(const std::string& prefix, Protocol protocol, uint32_t metric = 0,
                    const std::string& next_hop = "", const std::string& interface = "",
                    const std::string& source = "") {
  RibRoute route;
  route.prefix = pfx(prefix);
  route.protocol = protocol;
  route.admin_distance = default_admin_distance(protocol);
  route.metric = metric;
  if (!next_hop.empty()) route.next_hop = addr(next_hop);
  if (!interface.empty()) route.interface = interface;
  route.source = source;
  return route;
}

TEST(Rib, AdminDistanceOrdering) {
  // Connected < static < TE < eBGP < IS-IS < iBGP, EOS-style.
  EXPECT_LT(default_admin_distance(Protocol::kConnected),
            default_admin_distance(Protocol::kStatic));
  EXPECT_LT(default_admin_distance(Protocol::kStatic), default_admin_distance(Protocol::kTe));
  EXPECT_LT(default_admin_distance(Protocol::kTe), default_admin_distance(Protocol::kBgp));
  EXPECT_LT(default_admin_distance(Protocol::kBgp), default_admin_distance(Protocol::kIsis));
  EXPECT_LT(default_admin_distance(Protocol::kIsis), default_admin_distance(Protocol::kIbgp));
}

TEST(Rib, BestPrefersLowerAdminDistance) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kStatic, 0, "2.2.2.2"));
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].protocol, Protocol::kStatic);
  // Both candidates still visible.
  EXPECT_EQ(rib.candidates(pfx("10.0.0.0/8")).size(), 2u);
}

TEST(Rib, BestPrefersLowerMetricWithinProtocol) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 30, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "2.2.2.2", "Ethernet2"));
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].metric, 20u);
}

TEST(Rib, EqualCostRoutesFormEcmpSet) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "2.2.2.2", "Ethernet2"));
  EXPECT_EQ(rib.best(pfx("10.0.0.0/8")).size(), 2u);
}

TEST(Rib, AddReportsBestChange) {
  Rib rib;
  EXPECT_TRUE(rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1")));
  // Worse route: best unchanged.
  EXPECT_FALSE(rib.add(make_route("10.0.0.0/8", Protocol::kIbgp, 0, "9.9.9.9")));
  // Better route: best changes.
  EXPECT_TRUE(rib.add(make_route("10.0.0.0/8", Protocol::kStatic, 0, "2.2.2.2")));
}

TEST(Rib, ReplaceInSlotUpdatesMetric) {
  Rib rib;
  RibRoute route = make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1", "i");
  rib.add(route);
  route.metric = 40;
  EXPECT_TRUE(rib.add(route));  // replaced, best metric changed
  auto best = rib.best(pfx("10.0.0.0/8"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].metric, 40u);
  EXPECT_EQ(rib.route_count(), 1u);
}

TEST(Rib, RemoveAndClearProtocol) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 20, "1.1.1.1", "Ethernet1", "default"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 30, "1.1.1.1", "Ethernet1", "default"));
  rib.add(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2", "", "static"));
  EXPECT_EQ(rib.clear_protocol(Protocol::kIsis, "default"), 2u);
  EXPECT_EQ(rib.prefix_count(), 1u);
  EXPECT_TRUE(rib.remove(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2", "", "static")));
  EXPECT_EQ(rib.prefix_count(), 0u);
  EXPECT_FALSE(rib.remove(make_route("10.2.0.0/16", Protocol::kStatic, 0, "2.2.2.2")));
}

TEST(Rib, ClearProtocolBySourceOnly) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1", "a"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1", "b"));
  EXPECT_EQ(rib.clear_protocol(Protocol::kIsis, "a"), 1u);
  EXPECT_EQ(rib.prefix_count(), 1u);
}

TEST(Rib, LongestMatchUsesMostSpecificPrefix) {
  Rib rib;
  rib.add(make_route("0.0.0.0/0", Protocol::kStatic, 0, "", "", "static"));
  rib.candidates(pfx("0.0.0.0/0"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.1.0.0/16", Protocol::kIsis, 10, "2.2.2.2", "Ethernet2"));
  auto best = rib.longest_match(addr("10.1.5.5"));
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0].prefix, pfx("10.1.0.0/16"));
  EXPECT_EQ(rib.longest_match(addr("172.16.0.1"))[0].prefix, pfx("0.0.0.0/0"));
}

TEST(Rib, LongestMatchAfterErasureFallsBack) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  RibRoute specific = make_route("10.1.0.0/16", Protocol::kIsis, 10, "2.2.2.2", "Ethernet2");
  rib.add(specific);
  EXPECT_EQ(rib.longest_match(addr("10.1.0.1"))[0].prefix, pfx("10.1.0.0/16"));
  rib.remove(specific);
  EXPECT_EQ(rib.longest_match(addr("10.1.0.1"))[0].prefix, pfx("10.0.0.0/8"));
}

TEST(Rib, ForEachBestVisitsEveryPrefixOnce) {
  Rib rib;
  rib.add(make_route("10.0.0.0/8", Protocol::kIsis, 10, "1.1.1.1", "Ethernet1"));
  rib.add(make_route("10.0.0.0/8", Protocol::kIbgp, 0, "9.9.9.9"));
  rib.add(make_route("10.1.0.0/16", Protocol::kStatic, 0, "2.2.2.2"));
  int visits = 0;
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    ++visits;
    ASSERT_FALSE(best.empty());
    if (prefix == pfx("10.0.0.0/8")) {
      EXPECT_EQ(best[0].protocol, Protocol::kIsis);
    }
  });
  EXPECT_EQ(visits, 2);
}

// ---------------------------------------------------------------------------
// The flat RIB against a brute-force reference: every slot a plain vector
// edited the obvious way, lookups by linear scan.

class ReferenceRib {
 public:
  bool add(const RibRoute& route) {
    std::vector<RibRoute>& slot = slots_[route.prefix];
    std::vector<RibRoute> before = best_of(slot);
    auto same = std::find_if(slot.begin(), slot.end(),
                             [&](const RibRoute& r) { return r.same_slot(route); });
    if (same != slot.end())
      *same = route;
    else
      slot.push_back(route);
    return best_of(slot) != before;
  }

  bool remove(const RibRoute& route) {
    auto it = slots_.find(route.prefix);
    if (it == slots_.end()) return false;
    std::vector<RibRoute> before = best_of(it->second);
    if (std::erase_if(it->second, [&](const RibRoute& r) { return r.same_slot(route); }) == 0)
      return false;
    bool changed = best_of(it->second) != before;
    if (it->second.empty()) slots_.erase(it);
    return changed;
  }

  size_t clear_protocol(Protocol protocol, const std::string& source) {
    size_t removed = 0;
    for (auto it = slots_.begin(); it != slots_.end();) {
      removed += std::erase_if(it->second, [&](const RibRoute& r) {
        return r.protocol == protocol && (source.empty() || r.source == source);
      });
      it = it->second.empty() ? slots_.erase(it) : std::next(it);
    }
    return removed;
  }

  /// replace_protocol when `scope` is null, else replace_prefixes.
  bool replace(Protocol protocol, const std::string& source,
               const std::vector<net::Ipv4Prefix>* scope, const std::vector<RibRoute>& fresh) {
    std::map<net::Ipv4Prefix, std::vector<RibRoute>> incoming;
    for (const RibRoute& route : fresh) {
      std::vector<RibRoute>& want = incoming[route.prefix];
      auto same = std::find_if(want.begin(), want.end(),
                               [&](const RibRoute& r) { return r.same_slot(route); });
      if (same != want.end())
        *same = route;
      else
        want.push_back(route);
    }
    std::vector<net::Ipv4Prefix> prefixes;
    if (scope != nullptr) {
      prefixes = *scope;
    } else {
      for (const auto& [prefix, slot] : slots_) prefixes.push_back(prefix);
      for (const auto& [prefix, want] : incoming) prefixes.push_back(prefix);
    }
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
    auto matches = [&](const RibRoute& r) {
      return r.protocol == protocol && (source.empty() || r.source == source);
    };
    bool changed = false;
    for (const net::Ipv4Prefix& prefix : prefixes) {
      std::vector<RibRoute> want = incoming[prefix];
      std::vector<RibRoute> current;
      for (const RibRoute& r : slots_[prefix])
        if (matches(r)) current.push_back(r);
      if (!std::is_permutation(current.begin(), current.end(), want.begin(), want.end())) {
        std::vector<RibRoute>& slot = slots_[prefix];
        std::erase_if(slot, matches);
        slot.insert(slot.end(), want.begin(), want.end());
        changed = true;
      }
      if (slots_[prefix].empty()) slots_.erase(prefix);
    }
    return changed;
  }

  std::vector<RibRoute> candidates(const net::Ipv4Prefix& prefix) const {
    auto it = slots_.find(prefix);
    return it == slots_.end() ? std::vector<RibRoute>{} : it->second;
  }

  std::vector<RibRoute> best(const net::Ipv4Prefix& prefix) const {
    return best_of(candidates(prefix));
  }

  std::vector<RibRoute> longest_match(net::Ipv4Address address) const {
    const net::Ipv4Prefix* longest = nullptr;
    for (const auto& [prefix, slot] : slots_)
      if (prefix.contains(address) && (longest == nullptr || prefix.length() > longest->length()))
        longest = &prefix;
    return longest == nullptr ? std::vector<RibRoute>{} : best(*longest);
  }

  std::vector<net::Ipv4Prefix> prefixes() const {
    std::vector<net::Ipv4Prefix> out;
    for (const auto& [prefix, slot] : slots_) out.push_back(prefix);
    return out;
  }

 private:
  static std::vector<RibRoute> best_of(const std::vector<RibRoute>& routes) {
    std::vector<RibRoute> best;
    for (const RibRoute& r : routes) {
      if (!best.empty() && std::tie(best[0].admin_distance, best[0].metric) <
                               std::tie(r.admin_distance, r.metric))
        continue;
      if (!best.empty() && std::tie(r.admin_distance, r.metric) <
                               std::tie(best[0].admin_distance, best[0].metric))
        best.clear();
      best.push_back(r);
    }
    return best;
  }

  std::map<net::Ipv4Prefix, std::vector<RibRoute>> slots_;
};

/// Random routes over overlapping prefixes: the default route, /8 to /24
/// nests, /31 links and /32 hosts inside them.
class RouteDraw {
 public:
  explicit RouteDraw(uint32_t seed) : rng_(seed) {}

  uint32_t pick(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

  net::Ipv4Prefix prefix() {
    static const char* const kPrefixes[] = {
        "0.0.0.0/0",   "10.0.0.0/8",  "10.1.0.0/16", "10.1.2.0/24", "10.1.2.2/31",
        "10.1.2.3/32", "10.1.2.4/32", "10.2.0.0/16", "10.2.0.0/31", "10.255.255.254/31",
        "192.0.2.0/24", "192.0.2.255/32", "255.255.255.255/32"};
    return pfx(kPrefixes[pick(std::size(kPrefixes))]);
  }

  RibRoute route(const net::Ipv4Prefix& prefix) {
    static const Protocol kProtocols[] = {Protocol::kConnected, Protocol::kStatic,
                                          Protocol::kIsis, Protocol::kOspf, Protocol::kBgp};
    RibRoute route = make_route("0.0.0.0/0", kProtocols[pick(5)], 10 * pick(3));
    route.prefix = prefix;
    if (pick(4) == 0) route.admin_distance = static_cast<uint8_t>(pick(3));
    if (pick(3) != 0) route.next_hop = net::Ipv4Address(0x64400000u + pick(4));
    if (pick(3) != 0) route.interface = "Ethernet" + std::to_string(1 + pick(3));
    route.drop = pick(8) == 0;
    if (pick(6) == 0) route.push_label = 100 + pick(2);
    route.source = std::string(1, static_cast<char>('a' + pick(3)));
    return route;
  }

  /// Routes for sorted, unique `prefixes`, grouped in that order, with no
  /// two in one slot.
  std::vector<RibRoute> batch(const std::vector<net::Ipv4Prefix>& prefixes, Protocol protocol,
                              const std::string& source) {
    std::vector<RibRoute> routes;
    for (const net::Ipv4Prefix& prefix : prefixes) {
      size_t start = routes.size();
      for (uint32_t i = pick(3); i > 0; --i) {
        RibRoute route = this->route(prefix);
        route.protocol = protocol;
        route.source = source;
        if (std::none_of(routes.begin() + static_cast<ptrdiff_t>(start), routes.end(),
                         [&](const RibRoute& r) { return r.same_slot(route); }))
          routes.push_back(route);
      }
    }
    return routes;
  }

 private:
  std::mt19937 rng_;
};

void expect_matches(const Rib& rib, const ReferenceRib& reference, RouteDraw& draw,
                    const std::string& where) {
  std::vector<net::Ipv4Prefix> prefixes = reference.prefixes();
  ASSERT_EQ(rib.prefix_count(), prefixes.size()) << where;
  std::vector<net::Ipv4Address> probes;
  for (const net::Ipv4Prefix& prefix : prefixes) {
    ASSERT_EQ(rib.candidates(prefix), reference.candidates(prefix)) << where << " " << prefix.to_string();
    ASSERT_EQ(rib.best(prefix), reference.best(prefix)) << where << " " << prefix.to_string();
    for (uint32_t bits : {prefix.first_address().bits(), prefix.last_address().bits()})
      for (uint32_t delta : {-1u, 0u, 1u}) probes.push_back(net::Ipv4Address(bits + delta));
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t bits = draw.pick(2) ? draw.prefix().address().bits() ^ draw.pick(1u << 17)
                                 : static_cast<uint32_t>(draw.pick(1u << 31)) * 2u;
    probes.push_back(net::Ipv4Address(bits));
  }
  for (net::Ipv4Address probe : probes)
    ASSERT_EQ(rib.longest_match(probe), reference.longest_match(probe))
        << where << " " << probe.to_string();
  size_t visited = 0;
  rib.for_each_best([&](const net::Ipv4Prefix& prefix, const std::vector<RibRoute>& best) {
    ASSERT_LT(visited, prefixes.size()) << where;
    EXPECT_EQ(prefix, prefixes[visited++]) << where;
    EXPECT_EQ(best, reference.best(prefix)) << where;
  });
  EXPECT_EQ(visited, prefixes.size()) << where;
}

TEST(Rib, RandomEditsMatchBruteForce) {
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    RouteDraw draw(seed);
    Rib rib;
    ReferenceRib reference;
    Rib copy;  // a fork taken now and then; it must not see later edits
    ReferenceRib copy_reference;
    for (int step = 0; step < 200; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const Protocol protocol = draw.pick(2) ? Protocol::kIsis : Protocol::kStatic;
      const std::string source = draw.pick(4) == 0 ? "" : "a";
      switch (draw.pick(6)) {
        case 0:
        case 1: {
          RibRoute route = draw.route(draw.prefix());
          ASSERT_EQ(rib.add(route), reference.add(route)) << where;
          break;
        }
        case 2: {
          // Often an existing candidate, so removals hit.
          std::vector<RibRoute> present = reference.candidates(draw.prefix());
          RibRoute route = present.empty() || draw.pick(4) == 0
                               ? draw.route(draw.prefix())
                               : present[draw.pick(static_cast<uint32_t>(present.size()))];
          ASSERT_EQ(rib.remove(route), reference.remove(route)) << where;
          break;
        }
        case 3:
          ASSERT_EQ(rib.clear_protocol(protocol, source),
                    reference.clear_protocol(protocol, source))
              << where;
          break;
        case 4: {
          // Unsorted, possibly with same-slot duplicates (later wins).
          std::vector<RibRoute> fresh;
          for (uint32_t i = draw.pick(8); i > 0; --i) {
            RibRoute route = draw.route(draw.prefix());
            route.protocol = protocol;
            if (!source.empty()) route.source = source;
            fresh.push_back(route);
          }
          ASSERT_EQ(rib.replace_protocol(protocol, source, fresh),
                    reference.replace(protocol, source, nullptr, fresh))
              << where;
          break;
        }
        default: {
          std::vector<net::Ipv4Prefix> prefixes;
          for (uint32_t i = draw.pick(5); i > 0; --i) prefixes.push_back(draw.prefix());
          std::sort(prefixes.begin(), prefixes.end());
          prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
          std::vector<RibRoute> fresh = draw.batch(prefixes, protocol, source.empty() ? "a" : source);
          ASSERT_EQ(rib.replace_prefixes(protocol, source, prefixes, fresh),
                    reference.replace(protocol, source, &prefixes, fresh))
              << where;
          break;
        }
      }
      expect_matches(rib, reference, draw, where);
      if (draw.pick(25) == 0) {
        copy = rib;
        copy_reference = reference;
      }
      expect_matches(copy, copy_reference, draw, where + " (copy)");
    }
  }
}

}  // namespace
}  // namespace mfv::rib
