#include "proto/link_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>

#include "proto/isis.hpp"
#include "proto/ospf.hpp"

namespace mfv::proto {

namespace {
constexpr util::Duration kSpfDelay = util::Duration::millis(50);
}  // namespace

/// One SPF run's output, prefix-sorted. Per prefix it holds the (cost,
/// first-hop set) contributions the install loop keeps, in the order it
/// emits them: LSDB origin order, each LSP in prefix order, dropping a
/// contribution that costs more than the cheapest one before it. So a
/// higher-cost candidate from an earlier origin stays, as it always has.
/// Immutable once built: forks share it.
struct SpfTable {
  struct Row {
    net::Ipv4Prefix prefix;
    uint32_t metric = 0;
    uint32_t hops = 0;  // offset of the first-hop mask in `masks`
  };
  /// What first-hop bit i names: adjacency i in interface-name order.
  std::vector<std::pair<net::InterfaceName, net::Ipv4Address>> adjacencies;
  size_t hop_words = 1;
  std::vector<uint64_t> masks;
  std::vector<Row> rows;
};

template <typename Protocol>
LinkStateEngine<Protocol>::LinkStateEngine(RouterEnv& env, const config::DeviceConfig& device)
    : env_(&env) {
  if (std::optional<Id> self = protocol_.configure(device, env.node_name())) {
    active_ = true;
    self_ = *self;
  }
}

template <typename Protocol>
std::unique_ptr<LinkStateEngine<Protocol>> LinkStateEngine<Protocol>::fork(RouterEnv& env) const {
  std::unique_ptr<LinkStateEngine> copy(new LinkStateEngine(*this));
  copy->env_ = &env;
  return copy;
}

template <typename Protocol>
void LinkStateEngine<Protocol>::start() {
  if (!active_) return;
  for (const InterfaceView& interface : env_->interfaces())
    if (adjacent(interface)) send_hello(interface);
  regenerate_lsp();
}

template <typename Protocol>
void LinkStateEngine<Protocol>::shutdown() {
  if (!active_) return;
  Lsp purge;
  purge.origin = self_;
  originate(std::move(purge));
  active_ = false;
}

template <typename Protocol>
auto LinkStateEngine<Protocol>::seen_on(const net::InterfaceName& interface) const
    -> std::vector<Id> {
  std::vector<Id> seen;
  auto it = adjacencies_.find(interface);
  if (it != adjacencies_.end()) seen.push_back(it->second.neighbor);
  return seen;
}

template <typename Protocol>
void LinkStateEngine<Protocol>::send_hello(const InterfaceView& interface) {
  if (!interface.address) return;
  env_->send_on_interface(
      interface.name,
      Message(protocol_.hello(self_, interface.address->address, seen_on(interface.name))));
}

template <typename Protocol>
void LinkStateEngine<Protocol>::handle(const net::InterfaceName& in_interface,
                                       const Message& message) {
  if (!active_) return;
  if (const auto* hello = std::get_if<typename Protocol::Hello>(&message))
    handle_hello(in_interface, *hello);
  else if (const auto* lsp = std::get_if<LspPtr>(&message))
    handle_lsp(in_interface, *lsp);
}

template <typename Protocol>
void LinkStateEngine<Protocol>::handle_hello(const net::InterfaceName& in_interface,
                                             const typename Protocol::Hello& hello) {
  auto interface = env_->interface(in_interface);
  if (!interface || !adjacent(*interface) || !protocol_.accepts(*interface, hello)) return;
  const Id sender = Protocol::sender(hello);
  if (sender == self_) return;  // own hello looped back

  auto [it, inserted] = adjacencies_.try_emplace(in_interface);
  Adjacency& adjacency = it->second;
  bool was_up = !inserted && adjacency.state == Adjacency::State::kUp;
  bool neighbor_changed = inserted || adjacency.neighbor != sender;

  adjacency.neighbor = sender;
  adjacency.neighbor_address = hello.interface_address;
  adjacency.interface = in_interface;
  adjacency.metric = protocol_.metric(*interface);

  // 3-way: Up only once the neighbor reports seeing us on this link.
  bool sees_us = std::find(hello.seen_neighbors.begin(), hello.seen_neighbors.end(), self_) !=
                 hello.seen_neighbors.end();
  adjacency.state = sees_us ? Adjacency::State::kUp : Adjacency::State::kInit;

  bool now_up = adjacency.state == Adjacency::State::kUp;
  if (neighbor_changed || now_up != was_up) {
    // Reply so the neighbor learns we see them (completes their handshake).
    send_hello(*interface);
  }
  if (now_up != was_up) {
    regenerate_lsp();
    if (now_up) {
      // New adjacency: synchronize the database (push our full LSDB, the
      // event-driven analogue of CSNP/PSNP or DD/LSR/LSU exchange).
      for (const LspPtr& lsp : lsdb_) env_->send_on_interface(in_interface, Message(lsp));
    }
  }
}

template <typename Protocol>
void LinkStateEngine<Protocol>::handle_lsp(const net::InterfaceName& in_interface,
                                           const LspPtr& lsp) {
  auto interface = env_->interface(in_interface);
  if (!interface || !protocol_.floods(*interface)) return;

  if (lsp->origin == self_) {
    // A stale copy of our own LSP circulating with a sequence number at or
    // above ours (e.g. a pre-restart purge): adopt it into the database so
    // regenerate_lsp sees the content difference, then reissue above its
    // sequence number (standard purge-and-reissue).
    const Lsp* own = lsdb_.find(self_);
    if (lsp->sequence >= own_sequence_ && (own == nullptr || !lsp->same_content(*own))) {
      own_sequence_ = lsp->sequence;
      lsdb_.put(lsp);
      regenerate_lsp();
    }
    return;
  }

  const Lsp* stored = lsdb_.find(lsp->origin);
  if (stored != nullptr && stored->sequence >= lsp->sequence) return;  // old news
  lsdb_.put(lsp);
  flood(lsp, in_interface);
  schedule_spf();
}

template <typename Protocol>
void LinkStateEngine<Protocol>::regenerate_lsp() {
  if (!active_) return;
  Lsp lsp;
  lsp.origin = self_;
  for (const auto& [name, adjacency] : adjacencies_)
    if (adjacency.state == Adjacency::State::kUp)
      lsp.neighbors.push_back({adjacency.neighbor, adjacency.metric});
  for (const InterfaceView& interface : env_->interfaces())
    if (interface.up && interface.address && protocol_.advertises(interface))
      lsp.prefixes.push_back({interface.address->subnet, protocol_.metric(interface)});
  std::sort(lsp.neighbors.begin(), lsp.neighbors.end());
  std::sort(lsp.prefixes.begin(), lsp.prefixes.end());

  const Lsp* own = lsdb_.find(self_);
  if (own != nullptr && own->same_content(lsp)) return;  // no change
  originate(std::move(lsp));
  schedule_spf();
}

template <typename Protocol>
void LinkStateEngine<Protocol>::originate(Lsp lsp) {
  lsp.sequence = ++own_sequence_;
  auto shared = std::make_shared<const Lsp>(std::move(lsp));
  lsdb_.put(shared);
  flood(shared, /*except=*/"");
}

template <typename Protocol>
void LinkStateEngine<Protocol>::flood(const LspPtr& lsp, const net::InterfaceName& except) {
  for (const auto& [name, adjacency] : adjacencies_)
    if (adjacency.state == Adjacency::State::kUp && name != except)
      env_->send_on_interface(name, Message(lsp));
}

template <typename Protocol>
void LinkStateEngine<Protocol>::interfaces_changed() {
  if (!active_) return;
  std::erase_if(adjacencies_, [this](const auto& entry) {
    auto interface = env_->interface(entry.first);
    return !interface || !adjacent(*interface);
  });
  for (const InterfaceView& interface : env_->interfaces())
    if (adjacent(interface)) send_hello(interface);
  // Regenerates after a dropped adjacency, and when only the prefix set
  // changed.
  regenerate_lsp();
}

template <typename Protocol>
void LinkStateEngine<Protocol>::schedule_spf() {
  if (spf_pending_) return;
  spf_pending_ = true;
  env_->schedule(kSpfDelay, [this] {
    spf_pending_ = false;
    run_spf();
  });
}

template <typename Protocol>
void LinkStateEngine<Protocol>::run_spf() {
  if (!active_) return;
  ++spf_runs_;

  // Dijkstra over the LSDB. An edge A->B with metric m is usable only if
  // B's LSP also reports A (bidirectional check). Everything runs over
  // dense indices in flat arrays. Nodes are indexed in lsdb_ (origin)
  // order, so queue ties break the same way on every run and `ids` is
  // sorted for lookups. First-hop sets are bitmasks whose bit i is the
  // i-th adjacency in interface-name order.
  constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const size_t node_count = lsdb_.size();
  std::vector<Id> ids;
  std::vector<const Lsp*> lsps;
  ids.reserve(node_count);
  lsps.reserve(node_count);
  for (const LspPtr& lsp : lsdb_) {
    ids.push_back(lsp->origin);
    lsps.push_back(lsp.get());
  }
  auto index_of = [&ids](Id id) -> uint32_t {
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id ? static_cast<uint32_t>(it - ids.begin()) : kNone;
  };

  auto table = std::make_shared<SpfTable>();
  table->adjacencies.reserve(adjacencies_.size());
  for (const auto& [name, adjacency] : adjacencies_)
    table->adjacencies.emplace_back(name, adjacency.neighbor_address);
  const size_t hop_words = adjacencies_.empty() ? 1 : (adjacencies_.size() + 63) / 64;
  table->hop_words = hop_words;

  // First-hop mask towards each direct neighbor: the union of the up
  // adjacency interfaces reaching it (parallel links merge here).
  std::vector<uint64_t> direct_hops(node_count * hop_words, 0);
  std::vector<uint8_t> has_direct(node_count, 0);
  size_t bit = 0;
  for (const auto& [name, adjacency] : adjacencies_) {
    const size_t i = bit++;
    if (adjacency.state != Adjacency::State::kUp) continue;
    const uint32_t v = index_of(adjacency.neighbor);
    if (v == kNone) continue;  // no LSP: the bidir check fails anyway
    has_direct[v] = 1;
    direct_hops[v * hop_words + i / 64] |= uint64_t{1} << (i % 64);
  }

  // Each LSP's neighbor list as indices (CSR), then only the edges whose
  // far end reports the near end back.
  std::vector<uint32_t> edge_begin(node_count + 1, 0);
  std::vector<std::pair<uint32_t, uint32_t>> edges;  // (v, metric)
  for (size_t u = 0; u < node_count; ++u) {
    edge_begin[u] = static_cast<uint32_t>(edges.size());
    for (const auto& neighbor : lsps[u]->neighbors)
      if (uint32_t v = index_of(neighbor.id); v != kNone) edges.emplace_back(v, neighbor.metric);
  }
  edge_begin[node_count] = static_cast<uint32_t>(edges.size());
  const size_t node_words = (node_count + 63) / 64;
  std::vector<uint64_t> reported(node_count * node_words, 0);
  for (size_t u = 0; u < node_count; ++u)
    for (uint32_t e = edge_begin[u]; e < edge_begin[u + 1]; ++e)
      reported[u * node_words + edges[e].first / 64] |= uint64_t{1} << (edges[e].first % 64);
  uint32_t kept = 0;
  for (size_t u = 0; u < node_count; ++u) {
    const uint32_t begin = edge_begin[u];
    const uint32_t end = edge_begin[u + 1];
    edge_begin[u] = kept;
    for (uint32_t e = begin; e < end; ++e)
      if (reported[edges[e].first * node_words + u / 64] >> (u % 64) & 1) edges[kept++] = edges[e];
  }
  edge_begin[node_count] = kept;

  std::vector<uint32_t> distance(node_count, kInf);
  std::vector<uint64_t> first_hops(node_count * hop_words, 0);
  std::vector<uint8_t> settled(node_count, 0);
  const uint32_t self = index_of(self_);
  if (self != kNone) {
    distance[self] = 0;
    using QueueItem = std::pair<uint32_t, uint32_t>;
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
    queue.push({0, self});
    while (!queue.empty()) {
      auto [dist, u] = queue.top();
      queue.pop();
      if (settled[u]) continue;
      settled[u] = 1;
      const uint64_t* u_hops = first_hops.data() + u * hop_words;
      for (uint32_t e = edge_begin[u]; e < edge_begin[u + 1]; ++e) {
        const auto [v, metric] = edges[e];
        uint32_t candidate = dist + metric;
        // First hops: for direct neighbors of us, the adjacency
        // interfaces to them; otherwise inherit from the predecessor
        // (non-self settled nodes always carry a non-empty mask).
        const uint64_t* hops = u_hops;
        if (u == self) {
          if (!has_direct[v]) continue;
          hops = direct_hops.data() + v * hop_words;
        }
        uint64_t* v_hops = first_hops.data() + v * hop_words;
        if (candidate < distance[v]) {
          distance[v] = candidate;
          std::copy(hops, hops + hop_words, v_hops);
          queue.push({candidate, v});
        } else if (candidate == distance[v]) {
          for (size_t w = 0; w < hop_words; ++w) v_hops[w] |= hops[w];  // ECMP
        }
      }
    }
  }

  // Every prefix in every reachable LSP, cost = dist(origin) + prefix
  // metric, first hops = the origin's, in emission order; a stable sort
  // groups them by prefix. Origins share a handful of distinct masks, and
  // forks keep one table per router alive, so masks are stored once.
  auto mask_less = [hop_words](const uint64_t* a, const uint64_t* b) {
    return std::lexicographical_compare(a, a + hop_words, b, b + hop_words);
  };
  std::map<const uint64_t*, uint32_t, decltype(mask_less)> mask_offsets(mask_less);
  std::vector<SpfTable::Row> emitted;
  for (size_t u = 0; u < node_count; ++u) {
    if (u == self || distance[u] == kInf || lsps[u]->prefixes.empty()) continue;
    const uint64_t* hops = first_hops.data() + u * hop_words;
    auto [it, inserted] =
        mask_offsets.emplace(hops, static_cast<uint32_t>(table->masks.size()));
    if (inserted) table->masks.insert(table->masks.end(), hops, hops + hop_words);
    for (const auto& item : lsps[u]->prefixes)
      emitted.push_back({item.prefix, distance[u] + item.metric, it->second});
  }
  std::stable_sort(emitted.begin(), emitted.end(),
                   [](const SpfTable::Row& a, const SpfTable::Row& b) {
                     return a.prefix < b.prefix;
                   });
  size_t rows = 0;
  uint32_t best = 0;
  for (size_t i = 0; i < emitted.size(); ++i) {
    bool first = i == 0 || emitted[i].prefix != emitted[i - 1].prefix;
    if (!first && best < emitted[i].metric) continue;
    best = emitted[i].metric;
    emitted[rows++] = emitted[i];
  }
  table->rows.assign(emitted.begin(), emitted.begin() + static_cast<ptrdiff_t>(rows));
  table->masks.shrink_to_fit();

  // Install the difference from the last run. First-hop bits name
  // adjacencies, so when the adjacency list changed the old rows mean
  // something else: reinstall everything then.
  rib::Rib& rib = env_->rib();
  bool changed = false;
  const SpfTable* previous = spf_table_.get();
  if (previous == nullptr || previous->adjacencies != table->adjacencies) {
    std::vector<rib::RibRoute> routes;
    append_routes(*table, 0, table->rows.size(), routes);
    changed = rib.replace_protocol(Protocol::kRibProtocol, source(), std::move(routes));
  } else {
    const std::vector<SpfTable::Row>& before = previous->rows;
    const std::vector<SpfTable::Row>& after = table->rows;
    auto same_row = [&](const SpfTable::Row& a, const SpfTable::Row& b) {
      return a.metric == b.metric &&
             std::equal(previous->masks.begin() + a.hops,
                        previous->masks.begin() + a.hops + hop_words,
                        table->masks.begin() + b.hops);
    };
    std::vector<net::Ipv4Prefix> prefixes;
    std::vector<rib::RibRoute> routes;
    size_t i = 0;
    size_t j = 0;
    while (i < before.size() || j < after.size()) {
      net::Ipv4Prefix prefix = i == before.size()  ? after[j].prefix
                               : j == after.size() ? before[i].prefix
                                                   : std::min(before[i].prefix, after[j].prefix);
      size_t i_end = i;
      while (i_end < before.size() && before[i_end].prefix == prefix) ++i_end;
      size_t j_end = j;
      while (j_end < after.size() && after[j_end].prefix == prefix) ++j_end;
      if (i_end - i != j_end - j ||
          !std::equal(before.begin() + i, before.begin() + i_end, after.begin() + j, same_row)) {
        prefixes.push_back(prefix);
        append_routes(*table, j, j_end, routes);
      }
      i = i_end;
      j = j_end;
    }
    changed = rib.replace_prefixes(Protocol::kRibProtocol, source(), prefixes, std::move(routes));
  }
  spf_table_ = std::move(table);
  // Notify only when the installed set actually changed: SPF re-runs whose
  // result is identical (the common case during incremental re-convergence
  // after a fork) must not cascade FIB recompiles and BGP re-decisions.
  if (changed) env_->notify_rib_changed();
}

template <typename Protocol>
void LinkStateEngine<Protocol>::append_routes(const SpfTable& table, size_t begin, size_t end,
                                              std::vector<rib::RibRoute>& routes) const {
  const size_t base = routes.size();
  std::vector<size_t> bits;  // adjacency bit of each appended route
  size_t prefix_start = 0;   // into `bits`
  for (size_t r = begin; r < end; ++r) {
    const SpfTable::Row& row = table.rows[r];
    if (r == begin || row.prefix != table.rows[r - 1].prefix) prefix_start = bits.size();
    for (size_t w = 0; w < table.hop_words; ++w) {
      for (uint64_t word = table.masks[row.hops + w]; word != 0; word &= word - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
        // A later contribution through the same adjacency is the same RIB
        // slot: it replaces the earlier route in place.
        auto same = std::find(bits.begin() + static_cast<ptrdiff_t>(prefix_start), bits.end(), i);
        if (same != bits.end()) {
          routes[base + static_cast<size_t>(same - bits.begin())].metric = row.metric;
          continue;
        }
        rib::RibRoute route;
        route.prefix = row.prefix;
        route.protocol = Protocol::kRibProtocol;
        route.admin_distance = rib::default_admin_distance(Protocol::kRibProtocol);
        route.metric = row.metric;
        route.next_hop = table.adjacencies[i].second;
        route.interface = table.adjacencies[i].first;
        route.source = source();
        routes.push_back(std::move(route));
        bits.push_back(i);
      }
    }
  }
}

template <typename Protocol>
std::vector<rib::RibRoute> LinkStateEngine<Protocol>::spf_routes() const {
  std::vector<rib::RibRoute> routes;
  if (spf_table_ != nullptr) append_routes(*spf_table_, 0, spf_table_->rows.size(), routes);
  return routes;
}

template class LinkStateEngine<Isis>;
template class LinkStateEngine<Ospf>;

}  // namespace mfv::proto
