#include "verify/trace_cache.hpp"

#include <set>

namespace mfv::verify {

namespace {

/// Per-class depth-first disposition solver. States are (node, carried
/// MPLS label); loop detection is node-based like the per-flow walker's
/// visited set, so a revisit of a device under *any* label state ends the
/// path with kLoop.
///
/// The subtlety: inside a forwarding cycle, a node's disposition set is
/// context-sensitive — entering the cycle mid-way blocks exploration of
/// the on-stack part, so the truncated union must not be memoized (a
/// plain tri-color memo would record {LOOP} for a cycle member that can
/// also reach an exit). Every on-stack hit therefore taints the result
/// with the hit node; a frame absorbs taint on its own node when it pops
/// and only untainted (context-free) results enter the memo. Roots are
/// always untainted by the time they return — all deps reference stack
/// ancestors — so one pass over all nodes fully populates the table.
class ClassSolver {
 public:
  ClassSolver(const ForwardingGraph& graph, net::Ipv4Address destination,
              const std::map<net::NodeName, uint32_t>& node_index,
              std::unordered_map<uint64_t, TraceMemoEntry>& memo,
              std::atomic<uint64_t>* reexpansions,
              obs::Counter* reexpansions_counter)
      : graph_(graph),
        destination_(destination),
        node_index_(node_index),
        memo_(memo),
        reexpansions_(reexpansions),
        reexpansions_counter_(reexpansions_counter),
        node_on_stack_(node_index.size(), 0) {}

  void solve_all() {
    for (const auto& [node, index] : node_index_) solve_root(node, index);
  }

  /// Solves one root (and every continuation it reaches), memoizing into
  /// the shared table. Root results are always context-free: every
  /// dependency recorded below a frame is absorbed when that frame pops,
  /// so by the time the (empty-stack) root returns, deps is empty and
  /// the result was memoized by visit() itself. A root already memoized
  /// by an earlier partial solve returns from the memo immediately.
  void solve_root(const net::NodeName& node, uint32_t index) {
    (void)visit(node, index, std::nullopt);
  }

 private:
  struct Outcome {
    DispositionSet set;
    /// Node indices whose on-stack presence this result depends on;
    /// empty = context-free (memoizable).
    std::set<uint32_t> deps;
    /// Every node index this subtree traversed. Stored with the memo
    /// entry: the result is reusable only by callers whose path avoids
    /// all of them (node-based loop semantics).
    std::set<uint32_t> footprint;
  };

  static uint64_t state_key(uint32_t node_index, std::optional<uint32_t> label) {
    // label+1 so "no label" (0) never collides with label 0.
    uint64_t label_part = label ? static_cast<uint64_t>(*label) + 1 : 0;
    return (static_cast<uint64_t>(node_index) << 33) | label_part;
  }

  Outcome visit(const net::NodeName& node, uint32_t index,
                std::optional<uint32_t> label) {
    uint64_t key = state_key(index, label);
    // The on-stack check must come BEFORE the memo lookup. A memoized
    // entry for (node, label') is context-free only in contexts where the
    // node is not already on the path: the per-flow walker's visited set is
    // node-based, so re-entering an on-stack device under a *different*
    // label state is a loop for this path even though the state's
    // context-free continuation (memoized from some other root, where the
    // node was fresh) says otherwise. Serving the memo here absorbed taint
    // owed to the on-stack node and silently diverged from the serial
    // walker on cycles spanning multiple label states (found by the
    // serial-vs-threaded fuzz oracle; regression in tests/fuzz_corpus/).
    if (node_on_stack_[index] > 0) {
      // Device already on the current path (under any label state): the
      // per-flow walker's node-based visited set calls this a loop. The
      // verdict holds only for paths running through that on-stack
      // occurrence, so taint the result with the node — a cycle member
      // reached mid-cycle may still reach exits this truncated branch
      // cannot see, and must not be memoized here.
      Outcome loop;
      loop.set.add(Disposition::kLoop);
      loop.deps.insert(index);
      loop.footprint.insert(index);
      return loop;
    }
    if (auto it = memo_.find(key); it != memo_.end()) {
      // A memo entry is context-free only for callers whose path avoids
      // every node its subtree traverses: loop detection is node-based,
      // so if any footprint node is already on the stack, the per-flow
      // walker would cut this continuation short with kLoop at that node
      // instead of running it to the recorded terminals. Re-expand in
      // context — the expansion deterministically reaches the on-stack
      // node, returns tainted, and is not re-memoized (found by the
      // serial-vs-threaded fuzz oracle on label cycles whose broken
      // binding sits on the re-entered node).
      bool reusable = true;
      for (uint32_t traversed : it->second.footprint) {
        if (node_on_stack_[traversed] > 0) {
          reusable = false;
          break;
        }
      }
      if (!reusable) {
        if (reexpansions_ != nullptr)
          reexpansions_->fetch_add(1, std::memory_order_relaxed);
        if (reexpansions_counter_ != nullptr) reexpansions_counter_->add(1);
      }
      if (reusable) {
        Outcome hit;
        hit.set = it->second.set;
        hit.footprint.insert(it->second.footprint.begin(),
                             it->second.footprint.end());
        return hit;
      }
    }

    ++node_on_stack_[index];
    Outcome outcome = expand(node, label);
    --node_on_stack_[index];

    outcome.footprint.insert(index);
    outcome.deps.erase(index);  // this frame satisfies its own-node deps
    if (outcome.deps.empty())
      memo_[key] = {outcome.set, {outcome.footprint.begin(), outcome.footprint.end()}};
    return outcome;
  }

  /// One step of the per-flow walker, disposition-only: label forwarding
  /// until pop, then IP forwarding. Mirrors Tracer::walk in trace.cpp.
  Outcome expand(const net::NodeName& node, std::optional<uint32_t> label) {
    Outcome out;
    if (label) {
      const aft::LabelEntry* label_entry = graph_.lookup_label(node, *label);
      if (label_entry == nullptr) return terminal(Disposition::kNoRoute);
      std::vector<aft::NextHop> label_hops = graph_.label_next_hops(node, *label_entry);
      if (label_hops.empty()) return terminal(Disposition::kNoRoute);
      const aft::NextHop& action = label_hops.front();  // LSPs do not ECMP
      if (action.label_op != aft::LabelOp::kPop) {
        // Swap and move downstream.
        if (!action.ip_address) return terminal(Disposition::kNeighborUnreachable);
        auto owner = graph_.address_owner(*action.ip_address);
        if (!owner) return terminal(Disposition::kNeighborUnreachable);
        follow(out, *owner, action.label);
        return out;
      }
      // Pop: resume IP forwarding on this node, same frame (the walker
      // does not re-check its visited set here).
    }

    if (graph_.owns(node, destination_)) return terminal(Disposition::kAccepted);

    const aft::Ipv4Entry* entry = graph_.lookup(node, destination_);
    if (entry == nullptr) return terminal(Disposition::kNoRoute);
    std::vector<aft::NextHop> next_hops = graph_.next_hops(node, *entry);
    if (next_hops.empty()) return terminal(Disposition::kNoRoute);

    for (const aft::NextHop& next_hop : next_hops) {
      if (next_hop.drop) {
        out.set.add(Disposition::kNullRouted);
        continue;
      }
      if (next_hop.interface &&
          !graph_.egress_permits(node, *next_hop.interface, destination_)) {
        out.set.add(Disposition::kDeniedOut);
        continue;
      }
      if (next_hop.ip_address) {
        auto owner = graph_.address_owner(*next_hop.ip_address);
        if (!owner) {
          out.set.add(Disposition::kNeighborUnreachable);
          continue;
        }
        if (!graph_.ingress_permits(*owner, *next_hop.ip_address, destination_)) {
          out.set.add(Disposition::kDeniedIn);
          continue;
        }
        std::optional<uint32_t> pushed;
        if (next_hop.label_op == aft::LabelOp::kPush) pushed = next_hop.label;
        follow(out, *owner, pushed);
        continue;
      }
      // Attached: forwarding onto a connected subnet.
      auto owner = graph_.address_owner(destination_);
      if (owner) {
        if (!graph_.ingress_permits(*owner, destination_, destination_)) {
          out.set.add(Disposition::kDeniedIn);
          continue;
        }
        follow(out, *owner, std::nullopt);
      } else if (graph_.on_connected_subnet(node, destination_)) {
        out.set.add(Disposition::kDeliveredToSubnet);
      } else {
        out.set.add(Disposition::kExitsNetwork);
      }
    }
    return out;
  }

  void follow(Outcome& out, const net::NodeName& node, std::optional<uint32_t> label) {
    auto it = node_index_.find(node);
    if (it == node_index_.end()) {
      // Downstream device absent from the graph (cannot happen for
      // address owners, which are graph nodes by construction).
      out.set.add(Disposition::kNoRoute);
      return;
    }
    Outcome child = visit(node, it->second, label);
    out.set.merge(child.set);
    out.deps.insert(child.deps.begin(), child.deps.end());
    out.footprint.insert(child.footprint.begin(), child.footprint.end());
  }

  static Outcome terminal(Disposition disposition) {
    Outcome out;
    out.set.add(disposition);
    return out;
  }

  const ForwardingGraph& graph_;
  net::Ipv4Address destination_;
  const std::map<net::NodeName, uint32_t>& node_index_;
  std::unordered_map<uint64_t, TraceMemoEntry>& memo_;
  std::atomic<uint64_t>* reexpansions_;
  obs::Counter* reexpansions_counter_;
  std::vector<uint32_t> node_on_stack_;  // per-node on-chain counts
};

}  // namespace

TraceCache::TraceCache(const ForwardingGraph& graph,
                       obs::MetricsRegistry* metrics)
    : graph_(graph) {
  uint32_t index = 0;
  for (const net::NodeName& node : graph.nodes()) {
    node_index_.emplace(node, index++);
    node_names_.push_back(node);
  }
  if (metrics != nullptr) {
    hits_counter_ = &metrics->counter("trace_cache_hits");
    misses_counter_ = &metrics->counter("trace_cache_misses");
    reexpansions_counter_ = &metrics->counter("trace_cache_reexpansions");
  }
}

TraceCache::ClassTable& TraceCache::slot_for(net::Ipv4Address destination) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<ClassTable>& slot = tables_[destination.bits()];
  if (!slot) slot = std::make_unique<ClassTable>();
  return *slot;
}

TraceCache::ClassTable& TraceCache::table_for(net::Ipv4Address destination) {
  ClassTable& table = slot_for(destination);
  bool solved_here = false;
  {
    std::lock_guard<std::mutex> lock(table.mutex);
    if (!table.fully_solved) {
      // Roots memoized by earlier partial solves (dispositions_for) are
      // served from the memo; only the remainder runs.
      ClassSolver solver(graph_, destination, node_index_, table.memo,
                         &reexpansions_, reexpansions_counter_);
      solver.solve_all();
      table.fully_solved = true;
      solved_here = true;
    }
  }
  if (solved_here) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->add(1);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_counter_ != nullptr) hits_counter_->add(1);
  }
  return table;
}

void TraceCache::warm(net::Ipv4Address destination) { table_for(destination); }

std::vector<DispositionSet> TraceCache::dispositions_for(
    const std::vector<net::NodeName>& sources, net::Ipv4Address destination) {
  ClassTable& table = slot_for(destination);
  std::vector<DispositionSet> out;
  out.reserve(sources.size());
  std::lock_guard<std::mutex> lock(table.mutex);
  if (!table.fully_solved) {
    ClassSolver solver(graph_, destination, node_index_, table.memo,
                       &reexpansions_, reexpansions_counter_);
    for (const net::NodeName& source : sources) {
      auto it = node_index_.find(source);
      if (it != node_index_.end()) solver.solve_root(source, it->second);
    }
    // Deliberately not fully_solved: only the requested roots (and their
    // downstream continuations) are in the memo. A partial solve counts
    // as a miss — it ran the solver — even though warm() may run it
    // again later to finish the table.
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->add(1);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_counter_ != nullptr) hits_counter_->add(1);
  }
  for (const net::NodeName& source : sources) {
    auto it = node_index_.find(source);
    if (it == node_index_.end()) {
      DispositionSet no_route;
      no_route.add(Disposition::kNoRoute);
      out.push_back(no_route);
      continue;
    }
    uint64_t key = static_cast<uint64_t>(it->second) << 33;
    auto memo_it = table.memo.find(key);
    out.push_back(memo_it != table.memo.end() ? memo_it->second.set : DispositionSet());
  }
  return out;
}

DispositionSet TraceCache::dispositions(const net::NodeName& source,
                                        net::Ipv4Address destination) {
  auto index_it = node_index_.find(source);
  if (index_it == node_index_.end()) {
    DispositionSet no_route;
    no_route.add(Disposition::kNoRoute);
    return no_route;
  }
  ClassTable& table = table_for(destination);
  uint64_t key = static_cast<uint64_t>(index_it->second) << 33;
  auto it = table.memo.find(key);
  if (it != table.memo.end()) return it->second.set;
  // Unreachable: solve_all memoizes every root (see ClassSolver).
  return {};
}

size_t TraceCache::classes_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

}  // namespace mfv::verify
