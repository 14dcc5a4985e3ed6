#include "verify/trace_cache.hpp"

#include <algorithm>
#include <iterator>

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
  using NodeId = ForwardingGraph::NodeId;

  ClassSolver(const ForwardingGraph& graph, net::Ipv4Address destination,
              std::unordered_map<uint64_t, TraceMemoEntry>& memo,
              std::atomic<uint64_t>* reexpansions,
              obs::Counter* reexpansions_counter)
      : graph_(graph),
        destination_(destination),
        destination_owner_(graph.owner(destination)),
        memo_(memo),
        reexpansions_(reexpansions),
        reexpansions_counter_(reexpansions_counter),
        node_on_stack_(graph.node_count(), 0) {
    // Attached hops all land on the destination's owner: resolve its
    // ingress verdict once per class.
    if (destination_owner_ != ForwardingGraph::kNoNode)
      destination_ingress_permits_ = ForwardingGraph::permits(
          graph.ingress_acl(destination_owner_, destination), destination);
  }

  void solve_all() {
    for (NodeId node = 0; node < graph_.node_count(); ++node) solve_root(node);
  }

  /// Solves one root (and every continuation it reaches), memoizing into
  /// the shared table. Root results are always context-free: every
  /// dependency recorded below a frame is absorbed when that frame pops,
  /// so by the time the (empty-stack) root returns, deps is empty and
  /// the result was memoized by visit() itself. A root already memoized
  /// by an earlier partial solve returns from the memo immediately.
  void solve_root(NodeId node) { (void)visit(node, std::nullopt); }

 private:
  struct Outcome {
    DispositionSet set;
    /// Sorted node ids whose on-stack presence this result depends on;
    /// empty = context-free (memoizable).
    std::vector<uint32_t> deps;
    /// Sorted ids of every node this subtree traversed. Stored with the
    /// memo entry: the result is reusable only by callers whose path
    /// avoids all of them (node-based loop semantics).
    std::vector<uint32_t> footprint;
  };

  static uint64_t state_key(NodeId node, std::optional<uint32_t> label) {
    // label+1 so "no label" (0) never collides with label 0.
    uint64_t label_part = label ? static_cast<uint64_t>(*label) + 1 : 0;
    return (static_cast<uint64_t>(node) << 33) | label_part;
  }

  static void insert_sorted(std::vector<uint32_t>& ids, uint32_t id) {
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) ids.insert(it, id);
  }

  /// into := into ∪ from (both sorted).
  void unite(std::vector<uint32_t>& into, const std::vector<uint32_t>& from) {
    if (from.empty()) return;
    if (into.empty()) {
      into = from;
      return;
    }
    scratch_.clear();
    std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                   std::back_inserter(scratch_));
    into.swap(scratch_);
  }

  Outcome visit(NodeId node, std::optional<uint32_t> label) {
    uint64_t key = state_key(node, label);
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
    if (node_on_stack_[node] > 0) {
      // Device already on the current path (under any label state): the
      // per-flow walker's node-based visited set calls this a loop. The
      // verdict holds only for paths running through that on-stack
      // occurrence, so taint the result with the node — a cycle member
      // reached mid-cycle may still reach exits this truncated branch
      // cannot see, and must not be memoized here.
      Outcome loop;
      loop.set.add(Disposition::kLoop);
      loop.deps.push_back(node);
      loop.footprint.push_back(node);
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
        hit.footprint = it->second.footprint;
        return hit;
      }
    }

    ++node_on_stack_[node];
    Outcome outcome = expand(node, label);
    --node_on_stack_[node];

    insert_sorted(outcome.footprint, node);
    // This frame satisfies its own-node deps.
    auto own = std::lower_bound(outcome.deps.begin(), outcome.deps.end(), node);
    if (own != outcome.deps.end() && *own == node) outcome.deps.erase(own);
    if (outcome.deps.empty()) memo_[key] = {outcome.set, outcome.footprint};
    return outcome;
  }

  /// One step of the per-flow walker, disposition-only: label forwarding
  /// until pop, then IP forwarding. Mirrors Tracer::walk in trace.cpp.
  Outcome expand(NodeId node, std::optional<uint32_t> label) {
    Outcome out;
    if (label) {
      std::span<const ForwardingGraph::Hop> label_hops = graph_.label_hops(node, *label);
      if (label_hops.empty()) return terminal(Disposition::kNoRoute);
      const ForwardingGraph::Hop& action = label_hops.front();  // LSPs do not ECMP
      if (action.label_op != aft::LabelOp::kPop) {
        // Swap and move downstream.
        if (action.next == ForwardingGraph::kNoNode)
          return terminal(Disposition::kNeighborUnreachable);
        follow(out, action.next, action.label);
        return out;
      }
      // Pop: resume IP forwarding on this node, same frame (the walker
      // does not re-check its visited set here).
    }

    if (node == destination_owner_) return terminal(Disposition::kAccepted);

    const ForwardingGraph::Route* route = graph_.route(node, destination_);
    if (route == nullptr || route->hops.empty()) return terminal(Disposition::kNoRoute);

    for (const ForwardingGraph::Hop& hop : route->hops) {
      if (hop.drop) {
        out.set.add(Disposition::kNullRouted);
        continue;
      }
      if (!ForwardingGraph::permits(hop.egress_acl, destination_)) {
        out.set.add(Disposition::kDeniedOut);
        continue;
      }
      if (hop.addressed) {
        if (hop.next == ForwardingGraph::kNoNode) {
          out.set.add(Disposition::kNeighborUnreachable);
          continue;
        }
        if (!ForwardingGraph::permits(hop.ingress_acl, destination_)) {
          out.set.add(Disposition::kDeniedIn);
          continue;
        }
        std::optional<uint32_t> pushed;
        if (hop.label_op == aft::LabelOp::kPush) pushed = hop.label;
        follow(out, hop.next, pushed);
        continue;
      }
      // Attached: forwarding onto a connected subnet.
      if (destination_owner_ != ForwardingGraph::kNoNode) {
        if (!destination_ingress_permits_) {
          out.set.add(Disposition::kDeniedIn);
          continue;
        }
        follow(out, destination_owner_, std::nullopt);
      } else if (graph_.on_connected_subnet(node, destination_)) {
        out.set.add(Disposition::kDeliveredToSubnet);
      } else {
        out.set.add(Disposition::kExitsNetwork);
      }
    }
    return out;
  }

  void follow(Outcome& out, NodeId node, std::optional<uint32_t> label) {
    Outcome child = visit(node, label);
    out.set.merge(child.set);
    unite(out.deps, child.deps);
    unite(out.footprint, child.footprint);
  }

  static Outcome terminal(Disposition disposition) {
    Outcome out;
    out.set.add(disposition);
    return out;
  }

  const ForwardingGraph& graph_;
  net::Ipv4Address destination_;
  ForwardingGraph::NodeId destination_owner_;
  bool destination_ingress_permits_ = true;
  std::unordered_map<uint64_t, TraceMemoEntry>& memo_;
  std::atomic<uint64_t>* reexpansions_;
  obs::Counter* reexpansions_counter_;
  std::vector<uint32_t> node_on_stack_;  // per-node on-chain counts
  std::vector<uint32_t> scratch_;        // unite() buffer
};

DispositionSet no_route() {
  DispositionSet set;
  set.add(Disposition::kNoRoute);
  return set;
}

/// A root's memo key: the node in the unlabelled state.
uint64_t root_key(ForwardingGraph::NodeId node) { return static_cast<uint64_t>(node) << 33; }

}  // namespace

TraceCache::TraceCache(const ForwardingGraph& graph,
                       obs::MetricsRegistry* metrics)
    : graph_(graph) {
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
      ClassSolver solver(graph_, destination, table.memo, &reexpansions_,
                         reexpansions_counter_);
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
    const std::vector<ForwardingGraph::NodeId>& sources, net::Ipv4Address destination) {
  ClassTable& table = slot_for(destination);
  std::vector<DispositionSet> out;
  out.reserve(sources.size());
  std::lock_guard<std::mutex> lock(table.mutex);
  if (!table.fully_solved) {
    ClassSolver solver(graph_, destination, table.memo, &reexpansions_,
                       reexpansions_counter_);
    for (ForwardingGraph::NodeId source : sources)
      if (source != ForwardingGraph::kNoNode) solver.solve_root(source);
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
  for (ForwardingGraph::NodeId source : sources) {
    if (source == ForwardingGraph::kNoNode) {
      out.push_back(no_route());
      continue;
    }
    auto memo_it = table.memo.find(root_key(source));
    out.push_back(memo_it != table.memo.end() ? memo_it->second.set : DispositionSet());
  }
  return out;
}

DispositionSet TraceCache::dispositions(ForwardingGraph::NodeId source,
                                        net::Ipv4Address destination) {
  if (source == ForwardingGraph::kNoNode) return no_route();
  ClassTable& table = table_for(destination);
  auto it = table.memo.find(root_key(source));
  if (it != table.memo.end()) return it->second.set;
  // Unreachable: solve_all memoizes every root (see ClassSolver).
  return {};
}

DispositionSet TraceCache::dispositions(const net::NodeName& source,
                                        net::Ipv4Address destination) {
  return dispositions(graph_.id_of(source).value_or(ForwardingGraph::kNoNode), destination);
}

size_t TraceCache::classes_cached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

}  // namespace mfv::verify
