#include "sim/delta_engine.h"

#include <algorithm>

#include "util/ensure.h"

namespace bgpolicy::sim {

Perturbation Perturbation::edge_delta(const FailedEdges& from,
                                      const FailedEdges& to) {
  Perturbation out;
  for (const auto& [a, b] : to.edges()) {
    if (!from.is_failed(a, b)) out.fail_edges.emplace_back(a, b);
  }
  for (const auto& [a, b] : from.edges()) {
    if (!to.is_failed(a, b)) out.restore_edges.emplace_back(a, b);
  }
  return out;
}

void DeltaState::assign_from(const DeltaState& other) {
  origination_ = other.origination_;
  failed_ = other.failed_;
  state_.assign_from(other.state_);
  initialized_ = other.initialized_;
  converged_ = other.converged_;
  order_sensitive_ = other.order_sensitive_;
  process_events_ = other.process_events_;
}

// ----------------------------------------------------------------- DeltaEngine

void DeltaEngine::converge(const Origination& origination,
                           const FailedEdges* failed, DeltaState& st,
                           FlatScratch& scratch) const {
  st.origination_ = origination;
  st.failed_ = failed != nullptr ? *failed : FailedEdges{};
  // Converge in the scratch's warmed state and copy the result out: one
  // sized copy per column and table, where converging into the state
  // would grow each of them from empty.
  const FixpointStats stats = converge_cold(
      context_, origination, &st.failed_, options_, scratch, scratch.state());
  st.state_.assign_from(scratch.state());
  st.converged_ = stats.converged;
  // The oracle's verdict: an origination that ran in exact order was
  // flagged, or its pruned run tripped the inversion trigger or the cap.
  st.order_sensitive_ = stats.order == FixpointOrder::kExact;
  st.process_events_ = stats.events;
  st.initialized_ = true;
}

FixpointStats DeltaEngine::exact_replay(DeltaState& st,
                                        FlatScratch& scratch) const {
  const FixpointStats stats = converge_exact(
      context_, st.origination_, &st.failed_, options_, scratch, st.state_);
  st.converged_ = stats.converged;
  return stats;
}

DeltaWave DeltaEngine::apply(DeltaState& st, const Perturbation& p,
                             FlatScratch& scratch) const {
  util::ensure_state(st.initialized_, "delta: apply before converge");
  using Id = topo::GraphView::Id;
  const topo::GraphView& view = context_.view();
  FlatRoutingState& s = st.state_;

  DeltaWave wave;
  if (p.empty()) return wave;

  // Fold the session changes into the state's failure set first: frontier
  // seeding and the replay both consult the *new* world.
  for (const auto& [a, b] : p.fail_edges) st.failed_.fail(a, b);
  for (const auto& [a, b] : p.restore_edges) st.failed_.restore(a, b);

  FixpointQueue& queue = scratch.queue_;
  const auto finish_exact = [&](const FixpointStats& stats) {
    wave.exact = true;
    wave.events = stats.events;
    wave.converged = stats.converged;
    st.process_events_ += stats.events;
    for (Id id = 0; id < static_cast<Id>(s.size()); ++id) {
      if (queue.processed[id] > 0) wave.touched.push_back(id);
    }
    return wave;
  };

  // An order-sensitive state may hold one of several stable fixpoints; a
  // frontier-seeded replay could converge to a different one than a cold
  // run.  Only the exact cold trajectory is guaranteed identical.
  if (st.order_sensitive_) return finish_exact(exact_replay(st, scratch));

  queue.reset(s.size());

  const auto seed = [&](Id id) {
    if (id == topo::GraphView::kInvalidId) return;
    if (queue.queued(id)) return;
    queue.enqueue(id);
    wave.frontier.push_back(id);
  };

  // A conditional advertisement watching the toggled session flips its
  // suppression, so the backup target's candidate set changes even though
  // no route of its own crossed the session.
  const auto seed_conditional_targets = [&](AsNumber endpoint,
                                            AsNumber other) {
    const Id id = view.id_of(endpoint);
    if (id == topo::GraphView::kInvalidId) return;
    const AsPolicy* policy = context_.policy_if_present(id);
    if (policy == nullptr) return;
    for (const auto& cond : policy->conditional) {
      if (cond.watch_provider == other &&
          cond.prefix == st.origination_.prefix) {
        seed(view.id_of(cond.advertise_to));
      }
    }
  };

  // Canonical undirected consecutive-hop key for the stale-path scan.
  // std::minmax returns references, so it must see locals, never the
  // temporaries value() returns.
  const auto pair_key = [](AsNumber a, AsNumber b) {
    const std::uint32_t x = a.value();
    const std::uint32_t y = b.value();
    const auto [lo, hi] = std::minmax(x, y);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };

  // Edges whose loss/change invalidates paths crossing them (restored
  // edges only *add* candidates — existing best paths stay valid).
  std::vector<std::uint64_t> dirty_pairs;

  for (const auto& [a, b] : p.fail_edges) {
    seed(view.id_of(a));
    seed(view.id_of(b));
    seed_conditional_targets(a, b);
    seed_conditional_targets(b, a);
    dirty_pairs.push_back(pair_key(a, b));
  }
  for (const auto& [a, b] : p.restore_edges) {
    seed(view.id_of(a));
    seed(view.id_of(b));
    seed_conditional_targets(a, b);
    seed_conditional_targets(b, a);
  }
  for (const auto& [sender, neighbor] : p.export_changed) {
    // The neighbor re-pulls from the sender; routes built across the pair
    // are invalidated via the path scan.  The sender's own route is
    // untouched by its export policy.
    seed(view.id_of(neighbor));
    dirty_pairs.push_back(pair_key(sender, neighbor));
  }

  std::sort(dirty_pairs.begin(), dirty_pairs.end());
  dirty_pairs.erase(std::unique(dirty_pairs.begin(), dirty_pairs.end()),
                    dirty_pairs.end());

  // Seed every AS whose current best path is stale: it crosses a dirty
  // pair as consecutive hops.  (An AS whose *first* hop crosses a dirty
  // pair is one of the pair's endpoints and already seeded.)  The walk is
  // memoized per interned path node, so shared path suffixes are
  // classified once.
  if (!dirty_pairs.empty()) {
    scratch.mark_.resize(s.paths.node_count(), 0);
    ++scratch.epoch_;
    const auto path_dirty = [&](std::uint32_t node) {
      scratch.chain_.clear();
      std::uint32_t cur = node;
      bool dirty = false;
      while (cur != PathTable::kEmptyPath) {
        const std::uint64_t mark = scratch.mark_[cur];
        if ((mark >> 1) == scratch.epoch_) {
          dirty = (mark & 1) != 0;
          break;
        }
        scratch.chain_.push_back(cur);
        cur = s.paths.parent(cur);
      }
      for (auto it = scratch.chain_.rbegin(); it != scratch.chain_.rend();
           ++it) {
        const std::uint32_t id = *it;
        const std::uint32_t parent = s.paths.parent(id);
        if (!dirty && parent != PathTable::kEmptyPath &&
            std::binary_search(
                dirty_pairs.begin(), dirty_pairs.end(),
                pair_key(s.paths.front(id), s.paths.front(parent)))) {
          dirty = true;
        }
        scratch.mark_[id] = (scratch.epoch_ << 1) | (dirty ? 1 : 0);
      }
      return dirty;
    };
    for (Id id = 0; id < static_cast<Id>(s.size()); ++id) {
      if (s.has_best[id] == 0) continue;
      const std::uint32_t path = s.best_path[id];
      if (path == PathTable::kEmptyPath) continue;
      if (path_dirty(path)) seed(id);
    }
  }

  // Replay the standard event loop to quiescence.  The oracle proved this
  // prefix's fixpoint unique, so the pruned fan-out (filtered_enqueue)
  // lands on the same state as the unfiltered cold trajectory.
  const FixpointStats stats =
      run_flat_fixpoint(context_, st.origination_, &st.failed_, options_,
                        queue, s, /*filtered_enqueue=*/true);

  // The replay exercised an atypical preference (or tripped the per-wave
  // cap): the result may be a different stable fixpoint than cold's.
  // Discard it and redo the exact trajectory; the mark is sticky, so
  // later waves skip the doomed frontier attempt.
  if (stats.inversion_selections > 0 || !stats.converged) {
    st.order_sensitive_ = true;
    return finish_exact(exact_replay(st, scratch));
  }

  wave.events = stats.events;
  wave.converged = stats.converged;
  st.converged_ = st.converged_ && stats.converged;
  st.process_events_ += stats.events;

  for (Id id = 0; id < static_cast<Id>(s.size()); ++id) {
    if (queue.processed[id] > 0) wave.touched.push_back(id);
  }
  return wave;
}

PrefixRouting DeltaEngine::materialize(const DeltaState& st) const {
  util::ensure_state(st.initialized_, "delta: materialize before converge");
  return materialize_routing(context_, st.origination_, st.state_,
                             st.converged_, st.process_events_);
}

std::optional<bgp::Route> DeltaEngine::route_at(const DeltaState& st,
                                                AsNumber as) const {
  util::ensure_state(st.initialized_, "delta: route_at before converge");
  return flat_route_at(context_, st.origination_, st.state_, as);
}

}  // namespace bgpolicy::sim
