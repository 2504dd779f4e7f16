// Time-stepped policy churn for the persistence study (Figs. 6-7).
//
// Each step toggles a sample of the recorded selective-announcement units
// (a withheld prefix becomes announced, or vice versa), re-propagates only
// the affected prefixes, and keeps per-step best-route state for a small
// set of watched provider ASes — exactly what the paper's daily RouteViews
// snapshots of March 2002 provided for AS1.
//
// Re-propagation is incremental by default: the simulator keeps one warm
// `DeltaState` per churned prefix and replays only the dirty frontier of
// each flip (the toggled (origin, provider) export pair) instead of the
// full fixpoint — see sim/delta_engine.h.  The initial run goes through
// the batch runner (`converge_batch`, sim/flat_engine.h), which converges
// each origin's prefix-agnostic base once and derives its proven-unique
// prefixes from it by pruned waves; a prefix's first touch by a step
// converges alone in the order the static wedgie oracle allows
// (`converge_cold`).  `ChurnParams::incremental = false` restores cold
// per-prefix recomputation in exact order (`converge_exact`), the
// reference; both modes produce identical watched tables (golden-tested
// in tests/sim/delta_equivalence_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.h"
#include "bgp/route.h"
#include "sim/delta_engine.h"
#include "sim/flat_engine.h"
#include "sim/policy_gen.h"
#include "sim/propagation.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace bgpolicy::sim {

struct ChurnParams {
  std::uint64_t seed = 777;
  /// Fraction of toggleable units flipped per step.
  double flip_fraction = 0.015;
  /// Warm-start delta propagation per step (the default).  false = cold
  /// per-prefix recomputation in exact order (`converge_exact`, no oracle)
  /// — kept as the executable reference the equivalence tests and the
  /// delta bench diff against.
  bool incremental = true;
  /// Propagation options for the initial run and per-step re-propagation;
  /// `propagation.threads` shards prefixes across workers with results
  /// applied in deterministic order (see propagation.h "Concurrency model").
  PropagationOptions propagation;
};

class ChurnSimulator {
 public:
  /// Takes ownership of mutable policies and the ground-truth units; the
  /// graph must outlive the simulator.
  ChurnSimulator(const topo::AsGraph& graph, PolicySet policies,
                 std::vector<Origination> originations, GroundTruth truth,
                 std::vector<AsNumber> watch, ChurnParams params);

  /// Initial full propagation; must be called once before step().
  void run_initial();

  /// Applies one step of policy churn and re-propagates affected prefixes.
  /// Returns the prefixes whose routing was recomputed.
  std::vector<bgp::Prefix> step();

  /// Best routes currently held by a watched AS, keyed by prefix.
  [[nodiscard]] const std::unordered_map<bgp::Prefix, bgp::Route>& watched(
      AsNumber as) const;

  /// Borrows a long-lived executor for re-propagation instead of the
  /// simulator lazily creating its own (run_persistence_study shares one
  /// executor between churn stepping and the snapshot analyses).  The
  /// executor must outlive the simulator; pass nullptr to revert to the
  /// internal one.  Worker count never changes results (propagation.h).
  void set_executor(const util::Executor* executor) { executor_ = executor; }

  [[nodiscard]] const GroundTruth& truth() const { return truth_; }
  [[nodiscard]] std::size_t origination_count() const {
    return originations_.size();
  }
  /// Warm delta states currently held (incremental mode; 0 when cold).
  [[nodiscard]] std::size_t warm_state_count() const { return warm_.size(); }
  /// Re-propagations answered from the per-world memo without any fixpoint
  /// work (incremental mode; see the memo note in the private section).
  [[nodiscard]] std::size_t memo_hits() const { return memo_hits_; }
  /// The warm delta state of one prefix, nullptr when none is held —
  /// bench/test introspection (e.g. counting order-sensitive states).
  [[nodiscard]] const DeltaState* warm_state(const bgp::Prefix& prefix) const {
    const auto it = warm_.find(prefix);
    return it == warm_.end() ? nullptr : it->second.get();
  }

 private:
  /// Re-propagates the given prefixes (sharded across
  /// params.propagation.threads workers) and applies the watched-table
  /// updates sequentially in `prefixes` order.  The reference mode
  /// (non-incremental) cold-converges each prefix in exact order; an
  /// incremental step answers a prefix from the per-world memo when
  /// possible, otherwise delta-syncs its warm state to the current world
  /// (a prefix without a warm state is cold-converged against the
  /// already-mutated policies).
  void repropagate(std::span<const bgp::Prefix> prefixes);

  /// The worker pool for `work` jobs: the shared executor's, else one the
  /// simulator creates on first need and keeps; nullptr runs inline.
  [[nodiscard]] util::ThreadPool* pool(std::size_t work);

  /// Writes one prefix's watched rows (one slot per watch_ AS) into the
  /// watched tables.
  void apply_rows(const bgp::Prefix& prefix,
                  const std::vector<std::optional<bgp::Route>>& rows);

  /// The withheld-flag world a prefix's policies currently encode (bit b =
  /// units_of_[prefix][b]'s withheld flag).
  [[nodiscard]] std::uint64_t world_of(const bgp::Prefix& prefix) const;

  /// Watched-table rows for one converged prefix (one slot per watch_ AS).
  [[nodiscard]] std::vector<std::optional<bgp::Route>> watch_rows(
      const FlatSimContext& context, const Origination& origination,
      const FlatRoutingState& state) const;

  const topo::AsGraph* graph_;
  /// Behind a unique_ptr: delta_'s context points into it, and the
  /// simulator must stay movable.
  std::unique_ptr<PolicySet> policies_;
  std::vector<Origination> originations_;
  std::unordered_map<bgp::Prefix, Origination> by_prefix_;
  GroundTruth truth_;
  /// Indices into truth_.origin_units that are plain-deny units (the
  /// toggleable population; community-flavored units stay fixed).
  std::vector<std::size_t> toggleable_;
  std::vector<AsNumber> watch_;
  std::unordered_map<AsNumber, std::unordered_map<bgp::Prefix, bgp::Route>>
      watched_;
  util::Rng rng_;
  ChurnParams params_;
  /// Externally shared executor (set_executor), else lazily created from
  /// params.propagation.threads on the first multi-prefix repropagation and
  /// reused across steps.
  const util::Executor* executor_ = nullptr;
  std::unique_ptr<util::Executor> owned_executor_;
  /// Built once in the ctor with its context (the graph never changes);
  /// per step only the flipped origins' policy pointers are refreshed in
  /// place.  Its context also serves the incremental mode's initial run.
  std::unique_ptr<DeltaEngine> delta_;
  /// One warm converged state per churned prefix, created on first touch
  /// (memory scales with the churned population, not the origination
  /// count) and delta-stepped on every later flip.
  std::unordered_map<bgp::Prefix, std::unique_ptr<DeltaState>> warm_;
  /// A prefix's toggleable unit indices (into truth_.origin_units), the
  /// bit order of its world masks.
  std::unordered_map<bgp::Prefix, std::vector<std::size_t>> units_of_;
  /// The withheld-flag world each warm state is currently converged under.
  std::unordered_map<bgp::Prefix, std::uint64_t> state_world_;
  /// Memoized watched-table rows per (prefix, world).  A prefix's routing
  /// depends only on its own units' withheld flags (other prefixes' export
  /// rules never match it), so a revisited world's rows are provably
  /// identical to recomputation: the fixpoint is unique for
  /// order-insensitive prefixes, and order-sensitive states replay the
  /// exact cold trajectory, which is a function of the world alone.  A
  /// row cache layered on warm_, not a second state cache: a hit leaves
  /// the warm state unsynced, and the next miss re-syncs it with one delta
  /// wave across every flag that drifted.  Hits need a prefix to revisit
  /// a world, so they dominate long runs that flip the same few units back
  /// and forth (bench_delta_propagation) and are rare in short ones.
  std::unordered_map<bgp::Prefix,
                     std::unordered_map<std::uint64_t,
                                        std::vector<std::optional<bgp::Route>>>>
      memo_;
  std::size_t memo_hits_ = 0;
  /// Warmed per-worker scratches every job leases (cold converge, warm
  /// converge and delta wave alike).
  std::unique_ptr<FlatScratchPool> scratches_ =
      std::make_unique<FlatScratchPool>();
  bool initialized_ = false;
};

}  // namespace bgpolicy::sim
