// Incremental delta propagation: warm-start fixpoints for churn stepping,
// event timelines, and what-if queries.
//
// The cold program (`converge_cold`) pays the full fixpoint even when one
// export rule flipped or one session failed.  `DeltaEngine` instead keeps the
// converged `FlatRoutingState` of an origination alive (`DeltaState`) and,
// given a perturbation, seeds the event queue with only the *dirty
// frontier* — the ASes whose best route can possibly change first:
//
//   * both endpoints of every failed/restored session (their candidate
//     sets gained or lost an edge);
//   * the `advertise_to` target of every conditional advertisement
//     watching a failed/restored session (the backup announcement toggles
//     with the watched session's health);
//   * the neighbor of every changed (sender, neighbor) export pair, plus
//     the ASes whose current best path crosses that pair as consecutive
//     hops (their route was built from the now-changed export);
//   * every AS whose current best path crosses a failed session as
//     consecutive hops — found by walking the interned `PathTable` parent
//     chains once per distinct path node (memoized per wave), so the scan
//     is O(live path nodes), not O(ASes x path length).
//
// Then the *standard* event loop (`run_flat_fixpoint` — the same code the
// cold program runs) replays until quiescent.  Seeding is a superset
// heuristic: processing an AS whose inputs did not change re-selects the
// same route and propagates nothing, so extra seeds cost one event each,
// never correctness.  An AS whose route must change is either seeded
// directly (its in-edges changed or its current path is stale) or hears
// about it transitively from a seeded AS — exactly how BGP itself
// converges after a localized change.
//
// Determinism: when every AS prefers customer-learned routes (the
// Gao-Rexford condition) the per-origination fixpoint is *unique*, so the
// warm replay provably lands on state value-identical to a cold
// recomputation under the same failure set.  The synthesized policies,
// however, deliberately include atypical assignments (the paper's Fig. 2
// deviations) that violate that condition, and such instances can admit
// several stable fixpoints (RFC 4264 "wedgies") — a warm start may then
// legitimately converge to a different one than a cold run, with no local
// signal: the wedgie pivot may be exercised only in the *cold* trajectory
// while every warm selection looks typical.  Order-sensitivity is
// therefore decided *statically*, per origination, before the first
// fixpoint runs: the static wedgie oracle lives in the flat core, as the
// first step of `converge_cold` (flat_engine.h), and the stats it returns
// carry its verdict.  It BFS-es the origin's uphill cone and, at every
// provider of a cone member, checks that no non-customer rival can rank
// at or above the customer offer and that no prefix pin applies; it reads
// the compiled `FlatSimContext` arcs the fixpoint reads and keeps no copy
// of the import rule of its own.  Failures only remove candidates, so the
// verdict holds for every failure set a state later moves to.
//
// `converge` runs `converge_cold` in the caller's warmed `FlatScratch` and
// deep-copies the converged state into the new `DeltaState`
// (`FlatRoutingState::assign_from`), instead of growing a fresh state's
// columns, hash tables and arena blocks from empty.  A proven-unique
// origination converges with the pruned fan-out and its later waves
// replay only the dirty frontier, also pruned: on a unique fixpoint every
// order lands on the same routes.  A flagged origination converges in
// exact order, is marked order-sensitive, and every wave replays the
// *exact cold trajectory* in place (`converge_exact` into the state
// itself, reusing its arena and interned tables), which is cold-identical
// by construction.  As defense in depth the engine also watches
// `FixpointStats::inversion_selections` (an exercised atypical
// preference): a pruned run — the first converge or a wave — that trips
// it, or the per-AS cap, is discarded and redone exactly, and the mark is
// sticky.  Equivalence is golden-tested route-for-route against exact-order
// cold runs at several thread counts (tests/sim/delta_equivalence_test.cc)
// and attacked with random worlds (tests/sim/oracle_fuzz_test.cc); only the
// trajectory counters (`process_events`, the non-convergence flag's wave
// scope) differ from a cold run, which is why equivalence is defined over
// the best-route map.
//
// Concurrency: the engine owns the `FlatSimContext` its waves read and is
// shareable while no `refresh_policies` runs; each DeltaState is owned by
// exactly one caller at a time, and every converge/apply runs in the
// caller's `FlatScratch` (the churn simulator shards states across
// workers, each with a scratch leased from its one `FlatScratchPool`).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/flat_engine.h"
#include "sim/propagation.h"

namespace bgpolicy::sim {

/// A batch of world changes applied between two converged states.
/// Origination announce/withdraw is structural, not a Perturbation: a
/// withdrawn origination's DeltaState is dropped, an announced one is
/// cold-converged on first use (see the Timeline in core/spec_verify.cc).
struct Perturbation {
  /// Sessions that went down (no route crosses them; conditional
  /// advertisements watching them become active).
  std::vector<std::pair<AsNumber, AsNumber>> fail_edges;
  /// Sessions that came back up.
  std::vector<std::pair<AsNumber, AsNumber>> restore_edges;
  /// Export policy of `first` toward the specific neighbor `second`
  /// changed (the selective-announcement toggle): invalidates exactly the
  /// routes crossing that adjacency.
  std::vector<std::pair<AsNumber, AsNumber>> export_changed;

  [[nodiscard]] bool empty() const {
    return fail_edges.empty() && restore_edges.empty() &&
           export_changed.empty();
  }

  /// The edge-set delta turning the world `from` into `to`: fail every
  /// edge in `to` missing from `from`, restore the reverse.  How a cached
  /// state whose failure set drifted from the current world is re-synced
  /// without replaying an event log.
  [[nodiscard]] static Perturbation edge_delta(const FailedEdges& from,
                                               const FailedEdges& to);
};

/// What one incremental wave did: the seeded dirty frontier, every AS the
/// replay actually processed (a superset of the ASes whose route changed —
/// the containment the unit tests pin), and the loop stats.
struct DeltaWave {
  std::vector<topo::GraphView::Id> frontier;  // seeds, in seeding order
  std::vector<topo::GraphView::Id> touched;   // processed >= once, id order
  std::size_t events = 0;
  bool converged = true;
  /// True when the wave replayed the exact cold trajectory (the state is
  /// order-sensitive, or the frontier replay tripped the inversion
  /// trigger and was redone).  `events` then counts the exact replay.
  bool exact = false;
};

/// One origination's persistent converged routing state plus the failure
/// set it converged under.  Create empty, then DeltaEngine::converge.
class DeltaState {
 public:
  DeltaState() = default;
  DeltaState(const DeltaState&) = delete;
  DeltaState& operator=(const DeltaState&) = delete;

  [[nodiscard]] const Origination& origination() const { return origination_; }
  [[nodiscard]] const FailedEdges& failed() const { return failed_; }
  [[nodiscard]] bool initialized() const { return initialized_; }
  /// False once any wave (or the initial converge) tripped the per-AS cap.
  [[nodiscard]] bool converged() const { return converged_; }
  /// Cumulative process events across the initial converge and every wave.
  [[nodiscard]] std::size_t process_events() const { return process_events_; }
  /// True when the static oracle found an atypical preference reachable
  /// for this prefix, or a pruned run exercised one or tripped the per-AS
  /// cap (see the determinism note in the header comment): waves on such
  /// a state always replay the exact cold trajectory.
  [[nodiscard]] bool order_sensitive() const { return order_sensitive_; }
  /// The converged flat state, read with the engine's context (e.g.
  /// `flat_route_at(engine.context(), origination(), routing(), as)`).
  [[nodiscard]] const FlatRoutingState& routing() const { return state_; }

  /// Deep copy: the clone owns all of its storage (interned tables
  /// included) and can be perturbed independently — how what-if queries
  /// branch off a shared base state without touching it.
  void assign_from(const DeltaState& other);

 private:
  friend class DeltaEngine;

  Origination origination_{};
  FailedEdges failed_;
  FlatRoutingState state_;
  bool initialized_ = false;
  bool converged_ = true;
  bool order_sensitive_ = false;  // sticky across waves
  std::size_t process_events_ = 0;
};

class DeltaEngine {
 public:
  /// Builds the engine's own `FlatSimContext` over (graph, policies); both
  /// must outlive the engine.  `options.threads` is not used here — each
  /// state's waves are sequential; callers shard *states* across workers
  /// (churn.cc) exactly like cold per-prefix fixpoints.
  DeltaEngine(const topo::AsGraph& graph, const PolicySet& policies,
              PropagationOptions options)
      : context_(graph, policies), options_(options) {}

  [[nodiscard]] const FlatSimContext& context() const { return context_; }
  [[nodiscard]] const PropagationOptions& options() const { return options_; }

  /// Recompiles the context's tables for `changed` ASes after the owning
  /// PolicySet mutated in place (FlatSimContext::refresh_policies,
  /// O(degree of the changed ASes)).  Must not run concurrently with any
  /// converge/apply on this engine.
  void refresh_policies(std::span<const AsNumber> changed) {
    context_.refresh_policies(changed);
  }

  /// Cold-converges `state` for `origination` under `failed` (copied into
  /// the state; nullptr = healthy): `converge_cold` in `scratch`, copied
  /// into the state's own routing state, so materialize() afterwards
  /// equals compute_prefix_flat.  The oracle's verdict in the returned
  /// stats sets `order_sensitive()`.
  void converge(const Origination& origination, const FailedEdges* failed,
                DeltaState& state, FlatScratch& scratch) const;

  /// Applies a perturbation to a converged state: folds the edge changes
  /// into the state's failure set, seeds the dirty frontier, and replays
  /// the standard event loop to quiescence.  Order-sensitive states (and
  /// waves that trip the inversion trigger) replay the exact cold
  /// trajectory instead — see the determinism note.  The caller has
  /// already applied any export change to the owning PolicySet and
  /// refreshed the engine's context (refresh_policies).
  DeltaWave apply(DeltaState& state, const Perturbation& perturbation,
                  FlatScratch& scratch) const;

  /// Full value-typed routing of the state's world.  The best map equals a
  /// cold compute_prefix_flat under state.failed(); converged /
  /// process_events reflect the state's incremental history (see the
  /// determinism note in the header comment).
  [[nodiscard]] PrefixRouting materialize(const DeltaState& state) const;

  /// Best route of one AS without materializing the whole table.
  [[nodiscard]] std::optional<bgp::Route> route_at(const DeltaState& state,
                                                   AsNumber as) const;

 private:
  /// In-place exact-trajectory replay under the state's current inputs:
  /// `converge_exact` into the state (arena and interned-table capacity
  /// kept).  Cold-identical by construction.
  FixpointStats exact_replay(DeltaState& state, FlatScratch& scratch) const;

  FlatSimContext context_;
  PropagationOptions options_;
};

}  // namespace bgpolicy::sim
