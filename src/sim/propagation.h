// Policy-driven BGP route propagation.
//
// An event-driven path-vector computation run independently per prefix:
// each AS pulls the routes its neighbors would export to it (relationship
// rules + export rules + community instructions), applies its import policy
// (local preference + relationship tagging), and selects a best route with
// the 7-step decision process.  Announcement events propagate until a
// fixpoint.  With Gao-Rexford-conforming preferences this always converges;
// the deliberately injected atypical preferences are rare and acyclic in a
// hierarchy, but a per-AS processing cap guards against dispute wheels and
// reports non-convergence instead of hanging.
//
// Memory deliberately stays per-prefix: no global Adj-RIB-In is retained.
// A looking-glass Adj-RIB-In is re-derived from the converged per-prefix
// state when it is recorded: `run_simulation` (simulation.h) reads it with
// `flat_adj_rib_in` (flat_engine.h), which runs the same per-arc offer code
// the flat fixpoint pulls its candidates with.  `route_as_received` below
// is the reference engine's copy of those rules, used by
// `compute_prefix_reference` and the reference recorder `record_prefix`.
//
// Concurrency model
// -----------------
// Every flat program (`converge_cold`, the batch runner's ranges, a delta
// wave; flat_engine.h) is a function of (context, originations, failures,
// options) that writes only the states and the `FlatScratch` it is
// handed — the graph, policy set, context, and failure set are read-only
// for its whole duration.  Any number of them may therefore run
// concurrently over the same graph/policies/failures, each in its own
// leased scratch.  Higher layers exploit exactly this: run_simulation
// (simulation.h) and churn's initial run (churn.h) cut their origination
// lists into contiguous ranges across a util::ThreadPool (util/parallel.h)
// and churn's steps shard their prefixes one per task; each worker
// converges — and reads the routes it records out of the state — and the
// calling thread merges the results in origination order, so recorded
// tables and counters are byte-identical for every thread count, including
// `threads = 1` (which runs everything on the calling thread).  Callers must NOT mutate the graph, policies, or failure set
// while a parallel region is in flight; mutation between regions (as churn
// does) is fine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "sim/policy.h"
#include "topology/as_graph.h"

namespace bgpolicy::sim {

/// One (prefix, origin AS) announcement into the system.
struct Origination {
  bgp::Prefix prefix;
  AsNumber origin;
  friend bool operator==(const Origination&, const Origination&) = default;
};

template <typename V>
constexpr void fields(V& v, Origination& o) {
  v("prefix", o.prefix);
  v("origin", o.origin);
}
static_assert(util::lists_every_member<Origination>());

struct PropagationOptions {
  /// Max times a single AS may recompute for one prefix before the engine
  /// declares non-convergence (dispute-wheel guard).
  std::size_t max_process_per_as = 100;

  /// Worker-thread count for whole-simulation runs (run_simulation, churn
  /// re-propagation).  0 = hardware concurrency, 1 = single-threaded (the
  /// exact seed program).  Each individual prefix fixpoint is always
  /// sequential; output is byte-identical for every value (see the
  /// "Concurrency model" section above).  core::Experiment threads the
  /// same knob into every stage it runs (asrel::GaoParams::threads for
  /// relationship voting, core::run_analysis_suite for the per-table
  /// analyses; path indexing is one sequential pass).  All stages share
  /// one determinism contract (docs/ARCHITECTURE.md).
  std::size_t threads = 1;

  friend bool operator==(const PropagationOptions&, const PropagationOptions&) =
      default;
};

/// A set of failed inter-AS sessions (undirected).  Failure injection: no
/// route crosses a failed edge, and conditional advertisements watching a
/// failed session become active (paper Section 5.1.5, reference [18]).
class FailedEdges {
 public:
  void fail(AsNumber a, AsNumber b);
  void restore(AsNumber a, AsNumber b);
  [[nodiscard]] bool is_failed(AsNumber a, AsNumber b) const;
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  /// The failed pairs in canonical form (smaller AS first), sorted — the
  /// order-free representation `sim::Perturbation::edge_delta` diffs to
  /// sync a warm delta state to the current world.
  [[nodiscard]] std::vector<std::pair<AsNumber, AsNumber>> edges() const;

 private:
  static std::uint64_t key(AsNumber a, AsNumber b);
  std::unordered_set<std::uint64_t> edges_;
};

/// Converged routing state for one prefix.
struct PrefixRouting {
  Origination origination;
  /// Best route per AS; ASes with no route to the prefix are absent.
  /// Stored paths do NOT include the owning AS itself (Adj-RIB-In form);
  /// local_pref reflects the owning AS's import policy.
  std::unordered_map<AsNumber, bgp::Route> best;
  bool converged = true;
  std::size_t process_events = 0;

  [[nodiscard]] const bgp::Route* best_at(AsNumber as) const {
    const auto it = best.find(as);
    return it == best.end() ? nullptr : &it->second;
  }
};

class PropagationEngine;

/// The one-shot convenience entry: the converged routing state for one
/// origination, `failed` nullptr for a healthy network.  Runs the flat
/// engine (sim/flat_engine.h, `compute_prefix_flat`), whose routes are
/// identical to `compute_prefix_reference`'s for every input.  It builds
/// the flat context and scratch per call; many-prefix loops build one
/// `FlatSimContext` and converge into leased scratches (`converge_cold`).
[[nodiscard]] PrefixRouting compute_prefix(const topo::AsGraph& graph,
                                           const PolicySet& policies,
                                           const Origination& origination,
                                           const FailedEdges* failed,
                                           const PropagationOptions& options = {});

/// The seed per-event fixpoint, kept verbatim as the executable
/// specification of `compute_prefix`: hash-map state, heap-allocated
/// candidate routes, one `route_as_received` per neighbor per event.  The
/// golden equivalence suite (tests/sim/flat_equivalence_test.cc) and the
/// propagation-throughput benches diff the flat engine against this.
[[nodiscard]] PrefixRouting compute_prefix_reference(
    const topo::AsGraph& graph, const PolicySet& policies,
    const Origination& origination, const FailedEdges* failed,
    const PropagationOptions& options = {});

/// The reference engine's per-arc route rules (`route_as_received`), used
/// by `compute_prefix_reference` and the reference recorder `record_prefix`.
class PropagationEngine {
 public:
  /// `graph`, `policies` and a non-null `failures` must outlive the
  /// engine; `failures` nullptr (the default) is a healthy network.
  PropagationEngine(const topo::AsGraph& graph, const PolicySet& policies,
                    const FailedEdges* failures = nullptr);

  /// The route `receiver` would hold in its Adj-RIB-In from `sender`, given
  /// `sender`'s converged best route (nullptr = no route).  Applies
  /// sender's relationship export rule + export policy + community
  /// instructions, then receiver's loop check and import policy.  Returns
  /// nullopt when nothing is announced over that edge.
  [[nodiscard]] std::optional<bgp::Route> route_as_received(
      AsNumber sender, const bgp::Route* sender_best,
      const Origination& origination, AsNumber receiver) const;

  [[nodiscard]] const topo::AsGraph& graph() const { return *graph_; }
  [[nodiscard]] const PolicySet& policies() const { return *policies_; }

 private:
  // compute_prefix_reference is the out-of-class seed fixpoint; it needs
  // self_route and the engine's receive path.
  friend PrefixRouting compute_prefix_reference(const topo::AsGraph&,
                                                const PolicySet&,
                                                const Origination&,
                                                const FailedEdges*,
                                                const PropagationOptions&);

  /// The self-originated route the origin AS installs.
  [[nodiscard]] bgp::Route self_route(const Origination& origination) const;

  /// Export-side half of route_as_received: what `sender` puts on the wire
  /// toward `receiver` (no import transform yet).  `receiver_rel` is what
  /// the receiver is to the sender — the caller already resolved the
  /// adjacency once and hands down both perspectives.
  [[nodiscard]] std::optional<bgp::Route> exported_route(
      AsNumber sender, const bgp::Route& sender_best,
      const Origination& origination, AsNumber receiver,
      RelKind receiver_rel) const;

  const topo::AsGraph* graph_;
  const PolicySet* policies_;
  const FailedEdges* failures_;
};

}  // namespace bgpolicy::sim
