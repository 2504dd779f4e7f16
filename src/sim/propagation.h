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
// the flat fixpoint pulls its candidates with.  The seed engine those rules
// are checked against lives outside the library, in
// tests/testing/propagation_reference.h.
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

/// The one-shot convenience entry: the converged routing state for one
/// origination, `failed` nullptr for a healthy network.  Runs the flat
/// engine (sim/flat_engine.h, `compute_prefix_flat`), whose routes are
/// identical to the seed engine's (`testing::compute_prefix_reference`)
/// for every input.  It builds the flat context and scratch per call;
/// many-prefix loops build one `FlatSimContext` and converge into leased
/// scratches (`converge_cold`).
[[nodiscard]] PrefixRouting compute_prefix(const topo::AsGraph& graph,
                                           const PolicySet& policies,
                                           const Origination& origination,
                                           const FailedEdges* failed,
                                           const PropagationOptions& options = {});

}  // namespace bgpolicy::sim
