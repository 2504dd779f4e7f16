// The seed propagation engine and its recorder: the executable
// specification the flat core (sim/flat_engine.h) is checked against.
//
// `compute_prefix_reference` is the seed per-event fixpoint kept verbatim:
// hash-map state, heap-allocated candidate routes, one `route_as_received`
// per neighbor per event.  `record_prefix` records one converged prefix
// into the vantage tables through the same per-arc rules, and
// `reference_simulation` runs both over an origination list in order —
// what `sim::run_simulation` at threads = 1 was before the flat core
// landed.  The golden equivalence tests, the oracle fuzzer,
// `bench_sim_scaling` and `bench_micro_algorithms` link them; the library
// keeps only the flat engine.
#pragma once

#include <optional>
#include <span>

#include "bgp/route.h"
#include "sim/policy.h"
#include "sim/propagation.h"
#include "sim/simulation.h"
#include "topology/as_graph.h"

namespace bgpolicy::testing {

using util::AsNumber;

class PropagationEngine;

/// The seed per-event fixpoint: the converged routing state for one
/// origination, `failed` nullptr for a healthy network.  Its routes equal
/// `sim::compute_prefix`'s for every input, and its `process_events` the
/// flat core's in exact order (`sim::converge_exact`).
[[nodiscard]] sim::PrefixRouting compute_prefix_reference(
    const topo::AsGraph& graph, const sim::PolicySet& policies,
    const sim::Origination& origination, const sim::FailedEdges* failed,
    const sim::PropagationOptions& options = {});

/// The reference engine's per-arc route rules (`route_as_received`), used
/// by `compute_prefix_reference` and the reference recorder `record_prefix`.
class PropagationEngine {
 public:
  /// `graph`, `policies` and a non-null `failures` must outlive the
  /// engine; `failures` nullptr (the default) is a healthy network.
  PropagationEngine(const topo::AsGraph& graph, const sim::PolicySet& policies,
                    const sim::FailedEdges* failures = nullptr);

  /// The route `receiver` would hold in its Adj-RIB-In from `sender`, given
  /// `sender`'s converged best route (nullptr = no route).  Applies
  /// sender's relationship export rule + export policy + community
  /// instructions, then receiver's loop check and import policy.  Returns
  /// nullopt when nothing is announced over that edge.
  [[nodiscard]] std::optional<bgp::Route> route_as_received(
      AsNumber sender, const bgp::Route* sender_best,
      const sim::Origination& origination, AsNumber receiver) const;

  [[nodiscard]] const topo::AsGraph& graph() const { return *graph_; }

 private:
  // compute_prefix_reference is the out-of-class seed fixpoint; it needs
  // self_route and the engine's receive path.
  friend sim::PrefixRouting compute_prefix_reference(
      const topo::AsGraph&, const sim::PolicySet&, const sim::Origination&,
      const sim::FailedEdges*, const sim::PropagationOptions&);

  /// The self-originated route the origin AS installs.
  [[nodiscard]] bgp::Route self_route(
      const sim::Origination& origination) const;

  /// Export-side half of route_as_received: what `sender` puts on the wire
  /// toward `receiver` (no import transform yet).  `receiver_rel` is what
  /// the receiver is to the sender — the caller already resolved the
  /// adjacency once and hands down both perspectives.
  [[nodiscard]] std::optional<bgp::Route> exported_route(
      AsNumber sender, const bgp::Route& sender_best,
      const sim::Origination& origination, AsNumber receiver,
      topo::RelKind receiver_rel) const;

  const topo::AsGraph* graph_;
  const sim::PolicySet* policies_;
  const sim::FailedEdges* failures_;
};

/// The reference recorder: records one converged prefix into the vantage
/// tables through `route_as_received`, with the row check
/// `sim::run_simulation`'s recorder applies.  `sim::run_simulation`'s
/// tables equal what it records over reference fixpoints, row for row.
void record_prefix(const PropagationEngine& engine,
                   const sim::PrefixRouting& state,
                   const sim::VantageSpec& spec, sim::SimResult& result);

/// The seed sequential program: reference fixpoints recorded in
/// origination order, with their convergence counters.
[[nodiscard]] sim::SimResult reference_simulation(
    const topo::AsGraph& graph, const sim::PolicySet& policies,
    std::span<const sim::Origination> originations,
    const sim::VantageSpec& vantage, const sim::PropagationOptions& options);

}  // namespace bgpolicy::testing
