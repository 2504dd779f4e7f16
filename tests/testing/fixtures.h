// Shared test fixtures: the paper's worked examples as tiny topologies.
#pragma once

#include <vector>

#include "bgp/route.h"
#include "sim/flat_engine.h"
#include "sim/policy.h"
#include "sim/propagation.h"
#include "topology/as_graph.h"
#include "util/ids.h"

namespace bgpolicy::testing {

using util::AsNumber;

inline constexpr AsNumber kAs1{1};
inline constexpr AsNumber kAs2{2};
inline constexpr AsNumber kAs3{3};
inline constexpr AsNumber kAs4{4};
inline constexpr AsNumber kAs5{5};
inline constexpr AsNumber kAs6{6};

/// The paper's Fig. 1: AS2 is the provider of AS4; AS3 peers with AS4.
///   AS5, AS6 at the top; AS1, AS2, AS3 mid; AS4 at the bottom.
///   Edges: 5-1 p2c? (the figure: AS5 and AS6 are providers of AS1/AS2/AS3;
///   here we keep the explicitly described subset and complete the rest
///   consistently.)
inline topo::AsGraph figure1_graph() {
  topo::AsGraph g;
  for (const auto as : {kAs1, kAs2, kAs3, kAs4, kAs5, kAs6}) g.add_as(as);
  g.add_provider_customer(kAs5, kAs1);
  g.add_provider_customer(kAs5, kAs2);
  g.add_provider_customer(kAs6, kAs2);
  g.add_provider_customer(kAs6, kAs3);
  g.add_peer_peer(kAs5, kAs6);
  g.add_provider_customer(kAs2, kAs4);
  g.add_peer_peer(kAs3, kAs4);
  g.add_peer_peer(kAs1, kAs2);
  return g;
}

/// The paper's Fig. 3: customer A announces prefix p to provider C but not
/// to B; provider D (B's provider... in the figure D is a provider observing
/// p via its peer E).  Concretely:
///   A (origin, customer) has providers B and C.
///   D is B's provider; E is C's provider; D peers with E.
struct Figure3 {
  topo::AsGraph graph;
  AsNumber a{10};
  AsNumber b{20};
  AsNumber c{30};
  AsNumber d{40};
  AsNumber e{50};
};

inline Figure3 figure3_graph() {
  Figure3 f;
  for (const auto as : {f.a, f.b, f.c, f.d, f.e}) f.graph.add_as(as);
  f.graph.add_provider_customer(f.b, f.a);
  f.graph.add_provider_customer(f.c, f.a);
  f.graph.add_provider_customer(f.d, f.b);
  f.graph.add_provider_customer(f.e, f.c);
  f.graph.add_peer_peer(f.d, f.e);
  return f;
}

/// True in ASan/TSan builds, where the internet2002-scale cases are too
/// slow to run and skip themselves.
inline bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Default (everything-typical) policies for every AS in a graph.
inline sim::PolicySet typical_policies(const topo::AsGraph& graph) {
  sim::PolicySet policies;
  for (const auto as : graph.ases()) policies.by_as.emplace(as, sim::AsPolicy{});
  return policies;
}

/// The flat cold fixpoint in exact order (`sim::converge_exact`),
/// materialized: routes and `process_events` both equal
/// `compute_prefix_reference`'s (propagation_reference.h).  The cold side
/// of every test that checks a faster path (the oracle's chosen order,
/// delta waves, what-if), so the oracle's proof is tested rather than
/// assumed on both sides.
inline sim::PrefixRouting compute_prefix_exact(
    const sim::FlatSimContext& context, const sim::Origination& origination,
    const sim::FailedEdges* failed, const sim::PropagationOptions& options,
    sim::FlatScratch& scratch) {
  const sim::FixpointStats stats = sim::converge_exact(
      context, origination, failed, options, scratch, scratch.state());
  return sim::materialize_routing(context, origination, scratch.state(),
                                  stats.converged, stats.events);
}

/// One-shot form: builds the context and scratch per call.
inline sim::PrefixRouting compute_prefix_exact(
    const topo::AsGraph& graph, const sim::PolicySet& policies,
    const sim::Origination& origination, const sim::FailedEdges* failed,
    const sim::PropagationOptions& options = {}) {
  const sim::FlatSimContext context(graph, policies);
  sim::FlatScratch scratch;
  return compute_prefix_exact(context, origination, failed, options, scratch);
}

/// Builds a route with the fields the decision process reads.
inline bgp::Route make_route(const bgp::Prefix& prefix,
                             std::vector<AsNumber> path_hops,
                             std::uint32_t local_pref = 100) {
  bgp::Route route;
  route.prefix = prefix;
  route.path = bgp::AsPath(path_hops);
  if (!path_hops.empty()) route.learned_from = path_hops.front();
  route.local_pref = local_pref;
  if (!path_hops.empty()) route.router_id = path_hops.front().value();
  return route;
}

}  // namespace bgpolicy::testing
