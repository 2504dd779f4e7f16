#include "bgp/decision.h"

namespace bgpolicy::bgp {

std::string to_string(DecisionStep step) {
  switch (step) {
    case DecisionStep::kLocalPref: return "local-pref";
    case DecisionStep::kAsPathLength: return "as-path-length";
    case DecisionStep::kOrigin: return "origin";
    case DecisionStep::kMed: return "med";
    case DecisionStep::kEbgp: return "ebgp-over-ibgp";
    case DecisionStep::kIgpMetric: return "igp-metric";
    case DecisionStep::kRouterId: return "router-id";
    case DecisionStep::kTie: return "tie";
  }
  return "?";
}

DecisionInputs decision_inputs(const Route& route) {
  return {route.local_pref, route.path.length(), route.origin,
          route.next_hop_as(), route.med, route.from_ebgp,
          route.igp_metric, route.router_id};
}

Comparison compare(const DecisionInputs& lhs, const DecisionInputs& rhs) {
  // Step 1: highest local preference.
  if (lhs.local_pref != rhs.local_pref) {
    return {lhs.local_pref > rhs.local_pref ? -1 : 1,
            DecisionStep::kLocalPref};
  }
  // Step 2: shortest AS path.
  if (lhs.path_length != rhs.path_length) {
    return {lhs.path_length < rhs.path_length ? -1 : 1,
            DecisionStep::kAsPathLength};
  }
  // Step 3: lowest origin type.
  if (lhs.origin != rhs.origin) {
    return {lhs.origin < rhs.origin ? -1 : 1, DecisionStep::kOrigin};
  }
  // Step 4: lowest MED, only between routes from the same next-hop AS.
  if (lhs.next_hop && rhs.next_hop && *lhs.next_hop == *rhs.next_hop &&
      lhs.med != rhs.med) {
    return {lhs.med < rhs.med ? -1 : 1, DecisionStep::kMed};
  }
  // Step 5: prefer eBGP-learned routes.
  if (lhs.from_ebgp != rhs.from_ebgp) {
    return {lhs.from_ebgp ? -1 : 1, DecisionStep::kEbgp};
  }
  // Step 6: lowest IGP metric to the egress border router.
  if (lhs.igp_metric != rhs.igp_metric) {
    return {lhs.igp_metric < rhs.igp_metric ? -1 : 1,
            DecisionStep::kIgpMetric};
  }
  // Step 7: lowest router ID.
  if (lhs.router_id != rhs.router_id) {
    return {lhs.router_id < rhs.router_id ? -1 : 1, DecisionStep::kRouterId};
  }
  return {0, DecisionStep::kTie};
}

Comparison compare_routes(const Route& lhs, const Route& rhs) {
  return compare(decision_inputs(lhs), decision_inputs(rhs));
}

bool better(const Route& lhs, const Route& rhs) {
  return compare_routes(lhs, rhs).preference < 0;
}

std::optional<std::size_t> select_best(std::span<const Route> candidates) {
  if (candidates.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (better(candidates[i], candidates[best])) best = i;
  }
  return best;
}

}  // namespace bgpolicy::bgp
