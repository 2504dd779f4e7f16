// The BGP best-route decision process, exactly as enumerated in the paper
// (Section 2.2.1):
//
//   1. highest LOCAL_PREF
//   2. shortest AS path
//   3. lowest ORIGIN
//   4. lowest MED, compared only between routes with the same next-hop AS
//   5. eBGP-learned over iBGP-learned
//   6. lowest IGP metric to the egress router
//   7. lowest router ID
//
// Because of step 4's "same next-hop AS only" scoping, route preference is
// not a total order; like a real router we therefore select the best route
// by a linear tournament rather than by sorting.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "bgp/route.h"

namespace bgpolicy::bgp {

/// Which decision step picked a winner between two routes.
enum class DecisionStep : std::uint8_t {
  kLocalPref = 1,
  kAsPathLength = 2,
  kOrigin = 3,
  kMed = 4,
  kEbgp = 5,
  kIgpMetric = 6,
  kRouterId = 7,
  kTie = 0,
};

[[nodiscard]] std::string to_string(DecisionStep step);

struct Comparison {
  /// <0: lhs is better; >0: rhs is better; 0: indistinguishable.
  int preference = 0;
  DecisionStep decided_by = DecisionStep::kTie;
};

/// What the decision process reads of a route.  A bgp::Route and a row of
/// a recorded table (bgp::RouteView) both reduce to it.
struct DecisionInputs {
  std::uint32_t local_pref = 100;
  std::size_t path_length = 0;
  Origin origin = Origin::kIgp;
  std::optional<AsNumber> next_hop;
  std::uint32_t med = 0;
  bool from_ebgp = true;
  std::uint32_t igp_metric = 0;
  std::uint32_t router_id = 0;
};

[[nodiscard]] DecisionInputs decision_inputs(const Route& route);

/// Compares two routes for the same prefix under the 7-step process.
[[nodiscard]] Comparison compare(const DecisionInputs& lhs,
                                 const DecisionInputs& rhs);
[[nodiscard]] Comparison compare_routes(const Route& lhs, const Route& rhs);

/// True when `lhs` wins the pairwise comparison.
[[nodiscard]] bool better(const Route& lhs, const Route& rhs);

/// Selects the best route by tournament; returns the index of the winner,
/// or std::nullopt for an empty candidate set.  Deterministic: the earliest
/// candidate wins exact ties.
[[nodiscard]] std::optional<std::size_t> select_best(
    std::span<const Route> candidates);

}  // namespace bgpolicy::bgp
