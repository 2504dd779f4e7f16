// Ground-truth policy generation.
//
// Assigns every AS a concrete routing policy exhibiting the behaviors the
// paper measures, with tunable rates:
//   * typical local preference with rare atypical deviations (Tables 2-3),
//   * per-prefix preference overrides (the Fig. 2 inconsistencies),
//   * origin-side selective announcement — plain withholding or the
//     "announce with a don't-propagate community" flavor (Section 5.1.5
//     Case 3),
//   * intermediate-AS selective re-export of customer routes,
//   * prefix splitting (Case 1) and provider aggregation (Case 2),
//   * partial withholding between peers (Table 10),
//   * relationship-tagging community schemes (Appendix, Table 11).
//
// Everything decided here is recorded in GroundTruth so tests can score the
// inference algorithms against what was actually configured.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/policy.h"
#include "sim/propagation.h"
#include "topology/prefix_alloc.h"
#include "topology/topology_gen.h"

namespace bgpolicy::sim {

struct PolicyGenParams {
  std::uint64_t seed = 9001;

  // Import-side knobs.
  double atypical_neighbor_prob = 0.01;
  /// Fraction of transit ASes that pin any prefixes to explicit preferences.
  double te_as_prob = 0.5;
  /// For such an AS, the per-prefix probability of a pinned preference.
  double te_prefix_max_rate = 0.08;

  // Origin selective announcement.
  double origin_selective_as_prob = 0.55;
  double withhold_prefix_prob = 0.70;
  /// Within a withheld prefix: announce to exactly one provider (the
  /// strongest inbound-traffic pin) rather than a random proper subset.
  double single_announce_prob = 0.75;
  /// Within selective announcements: use a community tag ("announce to the
  /// direct provider, but no further") instead of a plain deny.
  double community_flavor_prob = 0.25;
  /// Within the community flavor: target one specific upstream AS instead
  /// of all providers.
  double community_target_prob = 0.30;

  // AS-path prepending (the softer inbound knob of Section 2.2.2): a
  // multihomed stub that does NOT selectively announce may instead prepend
  // on its backup link.
  double prepend_as_prob = 0.15;
  std::uint8_t max_prepend = 3;

  // Intermediate selective re-export.
  double intermediate_selective_prob = 0.18;
  double intermediate_victim_prob = 0.5;

  // Splitting / aggregation (kept rare: Table 9 finds both negligible).
  double splitting_as_prob = 0.02;
  double aggregation_prob = 0.04;

  // Peer export withholding (Table 10's handful of exceptions).
  double peer_withhold_prob = 0.08;
  /// Probability that a withholding peer hides *all* own prefixes (vs a
  /// minority share).
  double peer_withhold_total_prob = 0.3;

  // Community tagging (Appendix).
  double tagging_as_prob = 0.7;
  double publish_prob = 0.5;
  /// ASes that must run a tagging scheme regardless of the dice (the
  /// paper's 9 verification vantages).
  std::vector<AsNumber> force_tagging;

  friend bool operator==(const PolicyGenParams&, const PolicyGenParams&) =
      default;
};

/// One origin-side selective-announcement decision: `origin` withholds (or
/// currently announces) `prefix` toward `provider`.
struct SelectiveUnit {
  AsNumber origin;
  bgp::Prefix prefix;
  AsNumber provider;
  bool withheld = false;
  bool via_community = false;  ///< capped-by-community rather than denied
};

/// Intermediate AS `intermediate` does not re-export routes originated by
/// `customer` to `provider`.
struct IntermediateSelective {
  AsNumber intermediate;
  AsNumber customer;
  AsNumber provider;
};

/// `origin` prepends its own AS `times` extra times toward `provider`.
struct PrependUnit {
  AsNumber origin;
  AsNumber provider;
  std::uint8_t times = 0;
};

struct GroundTruth {
  std::vector<SelectiveUnit> origin_units;
  std::vector<PrependUnit> prepend_units;
  std::vector<IntermediateSelective> intermediate_units;
  std::vector<bgp::Prefix> split_specifics;
  /// Prefix -> the provider that aggregates (never re-exports) it.
  std::unordered_map<bgp::Prefix, AsNumber> aggregated_by;
  /// (peer, target) pairs where `peer` withholds some own prefixes from
  /// `target`, with the withheld fraction.
  std::vector<std::pair<std::pair<AsNumber, AsNumber>, double>>
      peer_withholders;
};

struct GeneratedPolicies {
  PolicySet policies;
  /// More-specific prefixes created by splitting; must be originated in
  /// addition to the base plan.
  std::vector<topo::OriginatedPrefix> split_extras;
  GroundTruth truth;
};

// ------------------------------------------------------------ field lists --
// Each type's stored fields, in stored order (util/fields.h).

template <typename V>
constexpr void fields(V& v, SelectiveUnit& u) {
  v("origin", u.origin);
  v("prefix", u.prefix);
  v("provider", u.provider);
  v("withheld", u.withheld);
  v("via_community", u.via_community);
}
static_assert(util::lists_every_member<SelectiveUnit>());

template <typename V>
constexpr void fields(V& v, IntermediateSelective& u) {
  v("intermediate", u.intermediate);
  v("customer", u.customer);
  v("provider", u.provider);
}
static_assert(util::lists_every_member<IntermediateSelective>());

template <typename V>
constexpr void fields(V& v, PrependUnit& u) {
  v("origin", u.origin);
  v("provider", u.provider);
  v("times", u.times);
}
static_assert(util::lists_every_member<PrependUnit>());

template <typename V>
constexpr void fields(V& v, GroundTruth& t) {
  v("origin_units", t.origin_units);
  v("prepend_units", t.prepend_units);
  v("intermediate_units", t.intermediate_units);
  v("split_specifics", t.split_specifics);
  v("aggregated_by", t.aggregated_by);
  v("peer_withholders", t.peer_withholders);
}
static_assert(util::lists_every_member<GroundTruth>());

template <typename V>
constexpr void fields(V& v, GeneratedPolicies& g) {
  v("policies", g.policies);
  v("split_extras", g.split_extras);
  v("truth", g.truth);
}
static_assert(util::lists_every_member<GeneratedPolicies>());

[[nodiscard]] GeneratedPolicies generate_policies(
    const topo::Topology& topo, const topo::PrefixPlan& plan,
    const PolicyGenParams& params);

/// Flattens the base plan plus split extras into engine originations.
[[nodiscard]] std::vector<Origination> all_originations(
    const topo::PrefixPlan& plan, const GeneratedPolicies& generated);

}  // namespace bgpolicy::sim
