#include "bgp/decision.h"

#include <gtest/gtest.h>

#include <span>

#include "testing/fixtures.h"

namespace bgpolicy::bgp {
namespace {

using testing::make_route;
using util::AsNumber;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

TEST(Decision, Step1LocalPrefDominatesShorterPath) {
  // The paper's central observation: local preference (step 1) overrides
  // the shortest-AS-path default.  A longer customer path with higher
  // local-pref beats a shorter peer path.
  const Route customer =
      make_route(kPrefix, {AsNumber(4), AsNumber(5), AsNumber(6)}, 120);
  const Route peer = make_route(kPrefix, {AsNumber(7)}, 100);
  const auto cmp = compare_routes(customer, peer);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kLocalPref);
}

TEST(Decision, Step2ShorterPathWinsAtEqualPref) {
  const Route shorter = make_route(kPrefix, {AsNumber(4)}, 100);
  const Route longer = make_route(kPrefix, {AsNumber(5), AsNumber(6)}, 100);
  const auto cmp = compare_routes(shorter, longer);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kAsPathLength);
}

TEST(Decision, Step3LowerOriginWins) {
  Route igp = make_route(kPrefix, {AsNumber(4)}, 100);
  Route egp = make_route(kPrefix, {AsNumber(5)}, 100);
  igp.origin = Origin::kIgp;
  egp.origin = Origin::kEgp;
  const auto cmp = compare_routes(igp, egp);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kOrigin);
}

TEST(Decision, Step4MedComparedOnlyWithinSameNeighbor) {
  Route low_med = make_route(kPrefix, {AsNumber(4), AsNumber(9)}, 100);
  Route high_med = make_route(kPrefix, {AsNumber(4), AsNumber(8)}, 100);
  low_med.med = 5;
  high_med.med = 50;
  const auto same = compare_routes(low_med, high_med);
  EXPECT_LT(same.preference, 0);
  EXPECT_EQ(same.decided_by, DecisionStep::kMed);

  // Different next-hop AS: MED is skipped; the tie moves to later steps.
  Route other = make_route(kPrefix, {AsNumber(5), AsNumber(8)}, 100);
  other.med = 50;
  const auto different = compare_routes(low_med, other);
  EXPECT_NE(different.decided_by, DecisionStep::kMed);
}

TEST(Decision, Step5EbgpBeatsIbgp) {
  Route ebgp = make_route(kPrefix, {AsNumber(4)}, 100);
  Route ibgp = make_route(kPrefix, {AsNumber(5)}, 100);
  ebgp.from_ebgp = true;
  ibgp.from_ebgp = false;
  const auto cmp = compare_routes(ebgp, ibgp);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kEbgp);
}

TEST(Decision, Step6LowerIgpMetricWins) {
  Route near = make_route(kPrefix, {AsNumber(4)}, 100);
  Route far = make_route(kPrefix, {AsNumber(5)}, 100);
  near.igp_metric = 10;
  far.igp_metric = 99;
  const auto cmp = compare_routes(near, far);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kIgpMetric);
}

TEST(Decision, Step7RouterIdBreaksFinalTie) {
  Route a = make_route(kPrefix, {AsNumber(4)}, 100);
  Route b = make_route(kPrefix, {AsNumber(5)}, 100);
  a.router_id = 4;
  b.router_id = 5;
  const auto cmp = compare_routes(a, b);
  EXPECT_LT(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kRouterId);
}

TEST(Decision, IdenticalRoutesTie) {
  const Route a = make_route(kPrefix, {AsNumber(4)}, 100);
  const auto cmp = compare_routes(a, a);
  EXPECT_EQ(cmp.preference, 0);
  EXPECT_EQ(cmp.decided_by, DecisionStep::kTie);
}

TEST(Decision, SelectBestEmptyIsNull) {
  EXPECT_FALSE(select_best(std::span<const Route>{}));
}

TEST(Decision, SelectBestPicksHighestPref) {
  std::vector<Route> candidates{
      make_route(kPrefix, {AsNumber(4)}, 90),
      make_route(kPrefix, {AsNumber(5)}, 120),
      make_route(kPrefix, {AsNumber(6)}, 100),
  };
  const auto best = select_best(candidates);
  ASSERT_TRUE(best);
  EXPECT_EQ(*best, 1u);
}

TEST(Decision, SelectBestStepOrderMatchesPaper) {
  // Steps are strictly ordered: a pref winner is never dethroned by a
  // shorter path, shorter path never by origin, etc.
  Route pref_winner = make_route(kPrefix, {AsNumber(1), AsNumber(2)}, 110);
  Route short_path = make_route(kPrefix, {AsNumber(3)}, 100);
  short_path.origin = Origin::kIgp;
  pref_winner.origin = Origin::kIncomplete;
  std::vector<Route> candidates{short_path, pref_winner};
  const auto best = select_best(candidates);
  ASSERT_TRUE(best);
  EXPECT_EQ(candidates[*best].local_pref, 110u);
}

// Property: select_best is invariant under rotation of the candidate list
// when routes are fully distinguishable (no exact ties).
class DecisionRotation : public ::testing::TestWithParam<int> {};

TEST_P(DecisionRotation, WinnerIndependentOfOrder) {
  std::vector<Route> candidates{
      make_route(kPrefix, {AsNumber(4)}, 90),
      make_route(kPrefix, {AsNumber(5)}, 120),
      make_route(kPrefix, {AsNumber(6), AsNumber(7)}, 120),
      make_route(kPrefix, {AsNumber(8)}, 100),
  };
  std::rotate(candidates.begin(), candidates.begin() + GetParam(),
              candidates.end());
  const auto best = select_best(candidates);
  ASSERT_TRUE(best);
  EXPECT_EQ(candidates[*best].learned_from, AsNumber(5));
}

INSTANTIATE_TEST_SUITE_P(Rotations, DecisionRotation,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace bgpolicy::bgp
