#include "core/sa_verification.h"

#include <gtest/gtest.h>

#include "core/export_inference.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

// Hand-built verification scene based on Fig. 3: D's SA prefix (origin A,
// next hop peer E) with an active customer path D -> B -> A for another
// prefix of A's.
struct Scene {
  Figure3 fig = figure3_graph();
  SaAnalysis analysis;
  PathIndex paths;

  /// Oracle bound to this scene's graph; only valid while the scene lives.
  [[nodiscard]] RelationshipOracle rels() const {
    return oracle_from(fig.graph);
  }
};

Scene make_scene(bool active_path) {
  Scene s;
  s.analysis.provider = s.fig.d;
  SaPrefix sa;
  sa.prefix = kPrefix;
  sa.origin = s.fig.a;
  sa.next_hop = s.fig.e;
  sa.next_hop_rel = topo::RelKind::kPeer;
  s.analysis.sa_prefixes.push_back(sa);
  s.analysis.sa_count = 1;
  s.analysis.customer_prefixes = 2;

  bgp::BgpTable observed{AsNumber(999)};
  if (active_path) {
    // Another prefix of A's actually traverses D -> B -> A.
    observed.add(make_route(Prefix::parse("10.0.1.0/24"),
                            {s.fig.d, s.fig.b, s.fig.a}));
  }
  observed.add(make_route(kPrefix, {s.fig.d, s.fig.e, s.fig.c, s.fig.a}));
  s.paths.add_table(observed);
  return s;
}

TEST(SaVerification, VerifiedWithCommunityAndActivePath) {
  Scene s = make_scene(/*active_path=*/true);
  const std::unordered_set<AsNumber> verified{s.fig.e, s.fig.b};
  const auto result =
      verify_sa_prefixes(s.analysis, s.paths, verified, s.rels());
  EXPECT_EQ(result.sa_total, 1u);
  EXPECT_EQ(result.verified, 1u);
  EXPECT_DOUBLE_EQ(result.percent_verified, 100.0);
}

TEST(SaVerification, Step1FailsWithoutNextHopVerification) {
  Scene s = make_scene(true);
  const std::unordered_set<AsNumber> verified{s.fig.b};  // E missing
  const auto result =
      verify_sa_prefixes(s.analysis, s.paths, verified, s.rels());
  EXPECT_EQ(result.verified, 0u);
  EXPECT_EQ(result.step1_failures, 1u);
}

TEST(SaVerification, Step2FailsWithoutActivePath) {
  Scene s = make_scene(/*active_path=*/false);
  const std::unordered_set<AsNumber> verified{s.fig.e, s.fig.b};
  const auto result =
      verify_sa_prefixes(s.analysis, s.paths, verified, s.rels());
  EXPECT_EQ(result.verified, 0u);
  EXPECT_EQ(result.step2_failures, 1u);
}

TEST(SaVerification, Step2FailsWhenFirstEdgeUnverified) {
  Scene s = make_scene(true);
  const std::unordered_set<AsNumber> verified{s.fig.e};  // B missing
  const auto result =
      verify_sa_prefixes(s.analysis, s.paths, verified, s.rels());
  EXPECT_EQ(result.verified, 0u);
  EXPECT_EQ(result.step2_failures, 1u);
}

TEST(SaVerification, DirectCustomerSettledByStep1) {
  Scene s = make_scene(false);
  // Make the SA origin a *direct* customer of D: B originates the prefix.
  s.analysis.sa_prefixes.front().origin = s.fig.b;
  const std::unordered_set<AsNumber> verified{s.fig.e, s.fig.b};
  const auto result =
      verify_sa_prefixes(s.analysis, s.paths, verified, s.rels());
  EXPECT_EQ(result.verified, 1u);
}

// Table 7 shape: most SA prefixes at the focus Tier-1s verify.
class PipelineSaVerification : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(PipelineSaVerification, MostSaPrefixesVerify) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const AsNumber provider{GetParam()};
  const auto analysis =
      infer_sa_prefixes(view.table_for(provider), provider,
                        *view.inferred_graph, view.inferred_oracle());
  if (analysis.sa_count < 5) GTEST_SKIP() << "not enough SA prefixes";
  const auto verified_neighbors =
      view.community_verified_neighbors(provider);
  const auto result = verify_sa_prefixes(analysis, *view.paths,
                                         verified_neighbors,
                                         view.inferred_oracle());
  // The paper reports 95-97.6% (Table 7) on a world where origins announce
  // hundreds of prefixes, so an alternate "active" path almost always
  // exists.  At this test scenario's size many origins have 1-2 prefixes
  // and a single suppressed chain, which is unverifiable by construction
  // (the paper notes the same limitation); the bound reflects that.
  EXPECT_GT(result.percent_verified, 40.0)
      << util::to_string(provider) << ": " << result.step1_failures
      << " step-1 failures, " << result.step2_failures << " step-2 failures";
}

INSTANTIATE_TEST_SUITE_P(FocusTier1, PipelineSaVerification,
                         ::testing::Values(1, 3549, 7018));

}  // namespace
}  // namespace bgpolicy::core
