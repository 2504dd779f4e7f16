#include "core/homing.h"

#include <gtest/gtest.h>

#include "core/export_inference.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

TEST(Homing, ClassifiesByProviderCount) {
  // Graph: origin 10 multihomed (providers 20, 30); origin 11 single-homed
  // (provider 20).
  topo::AsGraph g;
  for (std::uint32_t as : {10, 11, 20, 30, 40}) g.add_as(AsNumber(as));
  g.add_provider_customer(AsNumber(20), AsNumber(10));
  g.add_provider_customer(AsNumber(30), AsNumber(10));
  g.add_provider_customer(AsNumber(20), AsNumber(11));

  SaAnalysis analysis;
  analysis.provider = AsNumber(40);
  analysis.sa_prefixes.push_back(
      {Prefix::parse("10.0.0.0/24"), AsNumber(10), AsNumber(1), RelKind::kPeer});
  analysis.sa_prefixes.push_back(
      {Prefix::parse("10.0.1.0/24"), AsNumber(10), AsNumber(1), RelKind::kPeer});
  analysis.sa_prefixes.push_back(
      {Prefix::parse("10.0.2.0/24"), AsNumber(11), AsNumber(1), RelKind::kPeer});

  const auto result = analyze_homing(analysis, g);
  // Counted per AS, not per prefix: 10 (multihomed), 11 (single-homed).
  EXPECT_EQ(result.multihomed_ases, 1u);
  EXPECT_EQ(result.singlehomed_ases, 1u);
  EXPECT_DOUBLE_EQ(result.percent_multihomed, 50.0);
}

TEST(Homing, UnknownOriginCountsSingleHomed) {
  topo::AsGraph g;
  g.add_as(AsNumber(40));
  SaAnalysis analysis;
  analysis.provider = AsNumber(40);
  analysis.sa_prefixes.push_back(
      {Prefix::parse("10.0.0.0/24"), AsNumber(77), AsNumber(1), RelKind::kPeer});
  const auto result = analyze_homing(analysis, g);
  EXPECT_EQ(result.singlehomed_ases, 1u);
}

TEST(Homing, EmptyAnalysis) {
  topo::AsGraph g;
  const auto result = analyze_homing(SaAnalysis{}, g);
  EXPECT_EQ(result.multihomed_ases + result.singlehomed_ases, 0u);
  EXPECT_EQ(result.percent_multihomed, 0.0);
}

// Table 8 shape: the majority of SA-origin ASes are multihomed (~75% in
// the paper).
TEST(Homing, PipelineTable8Shape) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  const AsNumber provider{1};
  const auto analysis =
      infer_sa_prefixes(view.table_for(provider), provider,
                        *view.inferred_graph, view.inferred_oracle());
  ASSERT_GT(analysis.sa_count, 5u);
  const auto result = analyze_homing(analysis, *view.inferred_graph);
  EXPECT_GT(result.percent_multihomed, 50.0)
      << "multihomed origins must dominate (paper: ~75%)";
}

}  // namespace
}  // namespace bgpolicy::core
