#include "core/import_inference.h"

#include <gtest/gtest.h>

#include "rpsl/generator.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

// A fixed oracle over a tiny neighbor set: 10=customer, 20=peer, 30=provider.
RelationshipOracle toy_oracle() {
  return [](AsNumber, AsNumber other) -> std::optional<RelKind> {
    switch (other.value()) {
      case 10: return RelKind::kCustomer;
      case 20: return RelKind::kPeer;
      case 30: return RelKind::kProvider;
      default: return std::nullopt;
    }
  };
}

bgp::Route route_from(std::uint32_t neighbor, const Prefix& prefix,
                      std::uint32_t lp) {
  return make_route(prefix, {AsNumber(neighbor), AsNumber(900)}, lp);
}

TEST(ImportTypicality, TypicalOrderingCounts) {
  bgp::BgpTable table{AsNumber(5)};
  const Prefix p = Prefix::parse("10.0.0.0/24");
  table.add(route_from(10, p, 120));
  table.add(route_from(20, p, 100));
  table.add(route_from(30, p, 80));
  const auto result = analyze_import_typicality(table, toy_oracle());
  EXPECT_EQ(result.comparable_prefixes, 1u);
  EXPECT_EQ(result.typical_prefixes, 1u);
  EXPECT_DOUBLE_EQ(result.percent_typical, 100.0);
}

TEST(ImportTypicality, AtypicalWhenPeerAtCustomerLevel) {
  bgp::BgpTable table{AsNumber(5)};
  const Prefix p = Prefix::parse("10.0.0.0/24");
  table.add(route_from(10, p, 120));
  table.add(route_from(20, p, 120));  // peer tied with customer: atypical
  const auto result = analyze_import_typicality(table, toy_oracle());
  EXPECT_EQ(result.comparable_prefixes, 1u);
  EXPECT_EQ(result.typical_prefixes, 0u);
}

TEST(ImportTypicality, AtypicalWhenProviderAbovePeer) {
  bgp::BgpTable table{AsNumber(5)};
  const Prefix p = Prefix::parse("10.0.0.0/24");
  table.add(route_from(20, p, 90));
  table.add(route_from(30, p, 95));  // provider above peer
  const auto result = analyze_import_typicality(table, toy_oracle());
  EXPECT_EQ(result.typical_prefixes, 0u);
}

TEST(ImportTypicality, SingleClassPrefixesNotComparable) {
  bgp::BgpTable table{AsNumber(5)};
  table.add(route_from(10, Prefix::parse("10.0.0.0/24"), 120));
  table.add(route_from(30, Prefix::parse("10.0.1.0/24"), 80));
  const auto result = analyze_import_typicality(table, toy_oracle());
  EXPECT_EQ(result.comparable_prefixes, 0u);
  EXPECT_EQ(result.percent_typical, 0.0);
}

TEST(ImportTypicality, UnknownNeighborsIgnored) {
  bgp::BgpTable table{AsNumber(5)};
  const Prefix p = Prefix::parse("10.0.0.0/24");
  table.add(route_from(10, p, 120));
  table.add(route_from(99, p, 500));  // oracle cannot classify 99
  const auto result = analyze_import_typicality(table, toy_oracle());
  EXPECT_EQ(result.comparable_prefixes, 0u);
}

TEST(ImportTypicality, ClassValuesAreDeduplicated) {
  bgp::BgpTable table{AsNumber(5)};
  table.add(route_from(10, Prefix::parse("10.0.0.0/24"), 120));
  table.add(route_from(10, Prefix::parse("10.0.1.0/24"), 120));
  const auto result = analyze_import_typicality(table, toy_oracle());
  ASSERT_TRUE(result.class_values.contains(RelKind::kCustomer));
  EXPECT_EQ(result.class_values.at(RelKind::kCustomer).size(), 1u);
}

TEST(IrrTypicality, PrefOrderingInverted) {
  rpsl::AutNum aut_num;
  aut_num.as = AsNumber(5);
  // RPSL pref: smaller = better.  customer 880 < peer 900 < provider 920.
  aut_num.imports.push_back({AsNumber(10), 880, "ANY"});
  aut_num.imports.push_back({AsNumber(20), 900, "ANY"});
  aut_num.imports.push_back({AsNumber(30), 920, "ANY"});
  const auto result = analyze_irr_typicality(aut_num, toy_oracle());
  EXPECT_EQ(result.neighbors_with_pref, 3u);
  EXPECT_EQ(result.comparable_pairs, 3u);
  EXPECT_EQ(result.typical_pairs, 3u);
  EXPECT_DOUBLE_EQ(result.percent_typical, 100.0);
}

TEST(IrrTypicality, AtypicalPairCounted) {
  rpsl::AutNum aut_num;
  aut_num.as = AsNumber(5);
  aut_num.imports.push_back({AsNumber(10), 920, "ANY"});  // customer worst!
  aut_num.imports.push_back({AsNumber(20), 900, "ANY"});
  aut_num.imports.push_back({AsNumber(30), 880, "ANY"});  // provider best!
  const auto result = analyze_irr_typicality(aut_num, toy_oracle());
  EXPECT_EQ(result.typical_pairs, 0u);
}

TEST(IrrTypicality, MissingPrefsAndUnknownNeighborsSkipped) {
  rpsl::AutNum aut_num;
  aut_num.as = AsNumber(5);
  aut_num.imports.push_back({AsNumber(10), std::nullopt, "ANY"});
  aut_num.imports.push_back({AsNumber(99), 900, "ANY"});
  aut_num.imports.push_back({AsNumber(20), 900, "ANY"});
  const auto result = analyze_irr_typicality(aut_num, toy_oracle());
  EXPECT_EQ(result.neighbors_with_pref, 1u);
  EXPECT_EQ(result.comparable_pairs, 0u);
}

TEST(IrrUsable, FreshnessAndSizeFilter) {
  rpsl::AutNum aut_num;
  aut_num.as = AsNumber(5);
  aut_num.changed_date = 20021001;
  for (int i = 0; i < 60; ++i) {
    aut_num.imports.push_back({AsNumber(100 + static_cast<std::uint32_t>(i)),
                               900, "ANY"});
  }
  EXPECT_TRUE(irr_object_usable(aut_num));
  aut_num.changed_date = 20011201;  // stale: paper discards pre-2002 objects
  EXPECT_FALSE(irr_object_usable(aut_num));
  aut_num.changed_date = 20021001;
  aut_num.imports.resize(10);  // too few neighbors
  EXPECT_FALSE(irr_object_usable(aut_num));
  EXPECT_TRUE(irr_object_usable(aut_num, 2002, 5));
}

// End-to-end shape: Table 2 — typicality high at every looking glass.
TEST(ImportTypicality, PipelineTable2Shape) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    const auto result = analyze_import_typicality(
        exp.sim().sim.looking_glass.at(vantage), view.inferred_oracle());
    if (result.comparable_prefixes < 10) continue;
    EXPECT_GT(result.percent_typical, 85.0)
        << util::to_string(vantage) << " typicality collapsed";
  }
}

// End-to-end shape: Table 3 — IRR-registered policies are mostly typical.
TEST(IrrTypicality, PipelineTable3Shape) {
  const auto& exp = shared_experiment();
  const auto view = exp.view();
  std::size_t analyzed = 0;
  for (const auto& aut_num : exp.observations().irr_objects) {
    if (!irr_object_usable(aut_num, 2002, 10)) continue;
    const auto result = analyze_irr_typicality(aut_num, view.inferred_oracle());
    if (result.comparable_pairs < 10) continue;
    ++analyzed;
    // The pairwise metric is harsh: one bad neighbor taints every pair it
    // appears in.  The paper's Table 3 bottoms out at 80% on much larger
    // neighbor sets; at this scenario's size 60% is the equivalent floor.
    EXPECT_GT(result.percent_typical, 60.0) << util::to_string(aut_num.as);
  }
  EXPECT_GT(analyzed, 3u) << "IRR filter left nothing to analyze";
}

}  // namespace
}  // namespace bgpolicy::core
