#include "topology/topology_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bgpolicy::topo {
namespace {

GeneratorParams small_params(std::uint64_t seed = 1) {
  GeneratorParams p;
  p.seed = seed;
  p.tier1_count = 6;
  p.tier2_count = 10;
  p.tier3_count = 30;
  p.stub_count = 120;
  return p;
}

TEST(TopologyGen, CountsMatchParams) {
  const Topology topo = generate_topology(small_params());
  EXPECT_EQ(topo.tier1.size(), 6u);
  EXPECT_EQ(topo.tier2.size(), 10u);
  EXPECT_EQ(topo.tier3.size(), 30u);
  EXPECT_EQ(topo.stubs.size(), 120u);
  EXPECT_EQ(topo.graph.as_count(), 166u);
}

TEST(TopologyGen, DeterministicForSeed) {
  const Topology a = generate_topology(small_params(7));
  const Topology b = generate_topology(small_params(7));
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (const auto as : a.graph.ases()) {
    EXPECT_EQ(a.graph.degree(as), b.graph.degree(as));
  }
}

TEST(TopologyGen, DifferentSeedsDiffer) {
  const Topology a = generate_topology(small_params(1));
  const Topology b = generate_topology(small_params(2));
  // Edge sets should differ somewhere (counts may coincide; check degrees).
  bool any_different = a.graph.edge_count() != b.graph.edge_count();
  for (const auto as : a.graph.ases()) {
    if (a.graph.degree(as) != b.graph.degree(as)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(TopologyGen, Tier1FormsFullPeerClique) {
  const Topology topo = generate_topology(small_params());
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      EXPECT_EQ(topo.graph.relationship(topo.tier1[i], topo.tier1[j]),
                RelKind::kPeer);
    }
  }
}

TEST(TopologyGen, Tier1HasNoProviders) {
  const Topology topo = generate_topology(small_params());
  for (const auto as : topo.tier1) {
    EXPECT_TRUE(topo.graph.providers(as).empty())
        << util::to_string(as) << " must be provider-free";
  }
}

TEST(TopologyGen, EveryNonTier1HasAProvider) {
  const Topology topo = generate_topology(small_params());
  for (const auto& group : {topo.tier2, topo.tier3, topo.stubs}) {
    for (const auto as : group) {
      EXPECT_FALSE(topo.graph.providers(as).empty())
          << util::to_string(as) << " is disconnected from the hierarchy";
    }
  }
}

TEST(TopologyGen, StubsHaveNoCustomers) {
  const Topology topo = generate_topology(small_params());
  for (const auto as : topo.stubs) {
    EXPECT_TRUE(topo.graph.customers(as).empty());
  }
}

TEST(TopologyGen, WellKnownAsNumbersPresent) {
  const Topology topo = generate_topology(small_params());
  EXPECT_TRUE(topo.graph.contains(util::AsNumber(well_known::kAtt)));
  EXPECT_TRUE(topo.graph.contains(util::AsNumber(well_known::kGte)));
  EXPECT_TRUE(topo.graph.contains(util::AsNumber(well_known::kGlobalCrossing)));
  EXPECT_EQ(topo.tier_of(util::AsNumber(7018)), Tier::kTier1);
}

GeneratorParams tier_counts(std::uint64_t tier1, std::uint64_t tier2,
                            std::uint64_t tier3, std::uint64_t stubs) {
  GeneratorParams p;
  p.tier1_count = tier1;
  p.tier2_count = tier2;
  p.tier3_count = tier3;
  p.stub_count = stubs;
  return p;
}

TEST(TierNumbering, ListsAndLookupsAgree) {
  // The third world's synthetic runs cross other tiers' labels (Tier-1's
  // from 100 passes AS 513 and 577, Tier-2's from 2000 passes AS 2118 and
  // 2578) and bases (Tier-3's from 16000 passes 20000).
  for (const GeneratorParams& params :
       {tier_counts(10, 60, 240, 2400), tier_counts(2, 1, 1, 0),
        tier_counts(600, 700, 4500, 50)}) {
    const TierNumbering numbering(params);
    std::unordered_map<util::AsNumber, Tier> numbered;
    for (const auto& [tier, count] :
         {std::pair{Tier::kTier1, params.tier1_count},
          std::pair{Tier::kTier2, params.tier2_count},
          std::pair{Tier::kTier3, params.tier3_count},
          std::pair{Tier::kStub, params.stub_count}}) {
      const std::vector<util::AsNumber> ases = numbering.ases(tier);
      EXPECT_EQ(ases.size(), count);
      for (const auto as : ases) {
        EXPECT_TRUE(numbered.emplace(as, tier).second) << as.value();
        EXPECT_EQ(numbering.tier_of(as), tier) << as.value();
      }
    }
    for (std::uint32_t n = 1; n < 26000; ++n) {
      if (!numbered.contains(util::AsNumber(n))) {
        EXPECT_EQ(numbering.tier_of(util::AsNumber(n)), std::nullopt) << n;
      }
    }
  }
}

TEST(TierNumbering, LabelsFirstThenNumbersNoEarlierTierTook) {
  const TierNumbering numbering(tier_counts(12, 600, 41, 1));
  const auto tier1 = numbering.ases(Tier::kTier1);
  EXPECT_EQ(tier1.front(), util::AsNumber(well_known::kAtt));
  EXPECT_EQ(tier1[10], util::AsNumber(100));
  EXPECT_EQ(tier1[11], util::AsNumber(101));
  // Tier-2's run from 2000 takes AS 2578 before Tier-3 reaches its labels,
  // so Tier-3 ends on two synthetic numbers.
  EXPECT_EQ(numbering.tier_of(util::AsNumber(2578)), Tier::kTier2);
  const auto tier3 = numbering.ases(Tier::kTier3);
  EXPECT_EQ(tier3[39], util::AsNumber(16000));
  EXPECT_EQ(tier3[40], util::AsNumber(16001));
  EXPECT_EQ(numbering.ases(Tier::kStub), std::vector{util::AsNumber(376)});
}

TEST(TierNumbering, CountsNoRunCouldReachAreCheapToCheck) {
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const TierNumbering numbering(tier_counts(kHuge, kHuge, kHuge, kHuge));
  EXPECT_EQ(numbering.tier_of(util::AsNumber(7018)), Tier::kTier1);
  // Tier-1's run from 100 holds every other number, labels included.
  EXPECT_EQ(numbering.tier_of(util::AsNumber(5511)), Tier::kTier1);
  EXPECT_EQ(numbering.tier_of(util::AsNumber(4294967295u)), Tier::kTier1);
  EXPECT_EQ(numbering.tier_of(util::AsNumber(99)), std::nullopt);
}

TEST(TopologyGen, Tier1DegreesDominateTier2) {
  // The degree-realism property the inference heuristic depends on:
  // the average Tier-1 degree clearly exceeds the average Tier-2 degree.
  const Topology topo = generate_topology(small_params());
  double tier1_avg = 0;
  for (const auto as : topo.tier1) {
    tier1_avg += static_cast<double>(topo.graph.degree(as));
  }
  tier1_avg /= static_cast<double>(topo.tier1.size());
  double tier2_avg = 0;
  for (const auto as : topo.tier2) {
    tier2_avg += static_cast<double>(topo.graph.degree(as));
  }
  tier2_avg /= static_cast<double>(topo.tier2.size());
  EXPECT_GT(tier1_avg, tier2_avg);
}

TEST(TopologyGen, RejectsDegenerateParams) {
  GeneratorParams p = small_params();
  p.tier1_count = 1;
  EXPECT_THROW(generate_topology(p), std::invalid_argument);
  p = small_params();
  p.max_stub_providers = 1;
  EXPECT_THROW(generate_topology(p), std::invalid_argument);
}

// Property sweep: multihoming rate tracks the parameter across seeds.
class TopologyMultihoming : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyMultihoming, RateNearParameter) {
  GeneratorParams p = small_params(GetParam());
  p.stub_count = 400;
  p.stub_multihome_prob = 0.6;
  const Topology topo = generate_topology(p);
  std::size_t multihomed = 0;
  for (const auto as : topo.stubs) {
    if (topo.graph.providers(as).size() >= 2) ++multihomed;
  }
  const double rate =
      static_cast<double>(multihomed) / static_cast<double>(topo.stubs.size());
  EXPECT_NEAR(rate, 0.6, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyMultihoming,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace bgpolicy::topo
