#include "asrel/gao_inference.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "sim/policy_gen.h"
#include "sim/simulation.h"
#include "testing/experiment_cache.h"
#include "topology/prefix_alloc.h"
#include "topology/topology_gen.h"

namespace bgpolicy::asrel {
namespace {

using util::AsNumber;

TEST(GaoInference, IgnoresLoopsAndCollapsesPrepending) {
  GaoInference gao;
  gao.add_path(bgp::AsPath::parse("1 2 2 2 3"));  // prepending collapsed
  EXPECT_EQ(gao.path_count(), 1u);
  EXPECT_EQ(gao.degree(AsNumber(2)), 2u);
  gao.add_path(bgp::AsPath::parse("1 2 3 2"));  // loop: dropped
  EXPECT_EQ(gao.path_count(), 1u);
  gao.add_path(bgp::AsPath::parse("7"));  // too short
  EXPECT_EQ(gao.path_count(), 1u);
}

// degree() and top_clique() on hand-built paths: a four-AS core (1, 2, 3
// and the largest AS number) with single-homed customers, prepending
// (also of the largest AS), and loop paths, which are dropped.
TEST(GaoInference, DegreesAndCliquePinned) {
  GaoInference gao;
  for (const char* path :
       {"10 1 2 20", "11 1 3 30", "20 2 3 30", "40 4294967295 1 10",
        "41 4294967295 2 21", "42 4294967295 4294967295 3 30", "21 2 2 1 11",
        "1 2 3 2", "30 3 1 10 1", "4294967295 40 4294967295", "7"}) {
    gao.add_path(bgp::AsPath::parse(path));
  }
  EXPECT_EQ(gao.path_count(), 7u);

  const AsNumber top(4294967295u);
  const std::vector<std::pair<std::uint32_t, std::size_t>> degrees = {
      {0, 0},  {1, 5},  {2, 5},  {3, 4},  {4294967295u, 6}, {10, 1}, {11, 1},
      {20, 1}, {21, 1}, {30, 1}, {40, 1}, {41, 1},          {42, 1}, {7, 0}};
  for (const auto& [as, degree] : degrees) {
    EXPECT_EQ(gao.degree(AsNumber(as)), degree) << "AS" << as;
  }
  EXPECT_EQ(gao.top_clique(),
            (std::vector<AsNumber>{top, AsNumber(1), AsNumber(2), AsNumber(3)}));
  // A cut at 90% of the top degree (6) leaves the two degree-5 ASes.
  GaoParams strict;
  strict.clique_degree_fraction = 0.9;
  EXPECT_EQ(gao.top_clique(strict),
            (std::vector<AsNumber>{top, AsNumber(1), AsNumber(2)}));

  const InferredRelationships rels = gao.infer();
  EXPECT_EQ(rels.edge(AsNumber(1), top), EdgeType::kPeer);
  EXPECT_EQ(rels.edge(AsNumber(2), AsNumber(3)), EdgeType::kPeer);
  EXPECT_EQ(rels.relationship(top, AsNumber(40)), RelKind::kCustomer);
  EXPECT_EQ(rels.relationship(AsNumber(30), AsNumber(3)), RelKind::kProvider);
  EXPECT_EQ(rels.edge_count(), 14u);
}

// The DegreesAndCliquePinned input plus a path that prepending shrinks to
// one AS: the flat hop buffer holds the cleaned multiset the
// vector-per-path store held, in ingest order, and a dropped path leaves
// nothing behind.
TEST(GaoInference, StoresTheCleanedMultisetInIngestOrder) {
  GaoInference gao;
  for (const char* path :
       {"10 1 2 20", "11 1 3 30", "20 2 3 30", "40 4294967295 1 10",
        "41 4294967295 2 21", "1 2 3 2", "42 4294967295 4294967295 3 30",
        "5 5", "21 2 2 1 11", "30 3 1 10 1", "4294967295 40 4294967295",
        "7"}) {
    gao.add_path(bgp::AsPath::parse(path));
  }
  const std::uint32_t top = 4294967295u;
  const std::vector<std::vector<std::uint32_t>> cleaned = {
      {10, 1, 2, 20},   {11, 1, 3, 30},   {20, 2, 3, 30}, {40, top, 1, 10},
      {41, top, 2, 21}, {42, top, 3, 30}, {21, 2, 1, 11}};
  ASSERT_EQ(gao.path_count(), cleaned.size());
  for (std::size_t i = 0; i < cleaned.size(); ++i) {
    std::vector<std::uint32_t> stored;
    for (const AsNumber as : gao.path(i)) stored.push_back(as.value());
    EXPECT_EQ(stored, cleaned[i]) << "path " << i;
  }
  EXPECT_EQ(gao.degree(AsNumber(top)), 6u);
  EXPECT_EQ(gao.degree(AsNumber(5)), 0u);
  EXPECT_EQ(gao.top_clique(),
            (std::vector<AsNumber>{AsNumber(top), AsNumber(1), AsNumber(2),
                                   AsNumber(3)}));

  // Replaying the stored paths rebuilds the same state.
  GaoInference replayed;
  for (std::size_t i = 0; i < gao.path_count(); ++i) {
    replayed.add_path(gao.path(i));
  }
  ASSERT_EQ(replayed.path_count(), gao.path_count());
  for (std::size_t i = 0; i < gao.path_count(); ++i) {
    EXPECT_TRUE(std::ranges::equal(replayed.path(i), gao.path(i)));
  }
  EXPECT_EQ(canonical_serialize(replayed.infer()),
            canonical_serialize(gao.infer()));
}

TEST(GaoInference, SimpleChainInfersProviderDirection) {
  GaoInference gao;
  // A hub AS 10 with many neighbors; stub 20 below it; observer 30.
  for (std::uint32_t n = 40; n < 50; ++n) {
    gao.add_path(bgp::AsPath({AsNumber(n), AsNumber(10), AsNumber(20)}));
  }
  const auto rels = gao.infer();
  EXPECT_EQ(rels.relationship(AsNumber(10), AsNumber(20)), RelKind::kCustomer);
  EXPECT_EQ(rels.relationship(AsNumber(20), AsNumber(10)), RelKind::kProvider);
}

// Full-pipeline accuracy properties over seeds.
class GaoAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaoAccuracy, HighAccuracyOnSyntheticInternet) {
  const auto& exp = testing::shared_experiment(GetParam());
  const double accuracy =
      exp.inference().inferred.accuracy_against(exp.truth().topo.graph);
  EXPECT_GT(accuracy, 0.93) << "accuracy collapsed at seed " << GetParam();
  EXPECT_GT(exp.inference().inferred.edge_count(), 100u);
}

TEST_P(GaoAccuracy, VantageNeighborsNearlyAllCorrect) {
  // The paper's Table 4 finding: 94-99.5% of vantage-adjacent relationships
  // verify.  Our inference should reach that band against ground truth.
  const auto& exp = testing::shared_experiment(GetParam());
  std::size_t ok = 0, total = 0;
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    for (const auto& n : exp.truth().topo.graph.neighbors(vantage)) {
      const auto inferred =
          exp.inference().inferred.relationship(vantage, n.as);
      if (!inferred) continue;
      ++total;
      if (*inferred == n.kind) ++ok;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(total), 0.87);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaoAccuracy, ::testing::Values(42, 7, 123));

TEST(GaoInference, CliqueRecoversTier1Core) {
  const auto& exp = testing::shared_experiment(42);
  // Re-run the inference input to query the clique.
  GaoInference gao;
  for (const bgp::TableEntry entry : exp.sim().sim.collector) {
    for (const bgp::RouteView route : entry) gao.add_path(route.path().hops());
  }
  const auto clique = gao.top_clique();
  // Every clique member must be a true Tier-1.
  for (const auto as : clique) {
    EXPECT_EQ(exp.truth().topo.tier_of(as), topo::Tier::kTier1)
        << util::to_string(as) << " wrongly in the inferred core";
  }
  EXPECT_GE(clique.size(), exp.truth().topo.tier1.size() / 2);
}

TEST(GaoInference, AblationPeerDetectionMatters) {
  const auto scenario = core::Scenario::small(42);
  const auto topo = topo::generate_topology(scenario.topo_params);
  const auto plan = topo::allocate_prefixes(topo, scenario.alloc_params);
  const auto gen = sim::generate_policies(topo, plan, scenario.policy_params);
  const auto originations = sim::all_originations(plan, gen);
  sim::VantageSpec spec;
  for (const auto as : topo.tier1) spec.collector_peers.push_back(as);
  for (std::size_t i = 0; i < 8 && i < topo.tier2.size(); ++i) {
    spec.collector_peers.push_back(topo.tier2[i]);
  }
  const auto sim = sim::run_simulation(topo.graph, gen.policies, originations,
                                       spec);
  GaoInference gao;
  for (const bgp::TableEntry entry : sim.collector) {
    for (const bgp::RouteView route : entry) gao.add_path(route.path().hops());
  }

  GaoParams with;
  GaoParams without;
  without.detect_peers = false;
  without.detect_clique = false;
  const double acc_with = gao.infer(with).accuracy_against(topo.graph);
  const double acc_without = gao.infer(without).accuracy_against(topo.graph);
  EXPECT_GT(acc_with, acc_without)
      << "peer/clique refinement should improve accuracy";
}

}  // namespace
}  // namespace bgpolicy::asrel
