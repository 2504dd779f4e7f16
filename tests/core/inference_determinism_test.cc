// The inference-side determinism contract (the counterpart of
// sim_parallel_determinism_test): every inference product — inferred
// relationships, tier assignment, path index, and the per-table analysis
// suite — serializes byte-identically for threads ∈ {1, 2, 0}, where 1 is
// the exact sequential seed program and 0 resolves to hardware concurrency.
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asrel/tier_classify.h"
#include "core/analysis_suite.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace bgpolicy::core {
namespace {

struct Products {
  std::string relationships;
  std::string tiers;
  std::size_t path_count = 0;
  std::size_t adjacency_count = 0;
  std::string analyses;
};

Products products_at(std::size_t threads) {
  RunOptions options;
  options.threads = threads;
  options.until = Stage::kInfer;
  Experiment experiment(Scenario::small(), options);
  experiment.run();
  const PathIndex& paths = experiment.observations().paths;
  Products out;
  out.relationships =
      asrel::canonical_serialize(experiment.inference().inferred);
  out.tiers = asrel::canonical_serialize(experiment.inference().tiers);
  out.path_count = paths.path_count();
  out.adjacency_count = paths.adjacency_count();
  out.analyses = canonical_serialize(run_analysis_suite(
      experiment.view(), recorded_vantages(experiment.sim().sim), threads));
  return out;
}

TEST(InferenceDeterminism, ProductsIdenticalAcrossThreadCounts) {
  const Products reference = products_at(1);
  ASSERT_FALSE(reference.relationships.empty());
  ASSERT_FALSE(reference.tiers.empty());
  ASSERT_GT(reference.path_count, 0u);
  ASSERT_GT(reference.adjacency_count, 0u);
  ASSERT_FALSE(reference.analyses.empty());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    const Products result = products_at(threads);
    EXPECT_EQ(result.relationships, reference.relationships)
        << "inferred relationships differ at threads=" << threads;
    EXPECT_EQ(result.tiers, reference.tiers)
        << "tier assignment differs at threads=" << threads;
    EXPECT_EQ(result.path_count, reference.path_count)
        << "path index size differs at threads=" << threads;
    EXPECT_EQ(result.adjacency_count, reference.adjacency_count)
        << "path index adjacencies differ at threads=" << threads;
    EXPECT_EQ(result.analyses, reference.analyses)
        << "analysis suite differs at threads=" << threads;
  }
}

// Sharded Gao voting must match the sequential classification on the raw
// path set too, not only end-to-end through the pipeline.
TEST(InferenceDeterminism, GaoVotingIdenticalOnSharedPathSet) {
  RunOptions options;
  options.threads = 1;
  Experiment experiment(Scenario::small(), options);

  asrel::GaoInference gao;
  gao.add_table_paths(experiment.sim().sim.collector);
  asrel::GaoParams params;
  params.threads = 1;
  const std::string reference = asrel::canonical_serialize(gao.infer(params));
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    params.threads = threads;
    EXPECT_EQ(asrel::canonical_serialize(gao.infer(params)), reference)
        << "Gao classification differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace bgpolicy::core
