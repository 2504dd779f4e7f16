// Sharded Gao voting on its own: the classification of one path set is
// the same at any thread count.  The inference products end to end are
// checked in determinism_contract_test.cc.
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario.h"

namespace bgpolicy::core {
namespace {

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
