// Cross-module property tests on full pipeline runs: the simulator's
// global invariants and the consistency between inference output and
// ground truth, swept over seeds.
#include <gtest/gtest.h>

#include "core/export_inference.h"
#include "core/import_inference.h"
#include "core/experiment.h"
#include "testing/experiment_cache.h"

namespace bgpolicy {
namespace {

using core::Scenario;
using util::AsNumber;

class PipelineInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const core::Experiment& experiment() {
    return testing::shared_experiment(GetParam());
  }
};

TEST_P(PipelineInvariants, AllCollectorPathsAreValleyFree) {
  // Every path any vantage observes must be valley-free under the ground
  // truth annotations — the export rules guarantee it (Section 2.2.2).
  const auto& exp = experiment();
  std::size_t checked = 0;
  for (const bgp::TableEntry entry : exp.sim().sim.collector) {
    for (const bgp::RouteView route : entry) {
      ++checked;
      ASSERT_TRUE(exp.truth().topo.graph.is_valley_free(route.path().hops()))
          << "valley in " << route.to_route().path.to_string();
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST_P(PipelineInvariants, NoPathContainsLoops) {
  // Consecutive duplicates are AS-path prepending, not loops; an AS
  // reappearing after a different AS is a genuine loop.
  const auto& exp = experiment();
  for (const bgp::TableEntry entry : exp.sim().sim.collector) {
    for (const bgp::RouteView route : entry) {
      std::unordered_set<AsNumber> seen;
      const bgp::HopSpan hops = route.path();
      for (std::size_t i = 0; i < hops.length(); ++i) {
        if (i > 0 && hops[i] == hops[i - 1]) continue;  // prepending
        ASSERT_TRUE(seen.insert(hops[i]).second)
            << "loop in " << route.to_route().path.to_string();
      }
    }
  }
}

TEST_P(PipelineInvariants, CollectorPathsEndAtTheTrueOrigin) {
  const auto& exp = experiment();
  std::unordered_map<bgp::Prefix, AsNumber> origin_of;
  for (const auto& origination : exp.truth().originations) {
    origin_of.emplace(origination.prefix, origination.origin);
  }
  for (const bgp::TableEntry entry : exp.sim().sim.collector) {
    const auto it = origin_of.find(entry.prefix());
    ASSERT_NE(it, origin_of.end());
    for (const bgp::RouteView route : entry) {
      EXPECT_EQ(route.origin_as(), it->second);
    }
  }
}

TEST_P(PipelineInvariants, WithheldPrefixesNeverCrossDeniedEdges) {
  // Ground-truth check: a plain-deny selective unit means no observed path
  // may carry that prefix across the (provider <- origin) edge.
  const auto& exp = experiment();
  for (const auto& unit : exp.truth().gen.truth.origin_units) {
    if (!unit.withheld || unit.via_community) continue;
    for (const auto path :
         exp.observations().paths.paths_for_prefix(unit.prefix)) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const bool crosses =
            path[i] == unit.provider && path[i + 1] == unit.origin;
        ASSERT_FALSE(crosses)
            << unit.prefix.to_string() << " leaked across the denied edge";
      }
    }
  }
}

TEST_P(PipelineInvariants, SaPrefixesScoreWellAgainstTruthOracle) {
  // Running the SA algorithm with inferred relationships should agree with
  // running it on ground truth for the vast majority of prefixes.
  const auto& exp = experiment();
  const auto view = exp.view();
  const AsNumber provider{1};
  const auto inferred_run =
      core::infer_sa_prefixes(view.table_for(provider), provider,
                              *view.inferred_graph, view.inferred_oracle());
  const topo::AsGraph& truth = exp.truth().topo.graph;
  const auto truth_run = core::infer_sa_prefixes(
      view.table_for(provider), provider, truth, core::oracle_from(truth));

  std::unordered_set<bgp::Prefix> truth_sa;
  for (const auto& sa : truth_run.sa_prefixes) truth_sa.insert(sa.prefix);
  std::size_t agree = 0;
  for (const auto& sa : inferred_run.sa_prefixes) {
    if (truth_sa.contains(sa.prefix)) ++agree;
  }
  ASSERT_GT(truth_run.sa_count, 0u);
  // Precision stays high; recall is bounded by inference coverage (origins
  // whose cone membership the path data never reveals), so it gets the
  // looser bound — the regime the paper itself operated in.
  EXPECT_GT(util::percent(agree, inferred_run.sa_count), 85.0);
  EXPECT_GT(util::percent(agree, truth_run.sa_count), 75.0);
}

TEST_P(PipelineInvariants, ImportTypicalityMatchesConfiguredRates) {
  // With the truth oracle the measured atypicality must reflect only the
  // injected deviations, never exceed a loose bound.
  const auto& exp = experiment();
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    const auto result = core::analyze_import_typicality(
        exp.sim().sim.looking_glass.at(vantage),
        core::oracle_from(exp.truth().topo.graph));
    if (result.comparable_prefixes < 20) continue;
    EXPECT_GT(result.percent_typical, 80.0) << util::to_string(vantage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants,
                         ::testing::Values(42, 1234, 98765));

}  // namespace
}  // namespace bgpolicy
