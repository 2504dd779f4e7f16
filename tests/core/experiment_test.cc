// The staged experiment API: downstream stages re-run against cached
// upstream artifacts (verified by stage-run counters), stage selection
// stops where asked, and sweeps share upstream work per distinct scenario
// and merge in request order.  That every run shape reproduces the
// freestanding stage functions byte for byte is checked in
// determinism_contract_test.cc.
#include "core/experiment.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/artifact_codec.h"

namespace bgpolicy::core {
namespace {

using util::AsNumber;

/// An artifact's codec bytes: encoding is content-pure, so equal bytes are
/// equal artifacts.
template <typename Artifact>
std::string encoded(const Artifact& artifact) {
  const std::vector<std::uint8_t> bytes = io::encode(artifact);
  return std::string(bytes.begin(), bytes.end());
}

/// The freestanding stage functions at threads = 1, no executor, no store:
/// the reference every Experiment execution shape must reproduce.
struct StageReference {
  GroundTruth truth;
  SimArtifact sim;
  Observations observations;
  InferenceProducts inference;
};

StageReference run_stage_functions(const Scenario& scenario) {
  StageReference ref;
  ref.truth = synthesize(scenario);
  ref.sim = simulate(scenario, ref.truth, 1);
  ref.observations = observe(scenario, ref.truth, ref.sim, 1);
  asrel::GaoParams params;
  params.threads = 1;
  ref.inference = infer_relationships(ref.observations, params);
  return ref;
}

TEST(Experiment, RerunInferReusesCachedUpstreamArtifacts) {
  Experiment experiment(Scenario::small(7));
  const std::string irr_before = experiment.observations().irr_text;
  const std::string first =
      asrel::canonical_serialize(experiment.inference().inferred);

  // Same params, different knob: the peer-detection ablation must change
  // the classification, without re-running any upstream stage.
  asrel::GaoParams no_peers;
  no_peers.detect_peers = false;
  const std::string second =
      asrel::canonical_serialize(experiment.rerun_infer(no_peers).inferred);
  EXPECT_NE(second, first);

  EXPECT_EQ(experiment.counters().synthesize, 1u);
  EXPECT_EQ(experiment.counters().simulate, 1u);
  EXPECT_EQ(experiment.counters().observe, 1u);
  EXPECT_EQ(experiment.counters().infer, 2u);
  EXPECT_EQ(experiment.observations().irr_text, irr_before);

  // Re-running with the original params restores the original products —
  // the cached Observations are bit-for-bit stable across Infer variants.
  asrel::GaoParams original;
  original.threads = experiment.threads();
  EXPECT_EQ(asrel::canonical_serialize(
                experiment.rerun_infer(original).inferred),
            first);
}

TEST(Experiment, StageSelectionStopsWhereAsked) {
  RunOptions options;
  options.until = Stage::kSimulate;
  Experiment experiment(Scenario::small(7), options);
  experiment.run();
  EXPECT_EQ(experiment.counters().synthesize, 1u);
  EXPECT_EQ(experiment.counters().simulate, 1u);
  EXPECT_EQ(experiment.counters().observe, 0u);
  EXPECT_EQ(experiment.counters().infer, 0u);
  EXPECT_EQ(experiment.counters().analyze, 0u);

  const Experiment& finished = experiment;
  EXPECT_GT(finished.sim().sim.collector.prefix_count(), 0u);
  EXPECT_THROW((void)finished.observations(), std::logic_error);
  EXPECT_THROW((void)finished.inference(), std::logic_error);

  // Moving the artifacts out hands over exactly the stages that ran.
  const Experiment::StageArtifacts taken =
      std::move(experiment).take_artifacts();
  EXPECT_TRUE(taken.truth.has_value());
  EXPECT_TRUE(taken.sim.has_value());
  EXPECT_FALSE(taken.observations.has_value());
  EXPECT_FALSE(taken.inference.has_value());
  EXPECT_FALSE(taken.analyses.has_value());
}

TEST(Experiment, AnalyzeStageMatchesSuiteOverStageFunctions) {
  RunOptions options;
  options.threads = 1;
  Experiment experiment(Scenario::small(42), options);
  const std::string staged = encoded(experiment.analyses());
  EXPECT_EQ(experiment.counters().analyze, 1u);

  const StageReference reference = run_stage_functions(Scenario::small(42));
  const std::string direct = encoded(run_analysis_suite(
      make_view(reference.sim, reference.observations, reference.inference),
      recorded_vantages(reference.sim.sim), 1));
  EXPECT_EQ(staged, direct);
}

std::vector<SweepVariant> sweep_variants() {
  SweepVariant base;
  base.label = "base";
  base.scenario = Scenario::small(5);

  SweepVariant no_peers = base;
  no_peers.label = "no-peers";
  no_peers.options.gao = asrel::GaoParams{};
  no_peers.options.gao->detect_peers = false;

  SweepVariant other_seed;
  other_seed.label = "seed9";
  other_seed.scenario = Scenario::small(9);

  // Same world as `base`, different thread knob: must share its upstream
  // cache entry (thread counts never change artifact bytes).
  SweepVariant threaded = base;
  threaded.label = "threaded";
  threaded.scenario.propagation.threads = 3;

  return {base, no_peers, other_seed, threaded};
}

TEST(Sweep, ReusesUpstreamArtifactsPerDistinctScenario) {
  const std::vector<SweepVariant> variants = sweep_variants();
  const SweepReport report = sweep(variants, 1);

  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.distinct_scenarios, 2u);
  // The stage-run ledger: upstream stages once per distinct scenario,
  // Infer/Analyze once per variant.
  EXPECT_EQ(report.counters.synthesize, 2u);
  EXPECT_EQ(report.counters.simulate, 2u);
  EXPECT_EQ(report.counters.observe, 2u);
  EXPECT_EQ(report.counters.infer, 4u);
  EXPECT_EQ(report.counters.analyze, 4u);

  // Results merge in request order.
  EXPECT_EQ(report.runs[0].label, "base");
  EXPECT_EQ(report.runs[1].label, "no-peers");
  EXPECT_EQ(report.runs[2].label, "seed9");
  EXPECT_EQ(report.runs[3].label, "threaded");

  // Cache-key relationships.
  EXPECT_EQ(report.runs[0].scenario_key, report.runs[1].scenario_key);
  EXPECT_EQ(report.runs[0].scenario_key, report.runs[3].scenario_key);
  EXPECT_NE(report.runs[0].scenario_key, report.runs[2].scenario_key);

  // Identical scenario + params => identical products; a changed inference
  // knob or seed => different ones.
  EXPECT_EQ(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[3].inference.inferred));
  EXPECT_NE(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[1].inference.inferred));
  EXPECT_NE(asrel::canonical_serialize(report.runs[0].inference.inferred),
            asrel::canonical_serialize(report.runs[2].inference.inferred));
}

TEST(Experiment, InvalidateRestartsTheChunkLedger) {
  RunOptions options;
  options.threads = 3;
  options.sim_chunk_prefixes = 7;
  Experiment experiment(Scenario::small(7), options);
  experiment.run(Stage::kSimulate);
  const std::string first = encoded(experiment.sim());
  const SimChunkLedger ledger = experiment.sim_chunks();
  EXPECT_GT(ledger.total, 1u);
  EXPECT_EQ(ledger.computed, ledger.total);

  // Invalidate-and-rerun counts the rerun's chunks afresh and reproduces
  // the same bytes.
  experiment.invalidate(Stage::kSimulate);
  experiment.run(Stage::kSimulate);
  EXPECT_EQ(experiment.sim_chunks().total, ledger.total);
  EXPECT_EQ(experiment.sim_chunks().computed, ledger.total);
  EXPECT_EQ(experiment.sim_chunks().loaded, 0u);
  EXPECT_EQ(encoded(experiment.sim()), first);
}

TEST(Sweep, StreamsCompletionsWhileMergingInRequestOrder) {
  const std::vector<SweepVariant> variants = sweep_variants();

  // Sequential execution completes variants in request order — the
  // deterministic anchor for completion_index.
  const SweepReport sequential = sweep(variants, 1);
  for (std::size_t i = 0; i < sequential.runs.size(); ++i) {
    EXPECT_EQ(sequential.runs[i].completion_index, i);
  }

  // Parallel execution streams in some order (a permutation), but the
  // report still merges in request order with identical products.
  const SweepReport sharded = sweep(variants, 4);
  std::vector<std::size_t> seen(sharded.runs.size(), 0);
  for (std::size_t i = 0; i < sharded.runs.size(); ++i) {
    EXPECT_EQ(sharded.runs[i].label, variants[i].label);
    ASSERT_LT(sharded.runs[i].completion_index, seen.size());
    ++seen[sharded.runs[i].completion_index];
  }
  for (const std::size_t count : seen) EXPECT_EQ(count, 1u);
}

TEST(ScenarioCacheKey, SeparatesWorldsAndIgnoresThreadKnobs) {
  const Scenario a = Scenario::small(5);
  Scenario b = Scenario::small(5);
  EXPECT_EQ(scenario_cache_key(a), scenario_cache_key(b));

  b.propagation.threads = 7;  // thread knobs never change artifacts
  EXPECT_EQ(scenario_cache_key(a), scenario_cache_key(b));

  b = Scenario::small(5);
  b.topo_params.stub_count += 1;
  EXPECT_NE(scenario_cache_key(a), scenario_cache_key(b));

  b = Scenario::small(5);
  b.irr_params.coverage += 1e-9;  // distinct doubles print distinct text
  EXPECT_NE(scenario_cache_key(a), scenario_cache_key(b));

  EXPECT_NE(scenario_cache_key(Scenario::small(5)),
            scenario_cache_key(Scenario::small(6)));
}

}  // namespace
}  // namespace bgpolicy::core
