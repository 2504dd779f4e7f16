// Satellite equivalence suite: scenarios/small.scn is a knob-by-knob
// transcription of core::Scenario::small(42), and this test pins the
// spec language to the constructor — the parsed Scenario must compare
// equal, hash to the same scenario_cache_key, and produce byte-identical
// synthesize/simulate artifacts at 1, 2, and 8 worker threads.  If a
// knob is added to Scenario without a spec-language spelling (or
// small.scn drifts), this suite is the tripwire.
#include <array>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario_spec.h"
#include "io/artifact_codec.h"

namespace bgpolicy::core {
namespace {

ScenarioSpec load_small_spec() {
  return ScenarioSpec::parse_file(std::filesystem::path(BGPOLICY_SCENARIO_DIR) /
                                  "small.scn");
}

TEST(ScenarioSpecEquivalence, SmallScnEqualsConstructor) {
  const ScenarioSpec spec = load_small_spec();
  const Scenario ctor = Scenario::small(42);
  EXPECT_EQ(spec.scenario, ctor)
      << "scenarios/small.scn no longer transcribes Scenario::small(42)";
}

TEST(ScenarioSpecEquivalence, SmallScnSharesCacheKey) {
  const ScenarioSpec spec = load_small_spec();
  const Scenario ctor = Scenario::small(42);
  EXPECT_EQ(scenario_cache_key(spec.scenario), scenario_cache_key(ctor))
      << "a spec-built small() must hit the same artifact-store entries";
}

TEST(ScenarioSpecEquivalence, ArtifactDigestsStableAcrossThreads) {
  const ScenarioSpec spec = load_small_spec();
  const std::array<std::size_t, 3> thread_counts{1, 2, 8};

  std::string truth_digest;
  std::string sim_digest;
  for (const std::size_t threads : thread_counts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Scenario scenario = spec.scenario;
    scenario.propagation.threads = threads;
    Experiment experiment(scenario);
    const std::string truth_here =
        store_digest_hex(io::encode(experiment.truth()));
    const std::string sim_here = store_digest_hex(io::encode(experiment.sim()));
    if (truth_digest.empty()) {
      truth_digest = truth_here;
      sim_digest = sim_here;
    } else {
      EXPECT_EQ(truth_here, truth_digest);
      EXPECT_EQ(sim_here, sim_digest);
    }
  }

  // And the run matches the digests pinned in the .scn verify block, so
  // the file's pins and this suite can never drift apart silently.
  bool saw_synthesize_pin = false;
  bool saw_simulate_pin = false;
  for (const SpecCheck& check : spec.checks) {
    if (check.kind != SpecCheck::Kind::kDigest) continue;
    if (check.stage == Stage::kSynthesize) {
      EXPECT_EQ(check.digest, truth_digest);
      saw_synthesize_pin = true;
    } else if (check.stage == Stage::kSimulate) {
      EXPECT_EQ(check.digest, sim_digest);
      saw_simulate_pin = true;
    }
  }
  EXPECT_TRUE(saw_synthesize_pin) << "small.scn lost its synthesize pin";
  EXPECT_TRUE(saw_simulate_pin) << "small.scn lost its simulate pin";
}

}  // namespace
}  // namespace bgpolicy::core
