// Satellite equivalence suite: scenarios/small.scn is a knob-by-knob
// transcription of core::Scenario::small(42), and this test pins the
// spec language to the constructor — the parsed Scenario must compare
// equal and hash to the same scenario_cache_key.  If a knob is added to
// Scenario without a spec-language spelling (or small.scn drifts), this
// suite is the tripwire.  small.scn's digest pins are checked against a
// run by its corpus case and by determinism_contract_test.cc.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario_spec.h"

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

}  // namespace
}  // namespace bgpolicy::core
