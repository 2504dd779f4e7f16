// Evaluator tests for core/spec_verify.h: route/unreachable checks
// against the event timeline, analysis-bound checks, digest pins, and
// the failure-reporting contract (a failing check carries an "observed"
// detail, never throws).
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario_spec.h"
#include "core/spec_verify.h"
#include "io/artifact_codec.h"

namespace bgpolicy::core {
namespace {

// Chain world: 1 (tier1) -> 2 (tier2) -> 3 (stub), with a bypass
// provider 1 -> 3 so the stub survives losing its transit.
constexpr const char* kChainSpec = R"(scenario verify-lab
base default
topology {
  explicit
  as 1 tier1
  as 2 tier2
  as 3 stub
  provider 1 2
  provider 2 3
  provider 1 3
}
prefixes {
  originate 3 10.3.0.0/16
}
events {
  fail 1 3
  withdraw 3 10.3.0.0/16
  announce 3 10.3.0.0/16
  restore 1 3
}
verify {
  route 1 10.3.0.0/16 via 3 at 0
  route 1 10.3.0.0/16 path 2 3 at 1
  unreachable 1 10.3.0.0/16 at 2
  route 1 10.3.0.0/16 origin 3 at 3
  route 1 10.3.0.0/16 via 3
}
)";

ScenarioSpec chain_spec() { return ScenarioSpec::parse(kChainSpec, "chain"); }

TEST(SpecVerify, TimelineChecksPass) {
  ScenarioSpec spec = chain_spec();
  Experiment experiment(spec.scenario);
  const VerifyReport report = run_spec_checks(spec, experiment);
  EXPECT_EQ(report.source, "chain");
  ASSERT_EQ(report.results.size(), spec.checks.size());
  for (const CheckResult& result : report.results) {
    EXPECT_TRUE(result.passed)
        << describe_check(result.check) << " — " << result.detail;
  }
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.failure_count(), 0u);
}

TEST(SpecVerify, FailingRouteCheckReportsObserved) {
  ScenarioSpec spec = chain_spec();
  spec.checks.clear();
  SpecCheck check;
  check.kind = SpecCheck::Kind::kRouteOrigin;
  check.vantage = 1;
  check.prefix = *bgp::Prefix::try_parse("10.3.0.0/16");
  check.expect_as = 2;  // wrong: the origin is 3
  spec.checks.push_back(check);

  Experiment experiment(spec.scenario);
  const VerifyReport report = run_spec_checks(spec, experiment);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].passed);
  EXPECT_NE(report.results[0].detail.find("3"), std::string::npos)
      << report.results[0].detail;
  EXPECT_EQ(report.failure_count(), 1u);
}

TEST(SpecVerify, UnreachableFailsWhenRouteExists) {
  ScenarioSpec spec = chain_spec();
  spec.checks.clear();
  SpecCheck check;
  check.kind = SpecCheck::Kind::kUnreachable;
  check.vantage = 1;
  check.prefix = *bgp::Prefix::try_parse("10.3.0.0/16");
  spec.checks.push_back(check);

  Experiment experiment(spec.scenario);
  const VerifyReport report = run_spec_checks(spec, experiment);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].passed);
}

TEST(SpecVerify, UnreachablePassesForUnknownPrefix) {
  ScenarioSpec spec = chain_spec();
  spec.checks.clear();
  SpecCheck check;
  check.kind = SpecCheck::Kind::kUnreachable;
  check.vantage = 1;
  check.prefix = *bgp::Prefix::try_parse("192.0.2.0/24");
  spec.checks.push_back(check);

  Experiment experiment(spec.scenario);
  const VerifyReport report = run_spec_checks(spec, experiment);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_TRUE(report.results[0].passed) << report.results[0].detail;
}

TEST(SpecVerify, DigestPinMatchesEncodedArtifact) {
  ScenarioSpec spec = chain_spec();
  spec.checks.clear();
  Experiment experiment(spec.scenario);
  const std::string truth_digest =
      store_digest_hex(io::encode(experiment.truth()));

  SpecCheck good;
  good.kind = SpecCheck::Kind::kDigest;
  good.stage = Stage::kSynthesize;
  good.digest = truth_digest;
  SpecCheck bad = good;
  bad.digest = std::string(32, 'f');
  spec.checks = {good, bad};

  const VerifyReport report = run_spec_checks(spec, experiment);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].passed) << report.results[0].detail;
  EXPECT_FALSE(report.results[1].passed);
  // The failure detail surfaces the observed digest for pin updates.
  EXPECT_NE(report.results[1].detail.find(truth_digest), std::string::npos)
      << report.results[1].detail;
}

TEST(SpecVerify, DescribeCheckIsStable) {
  const ScenarioSpec spec = chain_spec();
  ASSERT_GE(spec.checks.size(), 3u);
  EXPECT_EQ(describe_check(spec.checks[0]), "route 1 10.3.0.0/16 via 3 at 0");
  EXPECT_EQ(describe_check(spec.checks[2]), "unreachable 1 10.3.0.0/16 at 2");
  // The trailing check has no 'at' clause: evaluated at end of script.
  EXPECT_EQ(describe_check(spec.checks[4]), "route 1 10.3.0.0/16 via 3");
}

}  // namespace
}  // namespace bgpolicy::core
