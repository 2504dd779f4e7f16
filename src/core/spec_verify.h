// Executable verification of scenario specs: evaluates a parsed
// `verify` block (core/scenario_spec.h) against a materialized
// Experiment, replaying the spec's `events` script through the
// propagation engine for the route-level assertions.
//
// Route checks and the event timeline
// -----------------------------------
// `route`/`unreachable` assertions carry an optional `at <k>` clause
// selecting a timeline point: the world after the first k events of the
// spec's script (k = 0 is the initial converged world; no clause means
// "after the whole script").  The evaluator steps through the events
// once, maintaining the failed-edge set and the active origination list,
// and at each requested point runs per-prefix fixpoints for exactly the
// prefixes under assertion.  When several active originations share the
// asserted prefix (anycast / MOAS / hijack), each origination's fixpoint
// is computed independently and the vantage's winner is chosen with the
// full decision process across the candidates — an approximation that is
// exact for single-origin prefixes (see docs/SCENARIOS.md).
//
// Analysis assertions (sa_prevalence, homing_multihomed, import_typical,
// inference_accuracy) read the Experiment's Analyze/Infer artifacts;
// `digest` assertions re-encode the pinned stage's artifact with the
// store codec and compare `store_digest_hex`, so a digest pin in a .scn
// file fails exactly when the artifact-store digest would change.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/scenario_spec.h"

namespace bgpolicy::core {

/// Outcome of one verify assertion.
struct CheckResult {
  SpecCheck check;
  bool passed = false;
  /// Human-readable evidence: expected vs. observed, ready for a
  /// "<source>:<line>: <detail>" report line.
  std::string detail;
};

/// Outcome of a whole verify block, in file order.
struct VerifyReport {
  /// The spec's source label (file path) — report prefixes.
  std::string source;
  std::vector<CheckResult> results;

  [[nodiscard]] std::size_t failure_count() const;
  [[nodiscard]] bool all_passed() const { return failure_count() == 0; }
};

/// One-line rendering of an assertion in spec syntax (for reports).
[[nodiscard]] std::string describe_check(const SpecCheck& check);

/// Evaluates every assertion of `spec` against `experiment`, running
/// whatever stages the assertions need (the experiment's scenario must be
/// the spec's scenario).  Never throws on a failing assertion — failures
/// are data in the report; throws only on infrastructure errors
/// (stage execution itself failing).
[[nodiscard]] VerifyReport run_spec_checks(const ScenarioSpec& spec,
                                           Experiment& experiment);

}  // namespace bgpolicy::core
