// Batched, sharded execution of the paper's independent per-table analyses.
//
// Sections 4-5 of the paper run one analysis per vantage table: SA-prefix
// inference (Fig. 4 / Table 5), homing distribution (Table 8), cause
// classification (Table 9), and — for looking glasses, where local-pref and
// communities are visible — import typicality (Table 2) and the two-step SA
// verification (Table 7).  Each vantage's bundle is a pure function of the
// (immutable) experiment artifacts, so the suite shards vantages across the
// util/parallel thread pool and merges results in vantage order: identical
// output at any thread count, `threads = 1` is the exact sequential
// program (the same calls the bench binaries previously made one by one).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/causes.h"
#include "core/export_inference.h"
#include "core/homing.h"
#include "core/import_inference.h"
#include "core/experiment_view.h"
#include "core/sa_verification.h"
#include "util/parallel.h"

namespace bgpolicy::core {

/// Every per-table analysis the paper runs against one vantage AS.
struct VantageAnalysis {
  AsNumber vantage;
  bool looking_glass = false;
  SaAnalysis sa;
  HomingDistribution homing;
  CausesAnalysis causes;
  /// Looking-glass vantages only (local preference visible).
  std::optional<ImportTypicality> import_typicality;
  /// Looking-glass vantages only (community verification needs the LG).
  std::optional<SaVerification> sa_verification;
};

template <typename V>
constexpr void fields(V& v, VantageAnalysis& a) {
  v("vantage", a.vantage);
  v("looking_glass", a.looking_glass);
  v("sa", a.sa);
  v("homing", a.homing);
  v("causes", a.causes);
  v("import_typicality", a.import_typicality);
  v("sa_verification", a.sa_verification);
}
static_assert(util::lists_every_member<VantageAnalysis>());

struct AnalysisSuite {
  /// One bundle per requested vantage, in request order.
  std::vector<VantageAnalysis> vantages;

  [[nodiscard]] const VantageAnalysis* find(AsNumber as) const;
};

template <typename V>
constexpr void fields(V& v, AnalysisSuite& s) {
  v("vantages", s.vantages);
}
static_assert(util::lists_every_member<AnalysisSuite>());

/// Every AS with a recorded table (looking glass or best-only), sorted by
/// AS number — the canonical vantage list for whole-suite runs.
[[nodiscard]] std::vector<AsNumber> recorded_vantages(const sim::SimResult& sim);

/// Runs the full analysis bundle for each vantage, sharded across
/// `threads` workers (0 = hardware concurrency, 1 = sequential seed
/// behavior).  When `executor` is given it supplies the shared pool and
/// `threads` is ignored.  The view's products must stay immutable for the
/// duration of the call.  This is the Analyze stage of the staged
/// experiment API (experiment.h).
[[nodiscard]] AnalysisSuite run_analysis_suite(
    const ExperimentView& view, std::span<const AsNumber> vantages,
    std::size_t threads, const util::Executor* executor = nullptr);

/// Stable textual serialization of every integer counter in the suite, in
/// vantage order — the byte-comparison hook for the inference determinism
/// test and the bench_inference_scaling product digest.
[[nodiscard]] std::string canonical_serialize(const AnalysisSuite& suite);

}  // namespace bgpolicy::core
