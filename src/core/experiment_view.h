// The read-only view the per-table analyses consume, plus the canonical
// table orders the inference stages ingest in.
//
// An ExperimentView points into the staged artifacts of core::Experiment
// (experiment.h): the recorded vantage tables, the registry, and the
// inference products.  core::run_analysis_suite (analysis_suite.h) and the
// bench binaries read every paper table through it.
#pragma once

#include <unordered_set>
#include <vector>

#include "asrel/community_verify.h"
#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/path_index.h"
#include "core/relationship_oracle.h"
#include "rpsl/parser.h"
#include "sim/simulation.h"

namespace bgpolicy::core {

/// Non-owning view over the products the per-table analyses consume,
/// assembled from staged experiment artifacts (core::make_view,
/// Experiment::view).  All pointers must outlive the view; all methods are
/// const reads, safe to call concurrently.
struct ExperimentView {
  const sim::SimResult* sim = nullptr;
  const std::vector<rpsl::AutNum>* irr_objects = nullptr;
  const asrel::InferredRelationships* inferred = nullptr;
  const topo::AsGraph* inferred_graph = nullptr;
  const asrel::TierAssignment* tiers = nullptr;
  const PathIndex* paths = nullptr;

  /// A vantage table for `as`: the looking-glass table when recorded, else
  /// the best-only table.  Throws std::out_of_range when neither exists.
  [[nodiscard]] const bgp::BgpTable& table_for(AsNumber as) const;

  [[nodiscard]] bool has_table(AsNumber as) const;

  /// Oracle over inferred relationships (what the paper used).
  [[nodiscard]] RelationshipOracle inferred_oracle() const {
    return oracle_from(*inferred);
  }

  /// Runs the Appendix community verification for one vantage, using its
  /// published IRR semantics when available and the prefix-count gap
  /// heuristic otherwise.
  [[nodiscard]] asrel::CommunityVerification community_verification(
      AsNumber vantage_as) const;

  /// Neighbors of `vantage_as` whose relationship the community method
  /// confirms (community class agrees with the path-inferred class) —
  /// Step 1 input of the Table 7 verification.
  [[nodiscard]] std::unordered_set<AsNumber> community_verified_neighbors(
      AsNumber vantage_as) const;

  /// The AutNum registered for `as`, if the IRR has one.
  [[nodiscard]] const rpsl::AutNum* irr_for(AsNumber as) const;
};

/// Looking-glass vantages of a simulation in ascending AS order — the
/// canonical ingest order of the inference stages.  The Observe stage and
/// bench_inference_scaling must consume tables in the same order for their
/// products to be comparable.
[[nodiscard]] std::vector<AsNumber> sorted_looking_glass(
    const sim::SimResult& sim);

/// The canonical PathIndex table-source list for a simulation: collector
/// first, then each looking glass (ascending AS order) with its vantage AS
/// prepended.  `sim` must outlive the returned pointers.
[[nodiscard]] std::vector<PathIndex::TableSource> inference_table_sources(
    const sim::SimResult& sim);

}  // namespace bgpolicy::core
