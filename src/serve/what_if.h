// The warm substrate `what_if_failure` queries branch from.
//
// A what-if query asks "if these sessions failed, what would this AS's
// route to these prefixes become?"  Answering it cold would pay a full
// per-prefix fixpoint per query.  Instead the snapshot carries one
// `WhatIfBase`: the scenario's ground truth (graph + policies +
// originations), a `sim::DeltaEngine` (which owns the flat context), and a
// lazily filled write-once cache of converged healthy-world `DeltaState`s —
// one per origination.
// Each query deep-copies the base state of every origination it touches
// (DeltaState::assign_from), applies the hypothetical failures as a dirty
// frontier (sim/delta_engine.h), and reads the branched route, leaving the
// shared base untouched.
//
// Thread safety: base states are computed *outside* the cache lock and
// installed insert-if-absent, so a slow converge never blocks other
// queries; two racing queries may both converge the same origination and
// one result is discarded — harmless, because converge is deterministic
// and the cached value is identical either way.  Responses therefore stay
// a pure function of (request, snapshot), the service's determinism
// contract.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bgp/prefix.h"
#include "core/experiment.h"
#include "sim/delta_engine.h"

namespace bgpolicy::serve {

class WhatIfBase {
 public:
  /// `truth` must be non-null; the options' thread knob is irrelevant here
  /// (each query's waves run on the serving thread).
  WhatIfBase(std::shared_ptr<const core::GroundTruth> truth,
             sim::PropagationOptions options);

  /// One distinct originated prefix and the positions of its originations
  /// in truth().originations, ascending (several for a MOAS prefix).
  struct Target {
    bgp::Prefix prefix;
    std::vector<std::size_t> originations;
  };

  [[nodiscard]] const core::GroundTruth& truth() const { return *truth_; }
  [[nodiscard]] const sim::DeltaEngine& engine() const { return engine_; }

  /// Every distinct originated prefix in first-origination order — the
  /// response order of what-if queries — indexed once at construction, so
  /// a query's target scan is linear in the prefixes instead of
  /// prefixes × originations.
  [[nodiscard]] const std::vector<Target>& targets() const { return targets_; }

  /// The converged healthy-world state of origination #`index` (an index
  /// into truth().originations).  First call converges and caches;
  /// later calls return the cached state.  Thread-safe; the returned
  /// state is shared and must not be mutated — branch with assign_from.
  [[nodiscard]] std::shared_ptr<const sim::DeltaState> base_state(
      std::size_t index) const;

  /// Number of base states converged so far (diagnostics/tests).
  [[nodiscard]] std::size_t converged_count() const;

 private:
  std::shared_ptr<const core::GroundTruth> truth_;
  std::vector<Target> targets_;
  sim::DeltaEngine engine_;
  /// Warmed scratches the base converges lease: a converge runs in the
  /// scratch's own state and is copied out (sim/delta_engine.h), so a
  /// fresh scratch per converge would grow that state from empty each time.
  mutable sim::FlatScratchPool scratches_;
  mutable std::mutex mutex_;
  /// One slot per origination; null until first demanded.  Write-once
  /// under mutex_, value deterministic (see header comment).
  mutable std::vector<std::shared_ptr<const sim::DeltaState>> cache_;
};

}  // namespace bgpolicy::serve
