// Read-mostly snapshot registry: the immutable artifact bundle the query
// service answers from, swapped atomically on refresh.
//
// A `Snapshot` is the decoded Simulate/Observe/Infer/Analyze artifacts of
// one experiment run, frozen behind shared_ptr<const>.  `SnapshotRegistry`
// holds the current snapshot in a mutex-guarded shared_ptr: a reader
// (`current()`) copies it once per request under the lock, and a
// background refresh (`publish()`) swaps in a new snapshot under the same
// lock without disturbing them — an in-flight query keeps the shared_ptr
// it grabbed at dispatch and finishes on the snapshot it started with,
// while the old snapshot is freed when its last reader drops it.  (A
// std::atomic<std::shared_ptr> is not used: libstdc++ 12 releases its
// lock bit on load with relaxed ordering, so a reader's load does not
// happen before the next publish's store, a race ThreadSanitizer reports.
// The lock costs no more per request; docs/QUERY_SERVICE.md has the
// numbers.)  This is the serving half of the determinism contract:
// artifacts are byte-identical however they were computed, so every
// snapshot of one scenario answers every query identically and a mid-run
// swap is invisible except for the bumped version.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/experiment.h"
#include "serve/what_if.h"

namespace bgpolicy::serve {

/// One immutable serving state: everything the query kinds read.
/// Constructed by build_snapshot (or tests) and never mutated after
/// publish; `version` is stamped by the registry at publish time.
struct Snapshot {
  std::uint64_t version = 0;
  std::string scenario_name;
  /// core::scenario_cache_key of the scenario this snapshot serves —
  /// clients can correlate answers with store contents.
  std::string scenario_key;
  core::SimArtifact sim;
  core::Observations observations;
  core::InferenceProducts inference;
  core::AnalysisSuite analyses;
  /// stable_digest_hex over canonical_serialize(analyses): the identity a
  /// client (or the swap-consistency test) uses to pin which snapshot a
  /// response came from.
  std::string analyses_digest;
  /// The scenario's ground truth (graph + policies + originations) — the
  /// substrate what-if queries simulate against.  Behind shared_ptr so
  /// Snapshot stays copyable (the refreshers copy-swap snapshots).
  std::shared_ptr<const core::GroundTruth> truth;
  /// Warm what-if substrate over `truth` (kWhatIfFailure); its internal
  /// base-state cache mutates under a lock but answers stay pure functions
  /// of (request, snapshot) — see serve/what_if.h.  Null in test snapshots
  /// that never exercise what-if queries.
  std::shared_ptr<WhatIfBase> what_if;
};

class SnapshotRegistry {
 public:
  /// Stamps the snapshot with the next version number and makes it the
  /// current one (a pointer swap under the lock; concurrent readers keep
  /// whichever snapshot they already hold).  The snapshot must not be
  /// mutated after this call.
  void publish(std::shared_ptr<Snapshot> snapshot);

  /// The current snapshot, copied under the lock; never null after the
  /// first publish.  Callers take it once per query and hold it for the
  /// whole query, so a concurrent publish cannot pull state out from under
  /// them.
  [[nodiscard]] std::shared_ptr<const Snapshot> current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Number of snapshots published so far (0 = none yet).
  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> current_;
  std::atomic<std::uint64_t> published_{0};
};

/// Runs the scenario's experiment through Analyze (honoring
/// options.threads/store — a populated store makes refresh a pure decode)
/// and moves the artifacts into a publishable snapshot.  The snapshot's
/// answers are byte-identical at any options.threads value.
[[nodiscard]] std::shared_ptr<Snapshot> build_snapshot(
    const core::Scenario& scenario, const core::RunOptions& options = {});

}  // namespace bgpolicy::serve
