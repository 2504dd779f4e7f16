#include "serve/snapshot.h"

#include <stdexcept>
#include <utility>

#include "core/artifact_store.h"

namespace bgpolicy::serve {

void SnapshotRegistry::publish(std::shared_ptr<Snapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("SnapshotRegistry: cannot publish null");
  }
  snapshot->version = published_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::shared_ptr<const Snapshot> replaced = std::move(snapshot);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    current_.swap(replaced);
  }
  // The previous snapshot is released here, outside the lock.
}

std::shared_ptr<Snapshot> build_snapshot(const core::Scenario& scenario,
                                         const core::RunOptions& options) {
  core::RunOptions run = options;
  run.until = core::Stage::kAnalyze;
  core::Experiment experiment(scenario, run);
  experiment.run();
  // Force ground-truth materialization before stealing the artifacts: on a
  // store hit the run above decodes later stages without ever synthesizing,
  // but what-if queries need the truth substrate.
  (void)experiment.truth();

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->scenario_name = scenario.name;
  snapshot->scenario_key = core::scenario_cache_key(scenario);
  core::Experiment::StageArtifacts artifacts =
      std::move(experiment).take_artifacts();
  snapshot->sim = std::move(*artifacts.sim);
  snapshot->observations = std::move(*artifacts.observations);
  snapshot->inference = std::move(*artifacts.inference);
  snapshot->analyses = std::move(*artifacts.analyses);
  snapshot->analyses_digest =
      core::stable_digest_hex(core::canonical_serialize(snapshot->analyses));
  snapshot->truth = std::make_shared<const core::GroundTruth>(
      std::move(*artifacts.truth));
  snapshot->what_if =
      std::make_shared<WhatIfBase>(snapshot->truth, scenario.propagation);
  return snapshot;
}

}  // namespace bgpolicy::serve
