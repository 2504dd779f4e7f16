// Caches experiment runs per seed so the many core-analysis tests don't
// each pay for a fresh simulation.
#pragma once

#include <map>
#include <memory>

#include "core/experiment.h"

namespace bgpolicy::testing {

/// A shared, lazily built small-scenario experiment run through Infer.
/// Tests must treat it as immutable; its analysis view is
/// `shared_experiment(seed).view()`.
inline const core::Experiment& shared_experiment(std::uint64_t seed = 42) {
  static std::map<std::uint64_t, std::unique_ptr<core::Experiment>> cache;
  auto& entry = cache[seed];
  if (!entry) {
    core::RunOptions options;
    options.until = core::Stage::kInfer;
    entry = std::make_unique<core::Experiment>(core::Scenario::small(seed),
                                               options);
    entry->run();
  }
  return *entry;
}

}  // namespace bgpolicy::testing
