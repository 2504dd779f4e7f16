#include "serve/what_if.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/ensure.h"

namespace bgpolicy::serve {

namespace {

std::shared_ptr<const core::GroundTruth> checked(
    std::shared_ptr<const core::GroundTruth> truth) {
  util::ensure(truth != nullptr, "WhatIfBase: null ground truth");
  return truth;
}

std::vector<WhatIfBase::Target> index_targets(
    const std::vector<sim::Origination>& originations) {
  std::vector<WhatIfBase::Target> targets;
  std::unordered_map<bgp::Prefix, std::size_t> slot_of;
  for (std::size_t i = 0; i < originations.size(); ++i) {
    const auto [slot, fresh] =
        slot_of.try_emplace(originations[i].prefix, targets.size());
    if (fresh) targets.push_back({originations[i].prefix, {}});
    targets[slot->second].originations.push_back(i);
  }
  return targets;
}

}  // namespace

WhatIfBase::WhatIfBase(std::shared_ptr<const core::GroundTruth> truth,
                       sim::PropagationOptions options)
    : truth_(checked(std::move(truth))),
      targets_(index_targets(truth_->originations)),
      engine_(truth_->topo.graph, truth_->gen.policies, options),
      cache_(truth_->originations.size()) {}

std::shared_ptr<const sim::DeltaState> WhatIfBase::base_state(
    std::size_t index) const {
  util::ensure(index < cache_.size(), "WhatIfBase: origination out of range");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (cache_[index] != nullptr) return cache_[index];
  }
  // Converge outside the lock: a slow first demand never serializes other
  // queries.  Losing an install race is fine — converge is deterministic,
  // so both candidates are value-identical.
  auto state = std::make_shared<sim::DeltaState>();
  const auto lease = scratches_.acquire();
  engine_.converge(truth_->originations[index], nullptr, *state, *lease);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cache_[index] == nullptr) cache_[index] = std::move(state);
  return cache_[index];
}

std::size_t WhatIfBase::converged_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(cache_.begin(), cache_.end(),
                    [](const auto& slot) { return slot != nullptr; }));
}

}  // namespace bgpolicy::serve
