#include "sim/propagation.h"

#include <algorithm>

#include "sim/flat_engine.h"

namespace bgpolicy::sim {

std::uint64_t FailedEdges::key(AsNumber a, AsNumber b) {
  const auto [lo, hi] = std::minmax(a, b);
  return (static_cast<std::uint64_t>(lo.value()) << 32) | hi.value();
}

void FailedEdges::fail(AsNumber a, AsNumber b) { edges_.insert(key(a, b)); }

void FailedEdges::restore(AsNumber a, AsNumber b) { edges_.erase(key(a, b)); }

bool FailedEdges::is_failed(AsNumber a, AsNumber b) const {
  return edges_.contains(key(a, b));
}

std::vector<std::pair<AsNumber, AsNumber>> FailedEdges::edges() const {
  std::vector<std::uint64_t> keys(edges_.begin(), edges_.end());
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<AsNumber, AsNumber>> out;
  out.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    out.emplace_back(AsNumber(static_cast<std::uint32_t>(k >> 32)),
                     AsNumber(static_cast<std::uint32_t>(k)));
  }
  return out;
}

PrefixRouting compute_prefix(const topo::AsGraph& graph,
                             const PolicySet& policies,
                             const Origination& origination,
                             const FailedEdges* failed,
                             const PropagationOptions& options) {
  // One-shot convenience: builds the flat context and scratch for a single
  // fixpoint.  Loops over many prefixes (run_simulation, churn) build one
  // FlatSimContext and reuse leased scratches instead.
  const FlatSimContext context(graph, policies);
  FlatScratch scratch;
  return compute_prefix_flat(context, origination, failed, options, scratch);
}

}  // namespace bgpolicy::sim
