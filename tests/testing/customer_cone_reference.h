// The reference topo::CustomerCone is checked against: one fresh DFS per
// (provider, AS) query.
#pragma once

#include <unordered_set>
#include <vector>

#include "topology/as_graph.h"
#include "util/ids.h"

namespace bgpolicy::testing {

/// True when a customer path (provider -> ... -> descendant following only
/// provider-to-customer edges) exists from `provider` down to `as`.
inline bool in_customer_cone(const topo::AsGraph& graph,
                             util::AsNumber provider, util::AsNumber as) {
  if (provider == as) return false;
  // Iterative DFS down provider-to-customer edges only (Fig. 4 Phase 2:
  // the path relationship constraint).
  std::unordered_set<util::AsNumber> visited{provider};
  std::vector<util::AsNumber> stack{provider};
  while (!stack.empty()) {
    const util::AsNumber current = stack.back();
    stack.pop_back();
    for (const auto& n : graph.neighbors(current)) {
      if (n.kind != topo::RelKind::kCustomer) continue;
      if (n.as == as) return true;
      if (visited.insert(n.as).second) stack.push_back(n.as);
    }
  }
  return false;
}

}  // namespace bgpolicy::testing
