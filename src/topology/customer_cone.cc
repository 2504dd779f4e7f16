#include "topology/customer_cone.h"

#include <vector>

namespace bgpolicy::topo {

CustomerCone::CustomerCone(const AsGraph& graph, AsNumber provider) {
  // Iterative DFS down provider-to-customer edges only.  Edges back to the
  // provider are skipped, so a customer cycle through it adds nothing.
  std::vector<AsNumber> stack{provider};
  while (!stack.empty()) {
    const AsNumber current = stack.back();
    stack.pop_back();
    for (const Neighbor& n : graph.neighbors(current)) {
      if (n.kind != RelKind::kCustomer || n.as == provider) continue;
      if (members_.try_insert(n.as.value(), 0).second) stack.push_back(n.as);
    }
  }
}

}  // namespace bgpolicy::topo
