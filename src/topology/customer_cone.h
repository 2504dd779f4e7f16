// The customer cone of one provider: every AS reachable from it down
// provider-to-customer edges (Phase 2 of the paper's Fig. 4 algorithm).
//
// The cone belongs to the provider, so it is built once — one DFS into an
// open-addressed member set — and then answers any number of membership
// queries in one probe each.  The SA-prefix inference, the causes
// analysis, path availability and the persistence study all ask "is o in
// u's cone?" for many origins o and one provider u; this is the only
// place the library answers it.
#pragma once

#include <cstddef>

#include "topology/as_graph.h"
#include "util/flat_map.h"

namespace bgpolicy::topo {

class CustomerCone {
 public:
  /// Walks `graph` from `provider`; a provider missing from the graph has
  /// an empty cone.  The graph is not referenced afterwards.
  CustomerCone(const AsGraph& graph, AsNumber provider);

  /// True when a customer path provider -> ... -> `as` exists.  Never true
  /// for the provider itself, even when it sits on a customer cycle.
  [[nodiscard]] bool contains(AsNumber as) const {
    return members_.find(as.value()) != nullptr;
  }

  /// Number of ASes in the cone (the provider excluded).
  [[nodiscard]] std::size_t size() const { return members_.size(); }

 private:
  util::FlatMap64 members_;
};

}  // namespace bgpolicy::topo
