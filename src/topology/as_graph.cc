#include "topology/as_graph.h"

#include <stdexcept>

#include "util/ensure.h"

namespace bgpolicy::topo {

std::string to_string(RelKind kind) {
  switch (kind) {
    case RelKind::kCustomer: return "customer";
    case RelKind::kPeer: return "peer";
    case RelKind::kProvider: return "provider";
  }
  return "?";
}

void AsGraph::add_as(AsNumber as) {
  const auto [it, inserted] = nodes_.try_emplace(as);
  if (inserted) order_.push_back(as);
}

const AsGraph::Node* AsGraph::node(AsNumber as) const {
  const auto it = nodes_.find(as);
  return it == nodes_.end() ? nullptr : &it->second;
}

AsGraph::Node& AsGraph::node_or_throw(AsNumber as) {
  const auto it = nodes_.find(as);
  util::ensure(it != nodes_.end(), "AsGraph: unknown AS");
  return it->second;
}

void AsGraph::add_edge(AsNumber a, AsNumber b, RelKind b_is_to_a) {
  util::ensure(a != b, "AsGraph: self edge");
  Node& node_a = node_or_throw(a);
  Node& node_b = node_or_throw(b);
  util::ensure(!node_a.by_as.contains(b), "AsGraph: duplicate edge");
  node_a.neighbors.push_back({b, b_is_to_a});
  node_a.by_as.emplace(b, b_is_to_a);
  node_b.neighbors.push_back({a, invert(b_is_to_a)});
  node_b.by_as.emplace(a, invert(b_is_to_a));
  edges_.push_back({a, b, b_is_to_a});
  ++edge_count_;
}

void AsGraph::add_provider_customer(AsNumber provider, AsNumber customer) {
  add_edge(provider, customer, RelKind::kCustomer);
}

void AsGraph::add_peer_peer(AsNumber a, AsNumber b) {
  add_edge(a, b, RelKind::kPeer);
}

bool AsGraph::contains(AsNumber as) const { return nodes_.contains(as); }

std::span<const Neighbor> AsGraph::neighbors(AsNumber as) const {
  const Node* n = node(as);
  if (n == nullptr) return {};
  return n->neighbors;
}

std::size_t AsGraph::degree(AsNumber as) const {
  return neighbors(as).size();
}

std::optional<RelKind> AsGraph::relationship(AsNumber as,
                                             AsNumber other) const {
  const Node* n = node(as);
  if (n == nullptr) return std::nullopt;
  const auto it = n->by_as.find(other);
  if (it == n->by_as.end()) return std::nullopt;
  return it->second;
}

namespace {

std::vector<AsNumber> filter_neighbors(std::span<const Neighbor> neighbors,
                                       RelKind kind) {
  std::vector<AsNumber> out;
  for (const auto& n : neighbors) {
    if (n.kind == kind) out.push_back(n.as);
  }
  return out;
}

}  // namespace

std::vector<AsNumber> AsGraph::customers(AsNumber as) const {
  return filter_neighbors(neighbors(as), RelKind::kCustomer);
}

std::vector<AsNumber> AsGraph::providers(AsNumber as) const {
  return filter_neighbors(neighbors(as), RelKind::kProvider);
}

std::vector<AsNumber> AsGraph::peers(AsNumber as) const {
  return filter_neighbors(neighbors(as), RelKind::kPeer);
}

bool AsGraph::is_valley_free(std::span<const AsNumber> path) const {
  if (path.size() < 2) return true;
  // Walk from origin (rightmost) toward the observer (leftmost).  The legal
  // shape is: uphill (customer announces to provider) *, at most one
  // peer-peer step, then downhill (provider announces to customer) *.
  enum class Stage { kUphill, kDownhill };
  Stage stage = Stage::kUphill;
  bool peer_seen = false;
  for (std::size_t i = path.size() - 1; i > 0; --i) {
    const AsNumber sender = path[i];
    const AsNumber receiver = path[i - 1];
    if (sender == receiver) continue;  // AS-path prepending
    const auto rel = relationship(sender, receiver);
    if (!rel) return false;  // unannotated adjacency
    switch (*rel) {
      case RelKind::kProvider:
        // sender announces to its provider: uphill step.
        if (stage != Stage::kUphill || peer_seen) return false;
        break;
      case RelKind::kPeer:
        if (peer_seen || stage == Stage::kDownhill) return false;
        peer_seen = true;
        break;
      case RelKind::kCustomer:
        // sender announces to its customer: downhill step.
        stage = Stage::kDownhill;
        break;
    }
  }
  return true;
}

}  // namespace bgpolicy::topo
