#include "asrel/relationships.h"

#include <algorithm>
#include <tuple>

namespace bgpolicy::asrel {

std::string to_string(EdgeType type) {
  switch (type) {
    case EdgeType::kLoProviderOfHi: return "lo-provider-of-hi";
    case EdgeType::kHiProviderOfLo: return "hi-provider-of-lo";
    case EdgeType::kPeer: return "peer";
    case EdgeType::kSibling: return "sibling";
  }
  return "?";
}

std::pair<AsNumber, AsNumber> InferredRelationships::key(AsNumber a,
                                                         AsNumber b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

void InferredRelationships::set(AsNumber a, AsNumber b, EdgeType type) {
  edges_[key(a, b)] = type;
}

std::optional<EdgeType> InferredRelationships::edge(AsNumber a,
                                                    AsNumber b) const {
  const auto it = edges_.find(key(a, b));
  if (it == edges_.end()) return std::nullopt;
  return it->second;
}

std::optional<RelKind> InferredRelationships::relationship(
    AsNumber as, AsNumber other) const {
  const auto type = edge(as, other);
  if (!type) return std::nullopt;
  const bool as_is_lo = as < other;
  switch (*type) {
    case EdgeType::kPeer:
    case EdgeType::kSibling:
      return RelKind::kPeer;
    case EdgeType::kLoProviderOfHi:
      // lo is the provider; so from lo's perspective the other is a
      // customer, and vice versa.
      return as_is_lo ? RelKind::kCustomer : RelKind::kProvider;
    case EdgeType::kHiProviderOfLo:
      return as_is_lo ? RelKind::kProvider : RelKind::kCustomer;
  }
  return std::nullopt;
}

void InferredRelationships::for_each(
    const std::function<void(AsNumber, AsNumber, EdgeType)>& fn) const {
  for (const auto& [pair, type] : edges_) fn(pair.first, pair.second, type);
}

topo::AsGraph InferredRelationships::to_graph() const {
  topo::AsGraph graph;
  for (const auto& [pair, type] : edges_) {
    graph.add_as(pair.first);
    graph.add_as(pair.second);
    switch (type) {
      case EdgeType::kLoProviderOfHi:
        graph.add_provider_customer(pair.first, pair.second);
        break;
      case EdgeType::kHiProviderOfLo:
        graph.add_provider_customer(pair.second, pair.first);
        break;
      case EdgeType::kPeer:
      case EdgeType::kSibling:
        graph.add_peer_peer(pair.first, pair.second);
        break;
    }
  }
  return graph;
}

double InferredRelationships::accuracy_against(
    const topo::AsGraph& truth) const {
  std::size_t comparable = 0;
  std::size_t correct = 0;
  for (const auto& [pair, type] : edges_) {
    const auto truth_rel = truth.relationship(pair.first, pair.second);
    if (!truth_rel) continue;
    ++comparable;
    const auto inferred_rel = relationship(pair.first, pair.second);
    if (inferred_rel && *inferred_rel == *truth_rel) ++correct;
  }
  if (comparable == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(comparable);
}

RelationshipCoverage InferredRelationships::coverage_against(
    const topo::AsGraph& truth) const {
  RelationshipCoverage coverage;
  for (const topo::EdgeRecord& link : truth.edges()) {
    TypeCoverage& type = link.b_is_to_a == RelKind::kPeer
                             ? coverage.peer
                             : coverage.provider_customer;
    ++type.links;
    const auto inferred = relationship(link.a, link.b);
    if (!inferred) continue;
    ++type.observed;
    if (*inferred == link.b_is_to_a) ++type.correct;
  }
  return coverage;
}

std::string canonical_serialize(const InferredRelationships& rels) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, EdgeType>> rows;
  rels.for_each([&](AsNumber lo, AsNumber hi, EdgeType type) {
    rows.emplace_back(lo.value(), hi.value(), type);
  });
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& [lo, hi, type] : rows) {
    out += std::to_string(lo);
    out += ' ';
    out += std::to_string(hi);
    out += ' ';
    out += to_string(type);
    out += '\n';
  }
  return out;
}

}  // namespace bgpolicy::asrel
