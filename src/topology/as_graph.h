// The annotated AS graph of Section 2.1: nodes are ASes, edges are either
// provider-to-customer or peer-to-peer.  This is the ground-truth substrate
// the simulator routes over and the reference the inference algorithms are
// scored against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace bgpolicy::topo {

using util::AsNumber;

/// What a neighbor is *to me*: my customer, my peer, or my provider.
enum class RelKind : std::uint8_t { kCustomer, kPeer, kProvider };

/// The values a stored RelKind may hold (io/archive.h).
constexpr std::pair<RelKind, RelKind> enum_range(RelKind) {
  return {RelKind::kCustomer, RelKind::kProvider};
}

[[nodiscard]] std::string to_string(RelKind kind);

/// Inverts the perspective: if b is a's customer, then a is b's provider.
[[nodiscard]] constexpr RelKind invert(RelKind kind) {
  switch (kind) {
    case RelKind::kCustomer: return RelKind::kProvider;
    case RelKind::kProvider: return RelKind::kCustomer;
    case RelKind::kPeer: return RelKind::kPeer;
  }
  return RelKind::kPeer;  // unreachable
}

struct Neighbor {
  AsNumber as;
  RelKind kind;  ///< what `as` is to the node being queried
  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// One edge in creation order: `b_is_to_a` is kCustomer for a
/// provider(a)->customer(b) edge and kPeer for a peer-peer edge — exactly
/// the argument shapes of add_provider_customer(a, b) / add_peer_peer(a, b),
/// so replaying the records reconstructs a graph with identical per-node
/// neighbor ordering (which DFS-order-sensitive consumers and the
/// propagation engine's event order depend on).  The serialization hook for
/// io/artifact_codec.
struct EdgeRecord {
  AsNumber a;
  AsNumber b;
  RelKind b_is_to_a;
  friend bool operator==(const EdgeRecord&, const EdgeRecord&) = default;
};

class AsGraph {
 public:
  /// Adds an AS; idempotent.
  void add_as(AsNumber as);

  /// Adds a provider-to-customer edge.  Throws if either endpoint is
  /// missing, if the edge already exists, or if provider == customer.
  void add_provider_customer(AsNumber provider, AsNumber customer);

  /// Adds a peer-to-peer edge (same preconditions).
  void add_peer_peer(AsNumber a, AsNumber b);

  [[nodiscard]] bool contains(AsNumber as) const;
  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// All ASes in insertion order.
  [[nodiscard]] std::span<const AsNumber> ases() const { return order_; }

  /// All edges in creation order (see EdgeRecord).
  [[nodiscard]] std::span<const EdgeRecord> edges() const { return edges_; }

  /// Neighbors of `as` with their relationship from `as`'s perspective.
  [[nodiscard]] std::span<const Neighbor> neighbors(AsNumber as) const;

  [[nodiscard]] std::size_t degree(AsNumber as) const;

  /// What `other` is to `as`; nullopt when not adjacent.
  [[nodiscard]] std::optional<RelKind> relationship(AsNumber as,
                                                    AsNumber other) const;

  [[nodiscard]] std::vector<AsNumber> customers(AsNumber as) const;
  [[nodiscard]] std::vector<AsNumber> providers(AsNumber as) const;
  [[nodiscard]] std::vector<AsNumber> peers(AsNumber as) const;

  /// True when the AS-level path (leftmost = closest to the observer)
  /// is valley-free under this graph's annotations: zero or more
  /// customer-to-provider hops, at most one peer-peer hop, then zero or
  /// more provider-to-customer hops, reading the path from the origin
  /// (rightmost) toward the observer.  Paths with unannotated adjacencies
  /// return false.
  [[nodiscard]] bool is_valley_free(std::span<const AsNumber> path) const;

 private:
  struct Node {
    std::vector<Neighbor> neighbors;
    std::unordered_map<AsNumber, RelKind> by_as;
  };

  [[nodiscard]] const Node* node(AsNumber as) const;
  Node& node_or_throw(AsNumber as);
  void add_edge(AsNumber a, AsNumber b, RelKind b_is_to_a);

  std::unordered_map<AsNumber, Node> nodes_;
  std::vector<AsNumber> order_;
  std::vector<EdgeRecord> edges_;
  std::size_t edge_count_ = 0;
};

}  // namespace bgpolicy::topo
