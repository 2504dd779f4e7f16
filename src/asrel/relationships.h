// Inferred AS-relationship store shared by the asrel algorithms and the
// core inference pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topology/as_graph.h"
#include "util/ids.h"

namespace bgpolicy::asrel {

using topo::RelKind;
using util::AsNumber;

/// Undirected edge type between a normalized pair (lo, hi).
enum class EdgeType : std::uint8_t {
  kLoProviderOfHi,  ///< lo is the provider of hi
  kHiProviderOfLo,  ///< hi is the provider of lo
  kPeer,
  kSibling,  ///< mutual transit observed (paper [12] category)
};

/// The values a stored EdgeType may hold (io/archive.h).
constexpr std::pair<EdgeType, EdgeType> enum_range(EdgeType) {
  return {EdgeType::kLoProviderOfHi, EdgeType::kSibling};
}

[[nodiscard]] std::string to_string(EdgeType type);

struct AsPairHash {
  std::size_t operator()(const std::pair<AsNumber, AsNumber>& p) const noexcept {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(p.first.value()) << 32) | p.second.value();
    std::uint64_t z = packed + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// The true links of one relationship type: how many the truth has, how
/// many inference classified, and how many of those it classified right.
struct TypeCoverage {
  std::size_t links = 0;
  std::size_t observed = 0;
  std::size_t correct = 0;
};

/// Coverage per true relationship type: unlike accuracy_against, it counts
/// the true links inference never saw.
struct RelationshipCoverage {
  TypeCoverage provider_customer;
  TypeCoverage peer;
};

/// The result of an inference pass: an annotation per observed AS pair.
class InferredRelationships {
 public:
  /// Normalizes (a, b) so the smaller AS number comes first.
  [[nodiscard]] static std::pair<AsNumber, AsNumber> key(AsNumber a,
                                                         AsNumber b);

  void set(AsNumber a, AsNumber b, EdgeType type);

  /// What `other` is to `as` (mirrors topo::AsGraph::relationship);
  /// siblings are reported as peers for policy purposes.  nullopt when the
  /// pair was never classified.
  [[nodiscard]] std::optional<RelKind> relationship(AsNumber as,
                                                    AsNumber other) const;

  [[nodiscard]] std::optional<EdgeType> edge(AsNumber a, AsNumber b) const;
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  void for_each(const std::function<void(AsNumber, AsNumber, EdgeType)>& fn)
      const;

  /// Fraction of classified pairs that agree with the ground-truth graph
  /// (scoring hook for tests; the original paper had no ground truth).
  [[nodiscard]] double accuracy_against(const topo::AsGraph& truth) const;

  /// Every link of the ground-truth graph, counted under its true type
  /// (siblings count as peers, as in relationship()).
  [[nodiscard]] RelationshipCoverage coverage_against(
      const topo::AsGraph& truth) const;

  /// Materializes the inferred relationships as an annotated AS graph
  /// (siblings become peer edges), so graph algorithms like the customer-
  /// cone DFS of Fig. 4 can run on *inferred* data exactly as they would on
  /// ground truth.
  [[nodiscard]] topo::AsGraph to_graph() const;

 private:
  std::unordered_map<std::pair<AsNumber, AsNumber>, EdgeType, AsPairHash>
      edges_;
};

/// Stable textual serialization of a classification: one "lo hi type" line
/// per pair, sorted by (lo, hi).  Independent of construction and hash-map
/// iteration order, so two inference runs produced at different thread
/// counts serialize byte-identically iff they classified identically — the
/// comparison hook for the inference determinism test and the
/// bench_inference_scaling product digest.
[[nodiscard]] std::string canonical_serialize(
    const InferredRelationships& rels);

}  // namespace bgpolicy::asrel
