// AS tier classification in the spirit of Subramanian et al. (INFOCOM
// 2002), the paper's reference [8] ("we classified each AS to its tier
// using the method described in [8]").
//
// Works from inferred relationships only: Tier-1 is a greedy
// densely-peered clique of provider-free high-degree ASes; other transit
// ASes are split by customer-cone size; the rest are stubs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "asrel/relationships.h"
#include "util/fields.h"

namespace bgpolicy::asrel {

struct TierParams {
  std::size_t tier1_min_degree = 15;
  /// A Tier-1 candidate must peer with at least this fraction of the
  /// already-accepted clique (tables are incomplete; demanding a perfect
  /// clique would be brittle).
  double clique_fraction = 0.5;
  std::size_t tier2_min_cone = 12;
};

struct TierAssignment {
  /// 1 = Tier-1 core, 2 = large transit, 3 = small transit, 4 = stub.
  std::unordered_map<AsNumber, int> level;
  std::vector<AsNumber> tier1;

  [[nodiscard]] int level_of(AsNumber as) const {
    const auto it = level.find(as);
    return it == level.end() ? 4 : it->second;
  }
};

template <typename V>
constexpr void fields(V& v, TierAssignment& t) {
  v("level", t.level);
  v("tier1", t.tier1);
}
static_assert(util::lists_every_member<TierAssignment>());

[[nodiscard]] TierAssignment classify_tiers(const InferredRelationships& rels,
                                            const TierParams& params = {});

/// Stable textual serialization: the Tier-1 list in clique order followed
/// by one "as level" line per AS, sorted by AS number.  The
/// byte-comparison hook for the inference determinism test.
[[nodiscard]] std::string canonical_serialize(const TierAssignment& tiers);

}  // namespace bgpolicy::asrel
