// Import-policy inference (paper Section 4.1, Tables 2 and 3).
//
// From a looking-glass table (local preference visible): for every prefix
// with routes from at least two relationship classes, check whether the
// observed preferences conform to the typical ordering
// customer > peer > provider.  From an IRR aut-num object: compare the
// registered RPSL pref values across neighbor classes (pref is inverted:
// smaller = more preferred).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/table.h"
#include "core/relationship_oracle.h"
#include "rpsl/rpsl.h"

namespace bgpolicy::core {

struct ImportTypicality {
  AsNumber vantage;
  /// Prefixes whose route set spans >= 2 relationship classes.
  std::size_t comparable_prefixes = 0;
  std::size_t typical_prefixes = 0;
  double percent_typical = 0.0;
  /// Distinct local-pref values observed per relationship class (useful for
  /// reports; the paper quotes these informally).
  std::unordered_map<RelKind, std::vector<std::uint32_t>> class_values;
};

template <typename V>
constexpr void fields(V& v, ImportTypicality& t) {
  v("vantage", t.vantage);
  v("comparable_prefixes", t.comparable_prefixes);
  v("typical_prefixes", t.typical_prefixes);
  v("percent_typical", t.percent_typical);
  v("class_values", t.class_values);
}
static_assert(util::lists_every_member<ImportTypicality>());

/// Table 2 analysis: typicality of local preference observed in one
/// looking-glass table.
[[nodiscard]] ImportTypicality analyze_import_typicality(
    const bgp::BgpTable& lg_table, const RelationshipOracle& rels);

struct IrrTypicality {
  AsNumber as;
  std::size_t neighbors_with_pref = 0;
  /// Cross-class (neighbor, neighbor) pairs whose registered prefs could be
  /// compared, and how many satisfied the typical ordering.
  std::size_t comparable_pairs = 0;
  std::size_t typical_pairs = 0;
  double percent_typical = 0.0;
};

/// Table 3 analysis: typicality of the pref actions registered in an IRR
/// aut-num object.  Neighbors whose relationship the oracle cannot resolve
/// are skipped, mirroring the paper ("we only consider those ASs ... most
/// of their AS relationships can be inferred").
[[nodiscard]] IrrTypicality analyze_irr_typicality(
    const rpsl::AutNum& aut_num, const RelationshipOracle& rels);

/// The paper's IRR pre-filter: keep fresh (updated during `min_year`) ASes
/// with at least `min_neighbors` registered imports.
[[nodiscard]] bool irr_object_usable(const rpsl::AutNum& aut_num,
                                     std::uint32_t min_year = 2002,
                                     std::size_t min_neighbors = 50);

}  // namespace bgpolicy::core
