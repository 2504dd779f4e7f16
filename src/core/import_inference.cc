#include "core/import_inference.h"

#include <algorithm>

#include "util/stats.h"

namespace bgpolicy::core {

ImportTypicality analyze_import_typicality(const bgp::BgpTable& lg_table,
                                           const RelationshipOracle& rels) {
  ImportTypicality out;
  out.vantage = lg_table.owner();

  std::unordered_map<RelKind, std::vector<std::uint32_t>> seen_values;

  for (const bgp::TableEntry entry : lg_table) {
    // Partition this prefix's local preferences by neighbor class.
    std::optional<std::uint32_t> min_customer, max_peer, min_peer,
        max_provider;
    bool has_customer = false, has_peer = false, has_provider = false;
    for (const bgp::RouteView route : entry) {
      const auto rel = rels(lg_table.owner(), route.learned_from());
      if (!rel) continue;
      const std::uint32_t lp = route.local_pref();
      seen_values[*rel].push_back(lp);
      switch (*rel) {
        case RelKind::kCustomer:
          has_customer = true;
          min_customer = std::min(min_customer.value_or(lp), lp);
          break;
        case RelKind::kPeer:
          has_peer = true;
          min_peer = std::min(min_peer.value_or(lp), lp);
          max_peer = std::max(max_peer.value_or(lp), lp);
          break;
        case RelKind::kProvider:
          has_provider = true;
          max_provider = std::max(max_provider.value_or(lp), lp);
          break;
      }
    }
    const int classes = static_cast<int>(has_customer) +
                        static_cast<int>(has_peer) +
                        static_cast<int>(has_provider);
    if (classes < 2) continue;
    ++out.comparable_prefixes;

    // Typical (paper definition): customer strictly above peer and
    // provider; peer strictly above provider.
    bool typical = true;
    if (has_customer && has_peer && *min_customer <= *max_peer) typical = false;
    if (has_customer && has_provider && *min_customer <= *max_provider) {
      typical = false;
    }
    if (has_peer && has_provider && *min_peer <= *max_provider) typical = false;
    if (typical) ++out.typical_prefixes;
  }

  // Deduplicate the per-class value lists for reporting.
  for (auto& [kind, values] : seen_values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    out.class_values.emplace(kind, std::move(values));
  }
  out.percent_typical =
      util::percent(out.typical_prefixes, out.comparable_prefixes);
  return out;
}

IrrTypicality analyze_irr_typicality(const rpsl::AutNum& aut_num,
                                     const RelationshipOracle& rels) {
  IrrTypicality out;
  out.as = aut_num.as;

  struct NeighborPref {
    RelKind kind;
    std::uint32_t pref;  // RPSL pref: smaller is better
  };
  std::vector<NeighborPref> neighbors;
  for (const auto& line : aut_num.imports) {
    if (!line.pref) continue;
    const auto rel = rels(aut_num.as, line.from);
    if (!rel) continue;
    neighbors.push_back({*rel, *line.pref});
  }
  out.neighbors_with_pref = neighbors.size();

  // Typical ordering in pref space (inverted): customer < peer < provider.
  const auto rank = [](RelKind kind) {
    switch (kind) {
      case RelKind::kCustomer: return 0;
      case RelKind::kPeer: return 1;
      case RelKind::kProvider: return 2;
    }
    return 1;
  };
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (std::size_t j = i + 1; j < neighbors.size(); ++j) {
      const auto& a = neighbors[i];
      const auto& b = neighbors[j];
      if (a.kind == b.kind) continue;
      ++out.comparable_pairs;
      const bool a_better_class = rank(a.kind) < rank(b.kind);
      const bool typical =
          a_better_class ? a.pref < b.pref : b.pref < a.pref;
      if (typical) ++out.typical_pairs;
    }
  }
  out.percent_typical = util::percent(out.typical_pairs, out.comparable_pairs);
  return out;
}

bool irr_object_usable(const rpsl::AutNum& aut_num, std::uint32_t min_year,
                       std::size_t min_neighbors) {
  if (aut_num.changed_date / 10000 < min_year) return false;
  return aut_num.imports.size() >= min_neighbors;
}

}  // namespace bgpolicy::core
