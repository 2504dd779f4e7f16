#include "core/experiment_view.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "util/ensure.h"

namespace bgpolicy::core {

const bgp::BgpTable& ExperimentView::table_for(AsNumber as) const {
  if (const auto it = sim->looking_glass.find(as);
      it != sim->looking_glass.end()) {
    return it->second;
  }
  if (const auto it = sim->best_only.find(as); it != sim->best_only.end()) {
    return it->second;
  }
  throw std::out_of_range("ExperimentView: no table recorded for " +
                          util::to_string(as));
}

bool ExperimentView::has_table(AsNumber as) const {
  return sim->looking_glass.contains(as) || sim->best_only.contains(as);
}

const rpsl::AutNum* ExperimentView::irr_for(AsNumber as) const {
  for (const auto& aut_num : *irr_objects) {
    if (aut_num.as == as) return &aut_num;
  }
  return nullptr;
}

asrel::CommunityVerification ExperimentView::community_verification(
    AsNumber vantage_as) const {
  const auto lg_it = sim->looking_glass.find(vantage_as);
  util::ensure(lg_it != sim->looking_glass.end(),
               "community_verification: vantage is not a looking glass");

  // Published semantics, when the AS registered them (Step 2's easy case).
  std::optional<std::unordered_map<std::uint16_t, RelKind>> published;
  if (const rpsl::AutNum* aut_num = irr_for(vantage_as);
      aut_num != nullptr && !aut_num->community_remarks.empty()) {
    std::unordered_map<std::uint16_t, RelKind> semantics;
    for (const auto& remark : aut_num->community_remarks) {
      for (std::uint32_t v = remark.value_lo; v <= remark.value_hi; ++v) {
        semantics.emplace(static_cast<std::uint16_t>(v), remark.kind);
      }
    }
    published = std::move(semantics);
  }

  asrel::CommunityVerifyParams params;
  params.has_providers = tiers->level_of(vantage_as) != 1;
  return asrel::verify_with_communities(lg_it->second, published, *inferred,
                                        params);
}

std::unordered_set<AsNumber> ExperimentView::community_verified_neighbors(
    AsNumber vantage_as) const {
  std::unordered_set<AsNumber> out;
  const auto verification = community_verification(vantage_as);
  for (const auto& obs : verification.neighbors) {
    if (obs.community_rel && obs.inferred_rel &&
        *obs.community_rel == *obs.inferred_rel) {
      out.insert(obs.neighbor);
    }
  }
  return out;
}

std::vector<AsNumber> sorted_looking_glass(const sim::SimResult& sim) {
  std::vector<AsNumber> out;
  out.reserve(sim.looking_glass.size());
  for (const auto& [as, table] : sim.looking_glass) out.push_back(as);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathIndex::TableSource> inference_table_sources(
    const sim::SimResult& sim) {
  std::vector<PathIndex::TableSource> sources;
  sources.reserve(1 + sim.looking_glass.size());
  sources.push_back({&sim.collector, std::nullopt});
  for (const AsNumber as : sorted_looking_glass(sim)) {
    sources.push_back({&sim.looking_glass.at(as), as});
  }
  return sources;
}

}  // namespace bgpolicy::core
