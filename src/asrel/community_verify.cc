#include "asrel/community_verify.h"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace bgpolicy::asrel {

namespace {

struct NeighborScratch {
  std::size_t prefix_count = 0;
  /// vantage-tagged community value -> occurrences
  std::map<std::uint16_t, std::size_t> tag_counts;
};

}  // namespace

CommunityVerification verify_with_communities(
    const bgp::BgpTable& lg_table,
    const std::optional<std::unordered_map<std::uint16_t, RelKind>>&
        published_semantics,
    const InferredRelationships& inferred,
    const CommunityVerifyParams& params) {
  const AsNumber vantage = lg_table.owner();
  const auto vantage_asn = static_cast<std::uint16_t>(vantage.value());

  // Step 1: per-neighbor prefix counts and dominant vantage tags.
  std::unordered_map<AsNumber, NeighborScratch> scratch;
  for (const bgp::TableEntry entry : lg_table) {
    for (const bgp::RouteView route : entry) {
      NeighborScratch& s = scratch[route.learned_from()];
      ++s.prefix_count;
      for (const bgp::Community c : route.communities()) {
        if (c.asn() == vantage_asn) ++s.tag_counts[c.value()];
      }
    }
  }

  CommunityVerification out;
  out.vantage = vantage;
  out.neighbor_count = scratch.size();
  std::vector<std::uint64_t> counts;
  counts.reserve(scratch.size());
  for (const auto& [neighbor, s] : scratch) {
    NeighborObservation obs;
    obs.neighbor = neighbor;
    obs.prefix_count = s.prefix_count;
    if (!s.tag_counts.empty()) {
      const auto dominant = std::max_element(
          s.tag_counts.begin(), s.tag_counts.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      obs.dominant_tag = bgp::Community(vantage_asn, dominant->first);
    }
    obs.inferred_rel = inferred.relationship(vantage, neighbor);
    out.neighbors.push_back(obs);
    counts.push_back(s.prefix_count);
  }
  std::sort(out.neighbors.begin(), out.neighbors.end(),
            [](const NeighborObservation& a, const NeighborObservation& b) {
              return a.prefix_count != b.prefix_count
                         ? a.prefix_count > b.prefix_count
                         : a.neighbor < b.neighbor;
            });
  out.rank_series = util::RankSeries::from(
      util::to_string(vantage) + " prefixes per next-hop AS",
      std::move(counts));

  // Step 2: recover value -> class semantics.  Without published rules we
  // follow the Appendix: non-overlapping value ranges encode one class
  // each, so cluster the observed values into ranges first, then classify
  // each range from its members' prefix counts (providers announce nearly
  // full tables; customers announce a handful; the biggest remaining
  // announcers are peers).
  std::unordered_map<std::uint16_t, RelKind> semantics;
  if (published_semantics) {
    semantics = *published_semantics;
  } else if (!out.neighbors.empty()) {
    const std::size_t table_size = lg_table.prefix_count();

    // Cluster distinct dominant values into ranges.
    std::vector<std::uint16_t> values;
    for (const auto& obs : out.neighbors) {
      if (obs.dominant_tag) values.push_back(obs.dominant_tag->value());
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<std::vector<std::uint16_t>> clusters;
    for (const std::uint16_t v : values) {
      if (clusters.empty() ||
          v - clusters.back().back() > params.same_range_window) {
        clusters.emplace_back();
      }
      clusters.back().push_back(v);
    }

    // The top announcers (out.neighbors is sorted by count already).
    std::unordered_set<AsNumber> top_announcers;
    for (std::size_t i = 0; i < out.neighbors.size() && i < 3; ++i) {
      top_announcers.insert(out.neighbors[i].neighbor);
    }
    const auto tiny_cutoff = std::max<std::size_t>(
        params.customer_max_prefixes,
        static_cast<std::size_t>(params.customer_max_share *
                                 static_cast<double>(table_size)));

    for (const auto& cluster : clusters) {
      const std::unordered_set<std::uint16_t> in_cluster(cluster.begin(),
                                                         cluster.end());
      bool provider_signal = false;
      bool peer_signal = false;
      std::size_t members = 0;
      std::size_t tiny_members = 0;
      for (const auto& obs : out.neighbors) {
        if (!obs.dominant_tag || !in_cluster.contains(obs.dominant_tag->value())) {
          continue;
        }
        ++members;
        if (obs.prefix_count <= tiny_cutoff) ++tiny_members;
        if (params.has_providers &&
            static_cast<double>(obs.prefix_count) >=
                params.provider_min_share * static_cast<double>(table_size)) {
          provider_signal = true;
        }
        if (top_announcers.contains(obs.neighbor)) peer_signal = true;
      }
      if (members == 0) continue;
      std::optional<RelKind> cls;
      if (provider_signal) {
        cls = RelKind::kProvider;
      } else if (tiny_members * 2 > members) {
        cls = RelKind::kCustomer;
      } else if (peer_signal) {
        cls = RelKind::kPeer;
      }
      if (!cls) continue;
      for (const std::uint16_t v : cluster) semantics.emplace(v, *cls);
    }
  }

  // Step 3: decode each neighbor and compare against the path inference.
  for (auto& obs : out.neighbors) {
    if (obs.dominant_tag) {
      const auto it = semantics.find(obs.dominant_tag->value());
      if (it != semantics.end()) obs.community_rel = it->second;
    }
    if (obs.community_rel && obs.inferred_rel) {
      ++out.comparable;
      if (*obs.community_rel == *obs.inferred_rel) ++out.agree;
    }
  }
  out.percent_verified = util::percent(out.agree, out.comparable);
  return out;
}

}  // namespace bgpolicy::asrel
