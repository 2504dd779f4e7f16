#include "core/nexthop_consistency.h"

#include <algorithm>
#include <map>

#include "util/stats.h"

namespace bgpolicy::core {

NextHopConsistency analyze_nexthop_consistency(const bgp::BgpTable& table) {
  NextHopConsistency out;
  out.vantage = table.owner();

  // Pass 1: local-pref histogram per next-hop AS.
  std::unordered_map<util::AsNumber, std::map<std::uint32_t, std::size_t>>
      histograms;
  for (const bgp::TableEntry entry : table) {
    for (const bgp::RouteView route : entry) {
      ++histograms[route.learned_from()][route.local_pref()];
    }
  }
  for (const auto& [neighbor, histogram] : histograms) {
    const auto mode = std::max_element(
        histogram.begin(), histogram.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    out.modal_pref.emplace(neighbor, mode->first);
  }

  // Pass 2: score each route against its neighbor's mode.
  for (const bgp::TableEntry entry : table) {
    for (const bgp::RouteView route : entry) {
      ++out.total_routes;
      if (route.local_pref() == out.modal_pref.at(route.learned_from())) {
        ++out.consistent_routes;
      }
    }
  }
  out.percent_consistent =
      util::percent(out.consistent_routes, out.total_routes);
  return out;
}

}  // namespace bgpolicy::core
