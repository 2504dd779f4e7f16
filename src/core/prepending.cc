#include "core/prepending.h"

namespace bgpolicy::core {

std::size_t prepend_depth(bgp::HopSpan hops) {
  std::size_t best = 0;
  std::size_t run = 0;
  for (std::size_t i = 1; i < hops.length(); ++i) {
    if (hops[i] == hops[i - 1]) {
      ++run;
      best = std::max(best, run);
    } else {
      run = 0;
    }
  }
  return best;
}

PrependingAnalysis analyze_prepending(const bgp::BgpTable& table) {
  PrependingAnalysis out;
  out.vantage = table.owner();
  for (const bgp::TableEntry entry : table) {
    for (const bgp::RouteView route : entry) {
      const bgp::HopSpan hops = route.path();
      if (hops.empty()) continue;
      ++out.total_routes;
      const std::size_t depth = prepend_depth(hops);
      if (depth == 0) continue;
      ++out.prepended_routes;
      out.depth_histogram.add(static_cast<std::int64_t>(depth));
      for (std::size_t i = 1; i < hops.length(); ++i) {
        if (hops[i] == hops[i - 1]) out.prepending_ases.insert(hops[i]);
      }
    }
  }
  out.percent_prepended =
      util::percent(out.prepended_routes, out.total_routes);
  return out;
}

}  // namespace bgpolicy::core
