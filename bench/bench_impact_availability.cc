// Impact analysis (paper Sections 1 and 5.1, no numbered table): selective
// announcement means "much less available paths in the Internet than shown
// in the AS connectivity graph".  Quantified here as available vs
// potential next-hop diversity for customer prefixes at the focus Tier-1s,
// plus the prevalence of the softer AS-path-prepending knob.
#include "bench_common.h"
#include "core/path_availability.h"
#include "core/prepending.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  bench::banner("Impact — connectivity vs reachability",
                "policy withdraws a visible share of the paths the AS graph "
                "promises; some customer prefixes are one failure from "
                "unreachable");

  util::TextTable table({"provider", "customer prefixes",
                         "mean available paths", "mean potential paths",
                         "availability ratio", "single-path prefixes"});
  for (const auto as_value : core::Scenario::focus_tier1()) {
    const util::AsNumber as{as_value};
    if (!exp.sim().sim.looking_glass.contains(as)) continue;
    const auto result = core::analyze_path_availability(
        exp.sim().sim.looking_glass.at(as), as, exp.inference().inferred_graph);
    table.add_row({util::to_string(as),
                   std::to_string(result.customer_prefixes),
                   util::fmt(result.mean_available, 2),
                   util::fmt(result.mean_potential, 2),
                   util::fmt(result.availability_ratio, 3),
                   util::fmt_count_pct(
                       result.single_path_prefixes,
                       util::percent(result.single_path_prefixes,
                                     result.customer_prefixes))});
  }
  std::cout << table.render("Available vs potential paths at the Tier-1s")
            << "\n";

  // Prepending prevalence across the collector view.
  const auto prepending = core::analyze_prepending(exp.sim().sim.collector);
  std::cout << "AS-path prepending (Section 2.2.2 knob): "
            << prepending.prepended_routes << " of "
            << prepending.total_routes << " collector routes ("
            << util::fmt(prepending.percent_prepended, 2) << "%) from "
            << prepending.prepending_ases.size() << " distinct ASs";
  if (!prepending.depth_histogram.bins().empty()) {
    std::cout << "; depth histogram:";
    for (const auto& [depth, count] : prepending.depth_histogram.bins()) {
      std::cout << " " << depth << "x->" << count;
    }
  }
  std::cout << "\n\nShape check: availability ratio < 1 at every Tier-1 — "
               "connectivity overstates reachability.\n";
  return 0;
}
