// Fig. 2: consistency of local preference with next-hop AS.
//   (a) per vantage AS — most assign preference per neighbor;
//   (b) per router within one AS (the paper's 30 AT&T backbone routers).
#include "bench_common.h"
#include "core/nexthop_consistency.h"
#include "sim/router_partition.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  bench::banner("Fig. 2 — local preference keyed on next-hop AS",
                "(a) most of 14 ASs near 100%; (b) most of AT&T's 30 "
                "routers near 100%, a few lower");

  // (a) Per-vantage consistency.
  util::TextTable per_as({"AS", "routes", "% next-hop keyed"});
  std::size_t high = 0;
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    const auto result = core::analyze_nexthop_consistency(
        exp.sim().sim.looking_glass.at(vantage));
    per_as.add_row({util::to_string(vantage),
                    std::to_string(result.total_routes),
                    util::fmt(result.percent_consistent, 1)});
    if (result.percent_consistent > 90.0) ++high;
  }
  std::cout << per_as.render("Fig. 2(a): per-AS consistency") << "\n";
  std::cout << "Shape check: " << high << "/"
            << exp.sim().vantage.looking_glass.size()
            << " vantages above 90% (paper: most of 14 near 100%)\n\n";

  // (b) Per-router consistency inside AS7018 (the AT&T substitute).
  const util::AsNumber att{7018};
  sim::RouterPartitionParams params;
  params.router_count = 30;
  const auto views =
      sim::partition_routers(exp.sim().sim.looking_glass.at(att), params);
  util::TextTable per_router({"router", "routes", "% next-hop keyed"});
  std::size_t populated = 0;
  std::size_t router_high = 0;
  for (const auto& view : views) {
    const auto result = core::analyze_nexthop_consistency(view.table);
    per_router.add_row({util::to_string(view.router),
                        std::to_string(result.total_routes),
                        util::fmt(result.percent_consistent, 1)});
    if (result.total_routes == 0) continue;
    ++populated;
    if (result.percent_consistent > 90.0) ++router_high;
  }
  std::cout << per_router.render(
                   "Fig. 2(b): per-router consistency inside AS7018")
            << "\n";
  std::cout << "Shape check: " << router_high << "/" << populated
            << " populated routers above 90% (paper: most of 30 near 100%, "
               "a few dipping)\n";
  return 0;
}
