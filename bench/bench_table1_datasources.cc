// Table 1: characteristics of the data sources — the collector peering and
// the per-vantage AS name, degree, and location.
#include "bench_common.h"
#include "core/scenario.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  bench::banner("Table 1 — data-source characteristics",
                "Oregon RouteViews peering with 56 ASs plus 15 looking-glass "
                "vantages; degrees 14..1330 across NA/Eu/Au/As");

  std::map<std::string, int> collector_regions;
  for (const auto as : exp.sim().vantage.collector_peers) {
    ++collector_regions[core::region_of(as)];
  }
  std::cout << "Collector AS" << exp.sim().vantage.collector_as.value()
            << " peers with " << exp.sim().vantage.collector_peers.size()
            << " ASs (";
  bool first = true;
  for (const auto& [region, count] : collector_regions) {
    if (!first) std::cout << ", ";
    std::cout << region << " " << count;
    first = false;
  }
  std::cout << ")\n\n";

  util::TextTable table({"AS number", "role", "degree", "location"});
  for (const auto as : exp.sim().vantage.looking_glass) {
    table.add_row({util::to_string(as),
                   "looking glass (tier " +
                       std::to_string(exp.inference().tiers.level_of(as)) + ")",
                   std::to_string(exp.truth().topo.graph.degree(as)),
                   core::region_of(as)});
  }
  for (const auto as : exp.sim().vantage.best_only) {
    table.add_row({util::to_string(as), "table-5 vantage",
                   std::to_string(exp.truth().topo.graph.degree(as)),
                   core::region_of(as)});
  }
  std::cout << table.render("Vantage ASs (paper Table 1)") << "\n";

  // Degree spread, for the "sizes span a large range" observation.
  std::size_t min_degree = SIZE_MAX, max_degree = 0;
  for (const auto as : exp.sim().vantage.looking_glass) {
    min_degree = std::min(min_degree, exp.truth().topo.graph.degree(as));
    max_degree = std::max(max_degree, exp.truth().topo.graph.degree(as));
  }
  std::cout << "Vantage degree range: " << min_degree << ".." << max_degree
            << " (paper: 14..1330)\n";
  return 0;
}
