// Table 10: how peers of AS1, AS3549 and AS7018 export their own prefixes
// — most announce everything directly over the peering.
#include <map>

#include "bench_common.h"
#include "core/peer_export.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  bench::banner("Table 10 — export to peers",
                "86% / 100% / 89% of peers announce their own prefixes "
                "directly to AS1 / AS3549 / AS7018");

  const std::map<std::uint32_t, double> paper{
      {1, 86.0}, {3549, 100.0}, {7018, 89.0}};

  util::TextTable table({"AS", "# peers", "% announcing all (measured)",
                         "% announcing all (paper)",
                         "# announcing most (>=80%)"});
  bool majority_everywhere = true;
  for (const auto as_value : core::Scenario::focus_tier1()) {
    const util::AsNumber as{as_value};
    const auto peers = view.inferred_graph->peers(as);
    const auto result = core::analyze_peer_export(view.table_for(as), as,
                                                  peers);
    table.add_row({util::to_string(as), std::to_string(result.peer_count),
                   util::fmt(result.percent_announcing, 0),
                   util::fmt(paper.at(as_value), 0),
                   std::to_string(result.announcing_most)});
    if (result.percent_announcing <= 50.0) majority_everywhere = false;
  }
  std::cout << table.render() << "\n";
  std::cout << "Shape check: peers overwhelmingly announce their prefixes "
               "directly: "
            << (majority_everywhere ? "yes" : "NO")
            << " (paper: 86%..100%)\n";
  return 0;
}
