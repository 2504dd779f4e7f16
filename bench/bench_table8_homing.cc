// Table 8: multihomed vs single-homed distribution of the ASes whose
// prefixes are SA at AS1, AS3549 and AS7018.
#include <map>

#include "bench_common.h"
#include "core/export_inference.h"
#include "core/homing.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  bench::banner("Table 8 — homing of SA-prefix origins",
                "~75% of ASs whose prefixes are SA are multihomed "
                "(AS1 75%, AS3549 75%, AS7018 77%)");

  const std::map<std::uint32_t, double> paper{
      {1, 75.0}, {3549, 75.0}, {7018, 77.0}};

  util::TextTable table({"provider", "multihomed ASs", "single-homed ASs",
                         "% multihomed (measured)", "% multihomed (paper)"});
  bool majority_everywhere = true;
  for (const auto as_value : core::Scenario::focus_tier1()) {
    const util::AsNumber as{as_value};
    const auto analysis =
        core::infer_sa_prefixes(view.table_for(as), as, *view.inferred_graph,
                                view.inferred_oracle());
    const auto homing = core::analyze_homing(analysis, *view.inferred_graph);
    table.add_row({util::to_string(as),
                   util::fmt_count_pct(homing.multihomed_ases,
                                       homing.percent_multihomed),
                   util::fmt_count_pct(homing.singlehomed_ases,
                                       homing.percent_singlehomed),
                   util::fmt(homing.percent_multihomed, 1),
                   util::fmt(paper.at(as_value), 1)});
    if (homing.percent_multihomed <= 50.0) majority_everywhere = false;
  }
  std::cout << table.render() << "\n";
  std::cout << "Shape check: multihomed origins dominate at every Tier-1: "
            << (majority_everywhere ? "yes" : "NO") << " (paper: ~75%)\n";
  return 0;
}
