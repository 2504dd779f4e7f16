// Table 7: verification of the SA prefixes inferred at AS1, AS3549 and
// AS7018 (community-confirmed next hops + active customer paths).
#include <map>

#include "bench_common.h"
#include "core/export_inference.h"
#include "core/sa_verification.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  bench::banner("Table 7 — verification of SA prefixes",
                "95%..97.6% of SA prefixes verified at the three Tier-1s");

  const std::map<std::uint32_t, double> paper{
      {1, 97.6}, {3549, 95.0}, {7018, 97.0}};

  util::TextTable table({"provider", "# SA prefixes", "% verified (measured)",
                         "% verified (paper)", "step-1 failures",
                         "step-2 failures"});
  for (const auto as_value : core::Scenario::focus_tier1()) {
    const util::AsNumber as{as_value};
    const auto analysis =
        core::infer_sa_prefixes(view.table_for(as), as, *view.inferred_graph,
                                view.inferred_oracle());
    const auto verified_neighbors = view.community_verified_neighbors(as);
    const auto result = core::verify_sa_prefixes(
        analysis, *view.paths, verified_neighbors, view.inferred_oracle());
    table.add_row({util::to_string(as), std::to_string(result.sa_total),
                   util::fmt(result.percent_verified, 1),
                   util::fmt(paper.at(as_value), 1),
                   std::to_string(result.step1_failures),
                   std::to_string(result.step2_failures)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Shape check: the majority of SA prefixes at each Tier-1 "
               "verify (paper: >=95%)\n";
  return 0;
}
