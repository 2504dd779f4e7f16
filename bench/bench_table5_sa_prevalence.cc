// Table 5: percentage of customers' prefixes that are selectively
// announced (SA) with respect to each of 16 vantage ASs.
#include <map>

#include "bench_common.h"
#include "core/export_inference.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  bench::banner("Table 5 — prevalence of SA prefixes at 16 ASs",
                "Tier-1s carry significant SA shares (AS1 32%, AS3549 23%, "
                "AS7018 22%, AS6453 48.6%); small vantages near 0%");

  const std::map<std::uint32_t, double> paper{
      {1, 32},    {7018, 22},  {3549, 23},   {701, 27.8}, {6453, 48.6},
      {6461, 4},  {1239, 29.4},{3561, 5.2},  {2914, 14},  {209, 38},
      {5511, 18}, {577, 17},   {6538, 11},   {6667, 13},  {12359, 0},
      {12859, 0}};

  util::TextTable table({"AS", "customer prefixes", "SA prefixes",
                         "% SA (measured)", "% SA (paper)"});
  std::size_t tier1_double_digit = 0;
  std::size_t tier1_count = 0;
  for (const auto& [as_value, paper_pct] : paper) {
    const util::AsNumber as{as_value};
    if (!view.has_table(as)) continue;
    const auto analysis =
        core::infer_sa_prefixes(view.table_for(as), as, *view.inferred_graph,
                                view.inferred_oracle());
    table.add_row({util::to_string(as),
                   std::to_string(analysis.customer_prefixes),
                   std::to_string(analysis.sa_count),
                   util::fmt(analysis.percent_sa, 1),
                   util::fmt(paper_pct, 1)});
    if (exp.inference().tiers.level_of(as) == 1) {
      ++tier1_count;
      if (analysis.percent_sa >= 10.0) ++tier1_double_digit;
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "Shape check: " << tier1_double_digit << "/" << tier1_count
            << " Tier-1 vantages with double-digit SA share (paper: most "
               "Tier-1s 14%..48.6%)\n";
  return 0;
}
