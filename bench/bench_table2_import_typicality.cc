// Table 2: percentage of prefixes with typical local preference
// (customer > peer > provider) at each looking-glass vantage.
#include <map>

#include "bench_common.h"
#include "core/import_inference.h"

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  bench::banner("Table 2 — typical local preference at 15 vantages",
                "94.3%..100% of prefixes conform to customer > peer > "
                "provider at every vantage");

  // The paper's reported values, for side-by-side shape comparison.
  const std::map<std::uint32_t, double> paper{
      {577, 94.3},   {5511, 96.5},  {3549, 99.7},  {6667, 99.94},
      {7474, 99.955},{12359, 99.98},{7018, 99.99}, {1, 99.994},
      {2578, 99.9982},{513, 100},   {6762, 100},   {559, 100},
      {12859, 100},  {8262, 100},   {6539, 100}};

  util::TextTable table({"AS", "comparable prefixes", "% typical (measured)",
                         "% typical (paper)"});
  std::size_t above90 = 0;
  std::size_t reported = 0;
  for (const auto vantage : exp.sim().vantage.looking_glass) {
    const auto result = core::analyze_import_typicality(
        exp.sim().sim.looking_glass.at(vantage), view.inferred_oracle());
    const auto it = paper.find(vantage.value());
    table.add_row({util::to_string(vantage),
                   std::to_string(result.comparable_prefixes),
                   util::fmt(result.percent_typical, 2),
                   it == paper.end() ? "-" : util::fmt(it->second, 2)});
    if (result.comparable_prefixes >= 10) {
      ++reported;
      if (result.percent_typical > 90.0) ++above90;
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "Shape check: " << above90 << "/" << reported
            << " vantages (with >=10 comparable prefixes) above 90% typical "
               "(paper: 15/15 above 94%)\n";
  return 0;
}
