// Fig. 7: uptime histogram of ever-SA prefixes at AS1 — prefixes that
// remain SA whenever present vs prefixes that shift SA -> non-SA.
#include "bench_common.h"
#include "core/persistence.h"

namespace {

void print_histogram(const bgpolicy::core::PersistenceStudy& study,
                     const char* unit) {
  bgpolicy::util::TextTable table(
      {std::string("uptime (") + unit + ")", "remaining SA",
       "shifted SA->non-SA"});
  for (const auto& bucket : study.uptime_histogram) {
    table.add_row({std::to_string(bucket.uptime),
                   std::to_string(bucket.remaining_sa),
                   std::to_string(bucket.shifted)});
  }
  std::cout << table.render() << "\n";
  std::cout << "ever-SA prefixes: " << study.ever_sa << ", shifted: "
            << study.shifted_total << " ("
            << bgpolicy::util::fmt(study.percent_shifted, 1) << "%)\n\n";
}

}  // namespace

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  const core::GroundTruth& truth = exp.truth();
  bench::banner("Fig. 7 — SA-prefix uptime at AS1",
                "about one sixth of SA prefixes shift to non-SA over a "
                "month; almost all are stable within one day");

  const util::AsNumber watch{1};

  {
    sim::ChurnParams churn_params;
    churn_params.propagation = exp.scenario().propagation;
    churn_params.seed = 7;
    churn_params.flip_fraction = 0.006;
    sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                              truth.originations, truth.gen.truth, {watch},
                              churn_params);
    const auto study = core::run_persistence_study(
        churn, watch, *view.inferred_graph, view.inferred_oracle(), 31,
        exp.scenario().propagation.threads);
    std::cout << "Fig. 7(a): month-scale churn\n";
    print_histogram(study, "days");
    std::cout << "Shape check (a): shifted share "
              << util::fmt(study.percent_shifted, 1)
              << "% (paper: ~1/6 = 16.7%)\n\n";
  }
  {
    sim::ChurnParams churn_params;
    churn_params.propagation = exp.scenario().propagation;
    churn_params.seed = 8;
    churn_params.flip_fraction = 0.002;
    sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                              truth.originations, truth.gen.truth, {watch},
                              churn_params);
    const auto study = core::run_persistence_study(
        churn, watch, *view.inferred_graph, view.inferred_oracle(), 12,
        exp.scenario().propagation.threads);
    std::cout << "Fig. 7(b): day-scale churn\n";
    print_histogram(study, "hours");
    std::cout << "Shape check (b): shifted share "
              << util::fmt(study.percent_shifted, 1)
              << "% (paper: most SA prefixes stable within a day)\n";
  }
  return 0;
}
