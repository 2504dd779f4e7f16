// Fig. 6: persistence of SA prefixes at AS1 — (a) daily snapshots over a
// month of policy churn, (b) hourly snapshots within one day (lower churn).
//
// Series (a) is run twice, once with incremental (warm-start delta) churn
// stepping and once with cold per-prefix recomputation: the delta-vs-cold
// column pins the two studies byte-identical (sim/delta_engine.h
// determinism contract) while the steps/sec rows show what the warm path
// buys at figure scale.
#include <chrono>

#include "bench_common.h"
#include "core/persistence.h"

namespace {

void print_series(const bgpolicy::core::PersistenceStudy& study,
                  const char* unit) {
  bgpolicy::util::TextTable table(
      {std::string(unit), "all prefixes", "customer prefixes", "SA prefixes"});
  for (const auto& snap : study.series) {
    table.add_row({std::to_string(snap.step + 1),
                   std::to_string(snap.total_prefixes),
                   std::to_string(snap.customer_prefixes),
                   std::to_string(snap.sa_prefixes)});
  }
  std::cout << table.render() << "\n";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace bgpolicy;
  const auto& exp = bench::experiment();
  const auto view = exp.view();
  const core::GroundTruth& truth = exp.truth();
  bench::banner("Fig. 6 — persistence of SA prefixes at AS1",
                "SA prefixes are consistently present: a stable band far "
                "below the total, over 31 days and over one day");

  const util::AsNumber watch{1};
  const auto daily_params = [&](bool incremental) {
    sim::ChurnParams churn_params;
    churn_params.propagation = exp.scenario().propagation;
    churn_params.seed = 31;
    churn_params.flip_fraction = 0.006;
    churn_params.incremental = incremental;
    return churn_params;
  };
  const auto run_daily = [&](bool incremental, double& seconds) {
    sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                              truth.originations, truth.gen.truth, {watch},
                              daily_params(incremental));
    const auto start = std::chrono::steady_clock::now();
    auto study = core::run_persistence_study(
        churn, watch, *view.inferred_graph, view.inferred_oracle(), 31,
        exp.scenario().propagation.threads);
    seconds = seconds_since(start);
    return study;
  };

  // (a) 31 daily steps with the default churn rate, both stepping modes.
  double incremental_seconds = 0;
  double cold_seconds = 0;
  const auto study = run_daily(/*incremental=*/true, incremental_seconds);
  const auto cold_study = run_daily(/*incremental=*/false, cold_seconds);
  const bool modes_match =
      core::canonical_serialize(study) == core::canonical_serialize(cold_study);
  std::cout << "Fig. 6(a): daily snapshots, March-2002 equivalent\n";
  print_series(study, "day");

  util::TextTable timing({"stepping mode", "31-step wall", "steps/sec",
                          "delta vs cold"});
  timing.add_row({"cold recompute", util::fmt(cold_seconds, 2) + " s",
                  util::fmt(31.0 / cold_seconds, 1), "baseline"});
  timing.add_row({"incremental (delta)",
                  util::fmt(incremental_seconds, 2) + " s",
                  util::fmt(31.0 / incremental_seconds, 1),
                  modes_match ? "identical" : "DIVERGED"});
  std::cout << timing.render("churn stepping cost, series (a)") << "\n";

  // (b) 12 intra-day steps with much lower churn.
  {
    sim::ChurnParams churn_params;
    churn_params.propagation = exp.scenario().propagation;
    churn_params.seed = 15;
    churn_params.flip_fraction = 0.002;
    sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                              truth.originations, truth.gen.truth, {watch},
                              churn_params);
    const auto inner = core::run_persistence_study(
        churn, watch, *view.inferred_graph, view.inferred_oracle(), 12,
        exp.scenario().propagation.threads);
    std::cout << "Fig. 6(b): intra-day snapshots, March 15 equivalent\n";
    print_series(inner, "interval");
  }
  std::cout << "Shape check: SA count stays a stable minority band in both "
               "series (paper: ~9k SA vs ~120k total, flat)\n";
  if (!modes_match) {
    std::cerr << "DELTA EQUIVALENCE FAILED: incremental and cold studies "
                 "diverged\n";
    return 1;
  }
  return 0;
}
