// Thread-scaling bench for the sharded inference pipeline: Gao relationship
// voting, path-index construction, and the per-table analysis suite.
//
// Mirrors bench_sim_scaling: the simulation runs once (that stage has its
// own bench), then each inference stage is timed at 1/2/4/8 threads (1
// alone on a one-CPU host: bench::scaling_thread_counts).  Every run's
// products — inferred relationships, tiers, path-index counts, and all
// analysis-suite counters — are digested via the canonical serializers and
// asserted byte-identical across thread counts, the same determinism
// contract the propagation engine holds.  The path index is built in one
// sequential pass (core/path_index.h), so `path_index_seconds` times the
// same sequential build on every thread row.
//
// `analysis_split` breaks the one-thread analysis time down by analysis:
// one more threads = 1 pass makes the calls run_analysis_suite makes per
// vantage, each timed (SA inference, homing, causes, import typicality,
// community verification, SA verification), and reports the pass's wall
// clock and the share no part accounts for.  Its suite must equal the
// timed run's.
//
// Flags:
//   --small   use the `small` scenario (CI-sized, seconds not minutes)
//   --json    emit a single JSON object on stdout (for scripts/bench.sh)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "asrel/gao_inference.h"
#include "asrel/tier_classify.h"
#include "core/analysis_suite.h"
#include "core/experiment.h"
#include "core/experiment_view.h"
#include "core/scenario.h"
#include "util/text_table.h"

namespace {

using namespace bgpolicy;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  std::size_t threads;
  double gao_seconds;
  double index_seconds;
  double analysis_seconds;
  double total_seconds;
  double speedup;
};

struct AnalysisSplit {
  double sa = 0.0;
  double homing = 0.0;
  double causes = 0.0;
  double import_typicality = 0.0;
  double community_verification = 0.0;
  double sa_verification = 0.0;
  double total = 0.0;  ///< wall clock of the whole pass

  [[nodiscard]] double unaccounted_share() const {
    const double parts = sa + homing + causes + import_typicality +
                         community_verification + sa_verification;
    return total > 0.0 ? (total - parts) / total : 0.0;
  }
};

/// One threads = 1 pass over the per-vantage calls of
/// core::run_analysis_suite (analyze_vantage in core/analysis_suite.cc),
/// each timed into `split`; returns the suite the pass built.
core::AnalysisSuite split_analysis(const core::ExperimentView& view,
                                   const std::vector<util::AsNumber>& vantages,
                                   AnalysisSplit& split) {
  const auto timed = [](double& seconds, auto&& fn) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    seconds += seconds_since(start);
    return result;
  };
  const topo::AsGraph& graph = *view.inferred_graph;
  core::AnalysisSuite suite;
  const auto start = std::chrono::steady_clock::now();
  for (const util::AsNumber as : vantages) {
    core::VantageAnalysis v;
    v.vantage = as;
    const bgp::BgpTable& table = view.table_for(as);
    const core::RelationshipOracle rels = view.inferred_oracle();
    v.sa = timed(split.sa, [&] {
      return core::infer_sa_prefixes(table, as, graph, rels);
    });
    v.homing = timed(split.homing,
                     [&] { return core::analyze_homing(v.sa, graph); });
    v.causes = timed(split.causes, [&] {
      return core::analyze_causes(v.sa, table, *view.paths, graph, rels);
    });
    if (view.sim->looking_glass.contains(as)) {
      v.looking_glass = true;
      v.import_typicality = timed(split.import_typicality, [&] {
        return core::analyze_import_typicality(table, rels);
      });
      const auto verified = timed(split.community_verification, [&] {
        return view.community_verified_neighbors(as);
      });
      v.sa_verification = timed(split.sa_verification, [&] {
        return core::verify_sa_prefixes(v.sa, *view.paths, verified, rels);
      });
    }
    suite.vantages.push_back(std::move(v));
  }
  split.total = seconds_since(start);
  return suite;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  const core::Scenario scenario =
      small ? core::Scenario::small() : core::Scenario::internet2002();
  if (!json) {
    std::cout << "[bench] building the " << scenario.name
              << " upstream stages (Synthesize/Simulate/Observe run once, "
                 "inference is timed)...\n";
  }
  // The staged API is exactly this bench's access pattern: upstream
  // artifacts cached once, the Infer/Analyze stages re-run per thread
  // count.  The cached Observations carries the ingested Gao path set
  // (infer() is const and reusable) in the canonical ingest order.
  core::Experiment experiment(scenario);
  experiment.run(core::Stage::kObserve);
  const asrel::GaoInference& gao = experiment.observations().observed_paths;
  const std::vector<core::PathIndex::TableSource> sources =
      core::inference_table_sources(experiment.sim().sim);
  const std::vector<util::AsNumber> vantages =
      core::recorded_vantages(experiment.sim().sim);

  const std::vector<std::size_t> thread_counts =
      bench::scaling_thread_counts();
  std::vector<Row> rows;
  AnalysisSplit split;
  std::string reference_digest;
  bool products_match = true;
  double base_seconds = 0.0;
  std::size_t path_count = 0;

  for (const std::size_t threads : thread_counts) {
    asrel::GaoParams params;
    params.threads = threads;
    auto start = std::chrono::steady_clock::now();
    const core::InferenceProducts inference =
        core::infer_relationships(experiment.observations(), params);
    const double gao_seconds = seconds_since(start);

    start = std::chrono::steady_clock::now();
    core::PathIndex index;
    index.add_tables(sources);
    const double index_seconds = seconds_since(start);
    path_count = index.path_count();

    // The view's analyses read the Observe stage's path index (built once
    // in setup); the per-thread `index` above exists only to time
    // add_tables itself.
    const core::ExperimentView view = core::make_view(
        experiment.sim(), experiment.observations(), inference);
    start = std::chrono::steady_clock::now();
    const core::AnalysisSuite suite =
        core::run_analysis_suite(view, vantages, threads);
    const double analysis_seconds = seconds_since(start);
    if (threads == 1 &&
        core::canonical_serialize(split_analysis(view, vantages, split)) !=
            core::canonical_serialize(suite)) {
      products_match = false;
    }

    const double total = gao_seconds + index_seconds + analysis_seconds;
    if (threads == 1) base_seconds = total;
    rows.push_back({threads, gao_seconds, index_seconds, analysis_seconds,
                    total, base_seconds / total});

    const std::string digest =
        asrel::canonical_serialize(inference.inferred) + "tiers\n" +
        asrel::canonical_serialize(inference.tiers) +
        "paths " + std::to_string(index.path_count()) + " adjacencies " +
        std::to_string(index.adjacency_count()) + "\n" +
        core::canonical_serialize(suite);
    if (reference_digest.empty()) {
      reference_digest = digest;
    } else if (digest != reference_digest) {
      products_match = false;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (json) {
    std::cout << "{\"bench\":\"inference_scaling\",\"scenario\":\""
              << scenario.name << "\",\"hardware_concurrency\":" << hw
              << ",\"gao_paths\":" << gao.path_count()
              << ",\"indexed_paths\":" << path_count
              << ",\"vantages\":" << vantages.size()
              << ",\"products_match\":" << (products_match ? "true" : "false")
              << ",\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::cout << (i == 0 ? "" : ",") << "{\"threads\":" << r.threads
                << ",\"gao_seconds\":" << r.gao_seconds
                << ",\"path_index_seconds\":" << r.index_seconds
                << ",\"analysis_seconds\":" << r.analysis_seconds
                << ",\"total_seconds\":" << r.total_seconds
                << ",\"speedup\":" << r.speedup << "}";
    }
    std::cout << "],\"analysis_split\":{\"threads\":1"
              << ",\"sa_seconds\":" << split.sa
              << ",\"homing_seconds\":" << split.homing
              << ",\"causes_seconds\":" << split.causes
              << ",\"import_typicality_seconds\":" << split.import_typicality
              << ",\"community_verification_seconds\":"
              << split.community_verification
              << ",\"sa_verification_seconds\":" << split.sa_verification
              << ",\"total_seconds\":" << split.total
              << ",\"unaccounted_share\":" << split.unaccounted_share()
              << "}}" << std::endl;
    return products_match ? 0 : 1;
  }

  std::cout << "== inference scaling · sharded Gao voting + path indexing + "
               "analysis suite ==\n"
            << "scenario " << scenario.name << " · " << gao.path_count()
            << " observed paths · " << vantages.size()
            << " vantages · hardware threads: " << hw << "\n\n";
  util::TextTable table({"threads", "gao infer", "path index", "analyses",
                         "total", "speedup"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.threads), util::fmt(r.gao_seconds, 3),
                   util::fmt(r.index_seconds, 3),
                   util::fmt(r.analysis_seconds, 3),
                   util::fmt(r.total_seconds, 3),
                   util::fmt(r.speedup, 2) + "x"});
  }
  util::TextTable parts({"analysis", "seconds"});
  parts.add_row({"SA inference", util::fmt(split.sa, 3)});
  parts.add_row({"homing", util::fmt(split.homing, 3)});
  parts.add_row({"causes", util::fmt(split.causes, 3)});
  parts.add_row({"import typicality", util::fmt(split.import_typicality, 3)});
  parts.add_row({"community verification",
                 util::fmt(split.community_verification, 3)});
  parts.add_row({"SA verification", util::fmt(split.sa_verification, 3)});
  parts.add_row({"pass total", util::fmt(split.total, 3)});
  parts.add_row({"unaccounted share",
                 util::fmt(100.0 * split.unaccounted_share(), 1) + "%"});
  std::cout << table.render("inference wall clock (seconds) by thread count")
            << "\n"
            << parts.render("one-thread analysis split (seconds)") << "\n"
            << (products_match
                    ? "inference products byte-identical across all thread "
                      "counts\n"
                    : "PRODUCT MISMATCH ACROSS THREAD COUNTS\n");
  if (hw < 4) {
    std::cout << "note: only " << hw
              << " hardware thread(s) available; speedup is bounded by the "
                 "host, not the engine\n";
  }
  return products_match ? 0 : 1;
}
