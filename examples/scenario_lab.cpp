// Scenario lab: a command-line driver over the staged experiment API for
// sensitivity studies — sweep a policy knob and watch the paper's headline
// statistics move.
//
//   $ scenario_lab [--seed N] [--stubs N] [--selective P] [--multihome P]
//                  [--prepend P] [--sweep selective|multihome|prepend|gao]
//                  [--steps N] [--threads N] [--store DIR]
//                  [--spec FILE.scn|DIR]
//
// With --spec, each .scn scenario spec (docs/SCENARIOS.md) runs through the
// staged pipeline, its verify block executes, and its headline stats join
// the table — the interactive spelling of tools/scenario_check.
//
// With --sweep, the chosen knob is swept across `--steps` values through
// core::sweep — variants run sharded across the thread pool, and upstream
// artifacts are cached per distinct scenario (the `gao` sweep varies only
// inference parameters, so every variant reuses ONE synthesized/simulated
// world).  Without it a single staged run is reported.
//
// With --store DIR, stage artifacts persist to an on-disk artifact store:
// run the same command twice and the second run loads everything (watch
// the executed-vs-loaded ledger); kill a sweep halfway and the re-run
// recomputes only the missing variants.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/prepending.h"
#include "core/scenario_spec.h"
#include "core/spec_verify.h"
#include "tool_args.h"
#include "util/text_table.h"

using namespace bgpolicy;

namespace {

struct Options {
  std::uint64_t seed = 11;
  std::uint64_t stubs = 400;
  double selective = 0.55;
  double multihome = 0.55;
  double prepend = 0.15;
  std::string sweep;
  std::uint64_t steps = 5;
  std::uint64_t threads = 0;
  std::string store_dir;
  std::string spec_path;
};

core::Scenario make_scenario(const Options& opts) {
  core::Scenario scenario = core::Scenario::small(opts.seed);
  scenario.topo_params.stub_count = opts.stubs;
  scenario.topo_params.stub_multihome_prob = opts.multihome;
  scenario.policy_params.origin_selective_as_prob = opts.selective;
  scenario.policy_params.prepend_as_prob = opts.prepend;
  return scenario;
}

struct RunStats {
  double sa_pct_as1 = 0;
  double multihomed_pct = 0;
  double typical_pct = 0;
  double prepended_pct = 0;
  double accuracy = 0;
};

// Stats shared by the single-run and sweep paths, read from staged
// artifacts: per-vantage bundles from the Analyze suite, accuracy scored
// against the upstream ground truth, prepending from the collector table.
RunStats stats_from(const core::GroundTruth& truth,
                    const sim::SimResult& sim,
                    const core::InferenceProducts& inference,
                    const core::AnalysisSuite& analyses) {
  RunStats stats;
  stats.accuracy = 100.0 * inference.inferred.accuracy_against(truth.topo.graph);
  if (const core::VantageAnalysis* as1 = analyses.find(util::AsNumber(1))) {
    stats.sa_pct_as1 = as1->sa.percent_sa;
    stats.multihomed_pct = as1->homing.percent_multihomed;
    if (as1->import_typicality) {
      stats.typical_pct = as1->import_typicality->percent_typical;
    }
  }
  stats.prepended_pct = core::analyze_prepending(sim.collector).percent_prepended;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  Options base;
  tools::ToolArgs args(
      "scenario_lab",
      "sweep a policy knob through the staged pipeline and watch the\n"
      "paper's headline statistics move.  With --spec, each .scn scenario\n"
      "spec (docs/SCENARIOS.md) is run through the staged pipeline, its\n"
      "verify block is executed, and its headline stats join the table;\n"
      "the knob flags are ignored.");
  args.option_u64("--seed", &base.seed, "N", "Scenario::small seed");
  args.option_u64("--stubs", &base.stubs, "N", "stub ASes");
  args.option_double("--selective", &base.selective, "P",
                     "origin selective-announcement probability");
  args.option_double("--multihome", &base.multihome, "P",
                     "stub multihoming probability");
  args.option_double("--prepend", &base.prepend, "P",
                     "stub prepending probability");
  args.option("--sweep", &base.sweep, "KNOB",
              "sweep selective|multihome|prepend|gao");
  args.option_u64("--steps", &base.steps, "N", "settings per sweep");
  args.option_u64("--threads", &base.threads, "N",
                  "worker threads (0 = all cores)");
  args.option("--store", &base.store_dir, "DIR", "artifact store directory");
  args.option("--spec", &base.spec_path, "FILE.scn|DIR",
              "run scenario specs instead of a knob setting");
  if (const std::optional<int> code = args.parse(argc, argv)) return *code;
  if (!args.positionals.empty()) {
    std::cerr << "scenario_lab: unexpected argument '"
              << args.positionals.front() << "'\n";
    args.print_usage(stderr);
    return 2;
  }

  // Optional on-disk artifact store: a second identical invocation loads
  // every artifact instead of recomputing (see the ledger line below).
  std::unique_ptr<core::ArtifactStore> store;
  if (!base.store_dir.empty()) {
    store = std::make_unique<core::ArtifactStore>(base.store_dir);
    std::cout << "Artifact store: " << store->root().string() << " ("
              << store->size() << " artifacts on disk)\n";
  }

  util::TextTable table({"knob setting", "% SA @AS1", "% multihomed origins",
                         "% typical import @AS1", "% prepended routes",
                         "inference accuracy %"});
  const auto add_row = [&](const std::string& label, const RunStats& stats) {
    table.add_row({label, util::fmt(stats.sa_pct_as1, 1),
                   util::fmt(stats.multihomed_pct, 1),
                   util::fmt(stats.typical_pct, 1),
                   util::fmt(stats.prepended_pct, 2),
                   util::fmt(stats.accuracy, 2)});
  };

  if (!base.spec_path.empty()) {
    // Spec mode: run every .scn through the staged pipeline and execute
    // its verify block (scenario_check is the strict CI spelling of this).
    std::vector<core::ScenarioSpec> specs;
    try {
      if (std::filesystem::is_directory(base.spec_path)) {
        specs = core::load_spec_dir(base.spec_path);
      } else {
        specs.push_back(core::ScenarioSpec::parse_file(base.spec_path));
      }
    } catch (const std::exception& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
    std::cout << "Running " << specs.size() << " scenario spec(s) from "
              << base.spec_path << "...\n";
    std::size_t failures = 0;
    for (core::ScenarioSpec& spec : specs) {
      if (base.threads != 0) spec.scenario.propagation.threads = base.threads;
      core::RunOptions options;
      options.store = store.get();
      core::Experiment experiment(spec.scenario, options);
      experiment.run();
      add_row(spec.scenario.name,
              stats_from(experiment.truth(), experiment.sim().sim,
                         experiment.inference(), experiment.analyses()));
      const core::VerifyReport report =
          core::run_spec_checks(spec, experiment);
      std::cout << "  " << spec.source << ": verify "
                << report.results.size() - report.failure_count() << "/"
                << report.results.size() << " passed\n";
      for (const core::CheckResult& result : report.results) {
        if (result.passed) continue;
        std::cout << "    FAIL " << spec.source << ":" << result.check.loc.line
                  << ": " << core::describe_check(result.check) << " — "
                  << result.detail << "\n";
        ++failures;
      }
    }
    std::cout << table.render("scenario_lab results") << "\n";
    return failures == 0 ? 0 : 1;
  }

  if (base.sweep.empty()) {
    std::cout << "Single staged run (seed " << base.seed << ", " << base.stubs
              << " stubs)...\n";
    core::RunOptions options;
    options.store = store.get();
    core::Experiment experiment(make_scenario(base), options);
    experiment.run();
    add_row("baseline",
            stats_from(experiment.truth(), experiment.sim().sim,
                       experiment.inference(), experiment.analyses()));
    if (store) {
      const auto& c = experiment.counters();
      const auto& l = experiment.loads();
      std::cout << "Stages executed: " << c.synthesize + c.simulate +
                       c.observe + c.infer + c.analyze
                << ", loaded from store: "
                << l.synthesize + l.simulate + l.observe + l.infer + l.analyze
                << "\n";
    }
  } else {
    std::vector<core::SweepVariant> variants;
    for (std::size_t i = 0; i < base.steps; ++i) {
      const double value =
          base.steps == 1
              ? 0.0
              : static_cast<double>(i) / static_cast<double>(base.steps - 1);
      Options opts = base;
      core::SweepVariant variant;
      if (base.sweep == "selective") {
        opts.selective = value;
        variant.label = "selective = " + util::fmt(value, 2);
      } else if (base.sweep == "multihome") {
        opts.multihome = 0.2 + 0.75 * value;  // degenerate worlds below 0.2
        variant.label = "multihome = " + util::fmt(opts.multihome, 2);
      } else if (base.sweep == "prepend") {
        opts.prepend = value;
        variant.label = "prepend = " + util::fmt(value, 2);
      } else if (base.sweep == "gao") {
        // Inference-parameter sweep: the scenario never changes, so every
        // variant reuses one cached upstream world.
        asrel::GaoParams gao;
        gao.peer_degree_ratio = 10.0 + 110.0 * value;
        variant.options.gao = gao;
        variant.label = "gao R = " + util::fmt(gao.peer_degree_ratio, 0);
      } else {
        std::cerr << "unknown sweep knob " << base.sweep << "\n";
        return 2;
      }
      variant.scenario = make_scenario(opts);
      variants.push_back(std::move(variant));
    }

    std::cout << "Sweeping --" << base.sweep << " over " << base.steps
              << " settings (seed " << base.seed << ")...\n";
    const core::SweepReport report =
        core::sweep(variants, base.threads, store.get());
    for (const core::SweepRun& run : report.runs) {
      const core::Experiment& up = *report.upstream[run.scenario_index];
      add_row(run.label, stats_from(up.truth(), up.sim().sim, run.inference,
                                    run.analyses));
    }
    std::cout << "Upstream worlds synthesized: " << report.distinct_scenarios
              << " for " << report.runs.size()
              << " variants (stage runs: " << report.counters.synthesize
              << " synthesize, " << report.counters.infer << " infer)\n";
    if (store) {
      std::cout << "Resume ledger: executed " << report.counters.simulate
                << " simulate / " << report.counters.infer
                << " infer stages, loaded " << report.loads.simulate
                << " / " << report.loads.infer << " from the store\n";
    }
  }
  std::cout << table.render("scenario_lab results") << "\n";
  std::cout << "Reading: SA prevalence tracks the selective-announcement "
               "rate (the paper's causal story); import typicality and "
               "inference accuracy stay high throughout.\n";
  return 0;
}
