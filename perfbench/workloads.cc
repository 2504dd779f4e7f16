// The batch workloads: `pipeline` (cold Synthesize→Analyze, then a run
// resumed from the artifact store the cold run filled) and `churn` (the
// persistence study's policy churn stepped by sim::ChurnSimulator).
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "io/artifact_codec.h"
#include "sim/churn.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bgpolicy;

namespace {

/// Set-up is repeated at least this many times per run.  The churn set-up
/// is reported as a median; the pipeline's world generation takes
/// milliseconds, so a group of kWorldRepeats runs before each cold run and
/// the fastest group median is reported.
constexpr int kSetupRepeats = 3;
constexpr int kWorldRepeats = 15;
/// Store-resumed runs per cold run (a resume costs a fifth of a cold run).
constexpr int kResumesPerColdRun = 3;
/// The persistence study of Fig. 6(a) and Fig. 7 (bench_fig6_persistence,
/// bench_fig7_uptime): 31 daily steps at flip fraction 0.006, watching AS1.
/// Every measured study starts from the first step, so the memo fill the
/// study pays is inside the measurement.
constexpr std::size_t kStudySteps = 31;
constexpr double kStudyFlipFraction = 0.006;
constexpr std::uint32_t kStudyWatch = 1;
/// A churn run steps at least kChurnStudies studies, study j on flip
/// schedule (ChurnParams::seed) (seed + j) mod kSchedulePool.  Stepping
/// cost follows the schedule: schedule 6 ran a fifth faster than schedule
/// 1 in each of three sets of runs, so one run spans several schedules.
/// reference.json records the cold reference of every pool schedule.
constexpr int kChurnStudies = 8;
constexpr std::uint64_t kSchedulePool = 31;

constexpr std::array<core::Stage, 5> kStages = {
    core::Stage::kSynthesize, core::Stage::kSimulate, core::Stage::kObserve,
    core::Stage::kInfer, core::Stage::kAnalyze};

/// A store directory that starts empty and is removed on scope exit.
struct ScratchStore {
  fs::path path;
  core::ArtifactStore store;
  explicit ScratchStore(fs::path dir)
      : path((fs::remove_all(dir), dir)), store(path) {}
  ~ScratchStore() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;
};

std::string analyses_digest(const core::AnalysisSuite& suite) {
  return core::stable_digest_hex(core::canonical_serialize(suite));
}

core::RunOptions pipeline_options(const Options& options,
                                  core::ArtifactStore* store) {
  core::RunOptions run;
  run.threads = options.nproc;
  run.store = store;
  run.until = core::Stage::kAnalyze;
  return run;
}

/// Checks a digest against the recorded reference, or — when none is
/// recorded — against the one the workload computed first.
void check_reference(Record& record, const std::string& what,
                     const std::string& actual, std::string& reference) {
  if (reference.empty()) reference = actual;
  record.check(actual == reference,
               what + " digest " + actual + " != reference " + reference);
}

// ------------------------------------------------------------------ churn --

/// The persistence study watches AS1 (the paper's view).
std::vector<util::AsNumber> churn_watch(const core::GroundTruth& truth) {
  if (!truth.topo.graph.contains(util::AsNumber(kStudyWatch))) {
    throw std::runtime_error("watched AS not in topology");
  }
  return {util::AsNumber(kStudyWatch)};
}

std::unique_ptr<sim::ChurnSimulator> make_churn(
    const core::GroundTruth& truth, const core::Scenario& scenario,
    std::uint64_t seed, bool incremental) {
  sim::ChurnParams params;
  params.seed = seed;
  params.flip_fraction = kStudyFlipFraction;
  params.incremental = incremental;
  params.propagation = scenario.propagation;
  return std::make_unique<sim::ChurnSimulator>(
      truth.topo.graph, truth.gen.policies, truth.originations,
      truth.gen.truth, churn_watch(truth), params);
}

/// Canonical digest of every watched table, rows in prefix order.
std::string watched_digest(const sim::ChurnSimulator& simulator,
                           const std::vector<util::AsNumber>& watch) {
  std::string text;
  for (const util::AsNumber as : watch) {
    const auto& table = simulator.watched(as);
    std::vector<const bgp::Route*> rows;
    rows.reserve(table.size());
    for (const auto& [prefix, route] : table) rows.push_back(&route);
    std::sort(rows.begin(), rows.end(),
              [](const bgp::Route* a, const bgp::Route* b) {
                return a->prefix < b->prefix;
              });
    text += "AS" + std::to_string(as.value()) + "\n";
    for (const bgp::Route* route : rows) text += route->to_string() + "\n";
  }
  return core::stable_digest_hex(text);
}

}  // namespace

// --------------------------------------------------------------- pipeline --

void pipeline_workload(const Options& options, Record& record) {
  const core::Scenario scenario = options.scenario();
  std::string reference = options.expect_analyses;
  std::vector<double> setup;
  std::vector<double> cold;
  std::vector<double> resume;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int i = 0; i < kSetupRepeats || Clock::now() < deadline; ++i) {
    // Set-up: generating the world the pipeline analyses (scenario value
    // and the Synthesize stage's ground truth) and opening a fresh artifact
    // store.  It takes milliseconds on one thread, and the host's other
    // tenants slow it by up to half for seconds at a time, so a group of
    // set-ups runs before every cold run and the quietest group counts.
    std::vector<double> group;
    for (int k = 0; k < kWorldRepeats; ++k) {
      const auto start = Clock::now();
      const core::Scenario world = options.scenario();
      const core::GroundTruth truth = core::synthesize(world);
      const ScratchStore fresh(options.work_dir / "pipeline-setup-store");
      group.push_back(seconds_since(start));
    }
    setup.push_back(median(group));
    ScratchStore scratch(options.work_dir / ("pipeline-store-" +
                                             std::to_string(i)));
    const core::RunOptions run = pipeline_options(options, &scratch.store);
    std::array<std::string, 5> cold_digests;
    std::string cold_analyses;
    {
      const auto start = Clock::now();
      core::Experiment experiment(scenario, run);
      experiment.run();
      cold.push_back(seconds_since(start));
      for (std::size_t s = 0; s < kStages.size(); ++s) {
        cold_digests[s] = experiment.stage_digest(kStages[s]);
      }
      cold_analyses = analyses_digest(experiment.analyses());
    }
    check_reference(record, "cold analyses", cold_analyses, reference);
    for (int r = 0; r < kResumesPerColdRun; ++r) {
      const auto start = Clock::now();
      core::Experiment experiment(scenario, run);
      experiment.run();
      resume.push_back(seconds_since(start));
      const core::StageCounters& computed = experiment.counters();
      record.check(computed.simulate + computed.observe + computed.infer +
                           computed.analyze ==
                       0,
                   "resumed run recomputed a stage instead of loading it");
      bool same = true;
      for (std::size_t s = 0; s < kStages.size(); ++s) {
        const std::string& digest = experiment.stage_digest(kStages[s]);
        if (digest.empty() || digest != cold_digests[s]) same = false;
      }
      record.check(same, "resumed stage digests differ from the cold run");
      record.check(analyses_digest(experiment.analyses()) == cold_analyses,
                   "resumed analyses differ from the cold run");
    }
  }

  record.add("setup_s", percentile(setup, 0.0), "s");
  // The fastest cold and resumed runs: with a few runs in a window, a
  // median still follows one run slowed by the host's other tenants.
  record.add("wall_s", percentile(cold, 0.0), "s");
  record.add("resume_s", percentile(resume, 0.0), "s");
  record.add("resumes_per_s", 1.0 / percentile(resume, 0.0), "1/s");
  record.add("cold_runs", static_cast<double>(cold.size()), "count");
  record.add("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string pipeline_reference(const Options& options) {
  core::Scenario scenario = options.scenario();
  scenario.propagation.threads = 1;
  core::Experiment experiment(scenario);
  experiment.run();
  return analyses_digest(experiment.analyses());
}

namespace {

struct StagedArtifacts {
  std::optional<core::GroundTruth> truth;
  std::optional<core::SimArtifact> sim;
  std::optional<core::Observations> observations;
  std::optional<core::InferenceProducts> inference;
  std::optional<core::AnalysisSuite> analyses;
};

/// Synthesize→Analyze through the stages' public functions, one after the
/// other, each in its own span (none when `tracer` is null).  Returns the
/// wall time; stage times go to `record` when it is non-null.
double run_stages(const Options& options, const core::Scenario& scenario,
                  const util::Executor& executor, Tracer* tracer,
                  StagedArtifacts& a, Record* record) {
  const auto start = Clock::now();
  const auto stage = [&](const char* name, const char* layer, auto&& fn) {
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, name, layer);
      fn();
    }
    if (record) record->add(std::string(name) + "_s", seconds_since(t0), "s");
  };
  stage("core.synthesize", "core",
        [&] { a.truth.emplace(core::synthesize(scenario)); });
  stage("sim.simulate", "sim", [&] {
    a.sim.emplace(core::simulate(scenario, *a.truth, options.nproc, &executor));
  });
  stage("core.observe", "core", [&] {
    a.observations.emplace(
        core::observe(scenario, *a.truth, *a.sim, options.nproc, &executor));
  });
  stage("asrel.infer", "asrel", [&] {
    asrel::GaoParams gao;
    gao.threads = options.nproc;
    a.inference.emplace(
        core::infer_relationships(*a.observations, gao, &executor));
  });
  stage("core.analyze", "core", [&] {
    const std::vector<util::AsNumber> vantages =
        core::recorded_vantages(a.sim->sim);
    a.analyses.emplace(core::run_analysis_suite(
        core::make_view(*a.sim, *a.observations, *a.inference), vantages,
        options.nproc, &executor));
  });
  return seconds_since(start);
}

}  // namespace

void pipeline_traced(const Options& options, Tracer& tracer,
                     Record& record) {
  const core::Scenario scenario = options.scenario();
  const util::Executor executor(options.nproc);

  // Untraced reference for the overhead: the same stage calls, no spans.
  double untraced = 0.0;
  std::string untraced_analyses;
  {
    StagedArtifacts plain;
    untraced = run_stages(options, scenario, executor, nullptr, plain, nullptr);
    untraced_analyses = analyses_digest(*plain.analyses);
  }

  ScratchStore scratch(options.work_dir / "pipeline-traced-store");
  Tracer::Scope root(&tracer, "pipeline", "bench");
  StagedArtifacts staged;
  double cold_wall = 0.0;
  {
    Tracer::Scope cold(&tracer, "pipeline.cold", "bench");
    cold_wall =
        run_stages(options, scenario, executor, &tracer, staged, &record);
    cold.close();
    record.add("pipeline.unaccounted_s", tracer.uncovered_seconds(cold.id()),
               "s");
  }
  const auto& truth = staged.truth;
  const auto& sim = staged.sim;
  const auto& observations = staged.observations;
  const auto& inference = staged.inference;
  const auto& analyses = staged.analyses;
  record.check(analyses_digest(*analyses) == untraced_analyses,
               "traced stage run changed the analyses");
  const double events = static_cast<double>(sim->sim.process_events);
  record.add("sim.process_events", events, "count");
  record.add("sim.events_per_s",
             events / record.metrics.at("sim.simulate_s").value, "1/s");
  record.add("asrel.accuracy",
             inference->inferred.accuracy_against(truth->topo.graph), "ratio");

  // Persist every artifact, then resume from the store: the io codec and
  // the store's reads and writes, per artifact.
  struct Artifact {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Artifact> artifacts;
  {
    Tracer::Scope persist(&tracer, "pipeline.persist", "bench");
    const auto encode = [&](const char* name, const auto& value) {
      const auto t0 = Clock::now();
      std::vector<std::uint8_t> bytes;
      {
        Tracer::Scope span(&tracer, std::string("io.encode.") + name, "io");
        bytes = io::encode(value);
      }
      record.add(std::string("io.encode_s.") + name, seconds_since(t0), "s");
      record.add(std::string("io.bytes.") + name,
                 static_cast<double>(bytes.size()), "bytes");
      {
        Tracer::Scope span(&tracer, std::string("core.store_put.") + name,
                           "core");
        record.check(scratch.store.put(name, bytes),
                     std::string("store put failed: ") + name);
      }
      artifacts.push_back({name, std::move(bytes)});
    };
    encode("truth", *truth);
    encode("sim", *sim);
    encode("observations", *observations);
    encode("inference", *inference);
    encode("analyses", *analyses);
  }
  double store_load = 0.0;
  {
    Tracer::Scope resume(&tracer, "pipeline.resume", "bench");
    for (const Artifact& artifact : artifacts) {
      const auto t0 = Clock::now();
      std::optional<std::vector<std::uint8_t>> bytes;
      {
        Tracer::Scope span(&tracer,
                           std::string("core.store_load.") + artifact.name,
                           "core");
        bytes = scratch.store.load(artifact.name);
      }
      store_load += seconds_since(t0);
      record.check(bytes.has_value() && *bytes == artifact.bytes,
                   std::string("store returned other bytes for ") +
                       artifact.name);
      if (!bytes) continue;
      const std::string name = artifact.name;
      const auto d0 = Clock::now();
      {
        Tracer::Scope span(&tracer, "io.decode." + name, "io");
        if (name == "truth") (void)io::decode_ground_truth(*bytes);
        if (name == "sim") (void)io::decode_sim_artifact(*bytes);
        if (name == "observations") (void)io::decode_observations(*bytes);
        if (name == "inference") (void)io::decode_inference(*bytes);
        if (name == "analyses") {
          record.check(analyses_digest(io::decode_analysis_suite(*bytes)) ==
                           untraced_analyses,
                       "decoded analyses differ");
        }
      }
      record.add("io.decode_s." + name, seconds_since(d0), "s");
    }
  }
  record.add("core.store_load_s", store_load, "s");
  record.add("pipeline.trace_overhead_s", cold_wall - untraced, "s");
  record.add("pipeline.staged_wall_s", cold_wall, "s");
  root.close();
  report_layers(tracer, root.id(), "pipeline", record);
}

// ------------------------------------------------------------------ churn --

void churn_workload(const Options& options, Record& record) {
  const core::Scenario scenario = options.scenario();
  const std::size_t steps = kStudySteps;
  std::vector<double> setup;
  std::vector<double> step_ms;
  std::size_t stepped = 0;
  double stepping = 0.0;
  std::vector<std::pair<std::uint64_t, std::string>> digests;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int i = 0; i < kChurnStudies || Clock::now() < deadline; ++i) {
    const std::uint64_t schedule =
        (options.seed + static_cast<std::uint64_t>(i)) % kSchedulePool;
    const auto start = Clock::now();
    const core::GroundTruth truth = core::synthesize(scenario);
    const auto simulator = make_churn(truth, scenario, schedule, true);
    simulator->run_initial();
    setup.push_back(seconds_since(start));

    const auto run_start = Clock::now();
    for (std::size_t s = 0; s < steps; ++s) {
      const auto t0 = Clock::now();
      (void)simulator->step();
      step_ms.push_back(seconds_since(t0) * 1e3);
    }
    stepping += seconds_since(run_start);
    stepped += steps;
    digests.emplace_back(schedule,
                         watched_digest(*simulator, churn_watch(truth)));
  }

  // Output check, outside the timed window: the watched tables after the
  // last step must equal the cold (non-incremental) reference's.
  std::map<std::uint64_t, std::string> references = options.expect_watched;
  for (const auto& [schedule, digest] : digests) {
    std::string& reference = references[schedule];
    if (reference.empty()) reference = churn_cold_reference(options, schedule);
    record.check(digest == reference,
                 "watched tables " + digest + " != cold reference " +
                     reference + " on schedule " + std::to_string(schedule));
  }

  record.add("setup_s", median(setup), "s");
  record.add("steps_per_s", static_cast<double>(stepped) / stepping, "1/s");
  record.add("step_ms.p50", percentile(step_ms, 0.50), "ms");
  record.add("step_ms.p90", percentile(step_ms, 0.90), "ms");
  record.add("step_ms.p99", percentile(step_ms, 0.99), "ms");
  record.add("churn_runs", static_cast<double>(digests.size()), "count");
  record.add("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string churn_cold_reference(const Options& options,
                                 std::uint64_t schedule) {
  const core::Scenario scenario = options.scenario();
  const core::GroundTruth truth = core::synthesize(scenario);
  const auto simulator = make_churn(truth, scenario, schedule, false);
  simulator->run_initial();
  for (std::size_t s = 0; s < kStudySteps; ++s) {
    (void)simulator->step();
  }
  return watched_digest(*simulator, churn_watch(truth));
}

void churn_traced(const Options& options, Tracer& tracer, Record& record) {
  const core::Scenario scenario = options.scenario();
  const std::size_t steps = kStudySteps;

  // Untraced reference for the overhead: one identical stepping run.
  double untraced = 0.0;
  {
    const core::GroundTruth truth = core::synthesize(scenario);
    const auto simulator =
        make_churn(truth, scenario, options.seed % kSchedulePool, true);
    simulator->run_initial();
    const auto start = Clock::now();
    for (std::size_t s = 0; s < steps; ++s) (void)simulator->step();
    untraced = seconds_since(start);
  }

  Tracer::Scope root(&tracer, "churn", "bench");
  std::optional<core::GroundTruth> truth;
  {
    Tracer::Scope span(&tracer, "core.synthesize", "core");
    truth.emplace(core::synthesize(scenario));
  }
  std::unique_ptr<sim::ChurnSimulator> simulator;
  {
    Tracer::Scope span(&tracer, "sim.churn_construct", "sim");
    simulator = make_churn(*truth, scenario, options.seed % kSchedulePool,
                           true);
  }
  {
    const auto start = Clock::now();
    Tracer::Scope span(&tracer, "sim.run_initial", "sim");
    simulator->run_initial();
    record.add("sim.initial_s", seconds_since(start), "s");
  }
  std::vector<double> step_ms;
  std::size_t repropagated = 0;
  double traced = 0.0;
  {
    Tracer::Scope run(&tracer, "churn.steps", "bench");
    const auto start = Clock::now();
    for (std::size_t s = 0; s < steps; ++s) {
      const auto t0 = Clock::now();
      Tracer::Scope span(&tracer, "sim.step", "sim");
      repropagated += simulator->step().size();
      step_ms.push_back(seconds_since(t0) * 1e3);
    }
    traced = seconds_since(start);
  }
  const double hits = static_cast<double>(simulator->memo_hits());
  record.add("churn.step_ms.p50", percentile(step_ms, 0.50), "ms");
  record.add("churn.step_ms.p99", percentile(step_ms, 0.99), "ms");
  record.add("churn.repropagated", static_cast<double>(repropagated),
             "count");
  record.add("churn.memo_hits", hits, "count");
  record.add("churn.memo_hit_ratio",
             repropagated ? hits / static_cast<double>(repropagated) : 0.0,
             "ratio");
  record.add("churn.warm_states",
             static_cast<double>(simulator->warm_state_count()), "count");
  record.add("churn.trace_overhead_s", traced - untraced, "s");
  record.add("churn.untraced_steps_s", untraced, "s");
  root.close();
  report_layers(tracer, root.id(), "churn", record);
}

}  // namespace perfbench
