// Per-stage wall-clock bench for the staged experiment API, extended with
// the task-graph overlap comparison (bgpolicy-bench/v5):
//
//  * serial-stage path: each stage timed through its accessor, one after
//    the other — no cross-stage overlap possible (the PR-4 execution
//    shape), with Simulate still chunk-parallel inside its stage.
//  * task-graph path: one Experiment::run() drives every upstream stage
//    through util::TaskGraph, so Observe's IRR nodes overlap each other,
//    the path-index nodes, and late Simulate chunks.  A StageTrace records
//    node spans; the bench reports the overlap windows, the chunk count,
//    and the post-Simulate tail: from the end of the last simulate.chunk
//    span to the end of observe.finish (the last chunk merge, the Simulate
//    persist beside the path nodes, and the Observe finish), and what
//    follows it: from the end of observe.finish to the end of the run
//    (Infer and Analyze, `after_observe_seconds`).
//
// Both paths run at 1/2/4/8 threads (1 alone on a one-CPU host:
// bench::scaling_thread_counts).  Every run's products are digested via
// the canonical serializers and asserted byte-identical across thread
// counts AND across the two execution shapes — the determinism contract
// (exit code 1 on mismatch).
//
// Flags:
//   --small   use the `small` scenario (CI-sized, seconds not minutes)
//   --json    emit a single JSON object on stdout (for scripts/bench.sh)
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/analysis_suite.h"
#include "core/experiment.h"
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
  double synthesize_seconds;
  double simulate_seconds;
  double observe_seconds;
  double infer_seconds;
  double analyze_seconds;
  double total_seconds;
  double speedup;
  // Task-graph path (one run() spanning all upstream stages).
  double graph_total_seconds;
  double overlap_irr_paths_seconds;
  double overlap_irr_sim_seconds;
  double tail_seconds;
  double after_observe_seconds;
  std::size_t sim_chunks;
};

/// [min start, max end] window over all spans whose name starts with any
/// of the given prefixes; empty window when none matched.
struct Window {
  double start = 0.0;
  double end = 0.0;
  bool any = false;
};

Window window_of(const std::vector<core::TraceSpan>& spans,
                 std::initializer_list<std::string_view> prefixes) {
  Window w;
  for (const core::TraceSpan& span : spans) {
    bool match = false;
    for (const std::string_view prefix : prefixes) {
      if (std::string_view(span.name).substr(0, prefix.size()) == prefix) {
        match = true;
        break;
      }
    }
    if (!match) continue;
    if (!w.any) {
      w.start = span.start_seconds;
      w.end = span.end_seconds;
      w.any = true;
    } else {
      w.start = std::min(w.start, span.start_seconds);
      w.end = std::max(w.end, span.end_seconds);
    }
  }
  return w;
}

double overlap_of(const Window& a, const Window& b) {
  if (!a.any || !b.any) return 0.0;
  return std::max(0.0, std::min(a.end, b.end) - std::max(a.start, b.start));
}

/// Seconds from the end of the last simulate.chunk span to the end of
/// observe.finish: the serial work between Simulate's fan-out and Infer.
double tail_of(const std::vector<core::TraceSpan>& spans) {
  const Window chunks = window_of(spans, {"simulate.chunk"});
  const Window finish = window_of(spans, {"observe.finish"});
  if (!chunks.any || !finish.any) return 0.0;
  return finish.end - chunks.end;
}

/// Seconds from the end of observe.finish to the end of a run that took
/// `total` seconds from the trace origin: Infer and Analyze.
double after_observe_of(const std::vector<core::TraceSpan>& spans,
                        double total) {
  const Window finish = window_of(spans, {"observe.finish"});
  return finish.any ? total - finish.end : 0.0;
}

std::string experiment_digest(core::Experiment& experiment) {
  const core::InferenceProducts& inference = experiment.inference();
  const core::AnalysisSuite& suite = experiment.analyses();
  return asrel::canonical_serialize(inference.inferred) + "tiers\n" +
         asrel::canonical_serialize(inference.tiers) + "paths " +
         std::to_string(experiment.observations().paths.path_count()) +
         " adjacencies " +
         std::to_string(experiment.observations().paths.adjacency_count()) +
         "\nirr_bytes " +
         std::to_string(experiment.observations().irr_text.size()) + "\n" +
         core::canonical_serialize(suite);
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
    std::cout << "[bench] staged experiment on the " << scenario.name
              << " scenario (serial-stage vs task-graph wall clock per "
                 "thread count)...\n";
  }

  const std::vector<std::size_t> thread_counts =
      bench::scaling_thread_counts();
  std::vector<Row> rows;
  std::string reference_digest;
  bool products_match = true;
  double base_seconds = 0.0;

  for (const std::size_t threads : thread_counts) {
    // ---- serial-stage path: one accessor per stage, no overlap ----
    core::RunOptions options;
    options.threads = threads;
    core::Experiment experiment(scenario, options);

    auto start = std::chrono::steady_clock::now();
    (void)experiment.truth();
    const double synthesize_seconds = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)experiment.sim();
    const double simulate_seconds = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)experiment.observations();
    const double observe_seconds = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)experiment.inference();
    const double infer_seconds = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)experiment.analyses();
    const double analyze_seconds = seconds_since(start);

    const double total = synthesize_seconds + simulate_seconds +
                         observe_seconds + infer_seconds + analyze_seconds;
    if (threads == 1) base_seconds = total;

    // ---- task-graph path: one run() spanning every upstream stage ----
    core::StageTrace trace;
    core::RunOptions graph_options;
    graph_options.threads = threads;
    graph_options.trace = &trace;
    core::Experiment graph_experiment(scenario, graph_options);
    trace.origin = std::chrono::steady_clock::now();
    start = trace.origin;
    graph_experiment.run(core::Stage::kAnalyze);
    const double graph_total = seconds_since(start);

    const Window irr =
        window_of(trace.spans, {"observe.irr_gen", "observe.irr_parse"});
    const Window paths =
        window_of(trace.spans, {"observe.path_ingest", "observe.path_index"});
    const Window sim_window = window_of(trace.spans, {"simulate."});

    rows.push_back({threads, synthesize_seconds, simulate_seconds,
                    observe_seconds, infer_seconds, analyze_seconds, total,
                    base_seconds / total, graph_total,
                    overlap_of(irr, paths), overlap_of(irr, sim_window),
                    tail_of(trace.spans),
                    after_observe_of(trace.spans, graph_total),
                    graph_experiment.sim_chunks().total});

    // Both execution shapes, every thread count: one digest.
    for (core::Experiment* exp : {&experiment, &graph_experiment}) {
      const std::string digest = experiment_digest(*exp);
      if (reference_digest.empty()) {
        reference_digest = digest;
      } else if (digest != reference_digest) {
        products_match = false;
      }
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (json) {
    std::cout << "{\"bench\":\"pipeline_stages\",\"scenario\":\""
              << scenario.name << "\",\"hardware_concurrency\":" << hw
              << ",\"products_match\":" << (products_match ? "true" : "false")
              << ",\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::cout << (i == 0 ? "" : ",") << "{\"threads\":" << r.threads
                << ",\"synthesize_seconds\":" << r.synthesize_seconds
                << ",\"simulate_seconds\":" << r.simulate_seconds
                << ",\"observe_seconds\":" << r.observe_seconds
                << ",\"infer_seconds\":" << r.infer_seconds
                << ",\"analyze_seconds\":" << r.analyze_seconds
                << ",\"total_seconds\":" << r.total_seconds
                << ",\"speedup\":" << r.speedup
                << ",\"graph_total_seconds\":" << r.graph_total_seconds
                << ",\"overlap_irr_paths_seconds\":"
                << r.overlap_irr_paths_seconds
                << ",\"overlap_irr_sim_seconds\":"
                << r.overlap_irr_sim_seconds
                << ",\"tail_seconds\":" << r.tail_seconds
                << ",\"after_observe_seconds\":" << r.after_observe_seconds
                << ",\"sim_chunks\":" << r.sim_chunks << "}";
    }
    std::cout << "]}" << std::endl;
    return products_match ? 0 : 1;
  }

  std::cout << "== pipeline stages · serial-stage vs task-graph wall clock "
               "==\n"
            << "scenario " << scenario.name
            << " · hardware threads: " << hw << "\n\n";
  util::TextTable table({"threads", "synthesize", "simulate", "observe",
                         "infer", "analyze", "serial total", "graph total",
                         "irr||paths", "irr||sim", "tail", "after observe",
                         "chunks"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.threads),
                   util::fmt(r.synthesize_seconds, 3),
                   util::fmt(r.simulate_seconds, 3),
                   util::fmt(r.observe_seconds, 3),
                   util::fmt(r.infer_seconds, 3),
                   util::fmt(r.analyze_seconds, 3),
                   util::fmt(r.total_seconds, 3),
                   util::fmt(r.graph_total_seconds, 3),
                   util::fmt(r.overlap_irr_paths_seconds, 3),
                   util::fmt(r.overlap_irr_sim_seconds, 3),
                   util::fmt(r.tail_seconds, 3),
                   util::fmt(r.after_observe_seconds, 3),
                   std::to_string(r.sim_chunks)});
  }
  std::cout << table.render(
                   "stage wall clock (seconds); irr||paths / irr||sim are "
                   "overlap windows inside the task-graph run, tail is "
                   "last chunk end to observe.finish end, after observe is "
                   "observe.finish end to the run's end (Infer, Analyze)")
            << "\n"
            << (products_match
                    ? "products byte-identical across thread counts and "
                      "execution shapes\n"
                    : "PRODUCT MISMATCH ACROSS RUNS\n");
  if (hw < 4) {
    std::cout << "note: only " << hw
              << " hardware thread(s) available; speedup and overlap are "
                 "bounded by the host, not the engine\n";
  }
  return products_match ? 0 : 1;
}
