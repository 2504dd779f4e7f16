// Thread-scaling bench for the prefix-sharded propagation engine.
//
// Runs the full-Internet simulation of the canonical scenario at 1/2/4/8
// threads (1 alone on a one-CPU host: bench::scaling_thread_counts),
// reports wall-clock seconds and speedup over the sequential run,
// and cross-checks that every run produced identical products: each row's
// convergence counters and the digest of its encoded `SimArtifact` (the
// engine guarantees byte-identical output at any thread count).
//
// Also times the seed per-event engine (`compute_prefix_reference`, the
// sequential program run_simulation executed before the flat core landed)
// over the same originations, recorded through the reference recorder
// (`record_prefix`): `reference_seconds` and `flat_speedup` are the
// committed before/after trajectory of the flat-core rewrite.  The flat
// rows' recorded tables must equal the reference recorder's row for row,
// and the flat core's exact-order event sum the reference trajectory's.
//
// Also times the fixpoint on its own, nothing recorded, in one scratch
// on the calling thread, three ways.  The batch pass is the batch runner
// every row runs (`sim::converge_range` over the whole list): the static
// wedgie oracle per origination, each origin's prefix-agnostic base
// (`base_converges`, `base_events`), a pruned wave per proven-unique
// origination (`waves`, `wave_events`) and an exact run for the rest
// (`exact_originations`, `exact_events`), with the seconds of each kind
// of run (`oracle_seconds`, `base_seconds`, `wave_seconds`,
// `exact_seconds`) inside the pass's `fixpoint_seconds`.  Its wave and
// exact events (`chosen_order_events`) must equal the threads = 1 row's
// process events.  The cold pass converges each origination alone in the
// order the oracle allows (`sim::converge_cold`, what isolated callers
// run: `cold_order_events`, `cold_fixpoint_seconds`); the exact pass
// alone in exact order (`sim::converge_exact`: `exact_order_events`,
// `exact_fixpoint_seconds` and its ns per event, the per-event cost of
// the kernel).
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
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"
#include "io/binary_table.h"
#include "sim/flat_engine.h"
#include "sim/simulation.h"
#include "util/text_table.h"

namespace {

using namespace bgpolicy;

struct World {
  core::GroundTruth truth;
  sim::VantageSpec vantage;
  sim::PropagationOptions options;
};

World build(const core::Scenario& scenario) {
  // The Synthesize stage plus the canonical vantage derivation — the same
  // world the Experiment's Simulate stage runs.
  World w;
  w.truth = core::synthesize(scenario);
  w.vantage = core::derive_vantage(scenario, w.truth.topo);
  w.options = scenario.propagation;
  return w;
}

struct Row {
  std::size_t threads;
  double seconds;
  double speedup;
  std::size_t process_events;
  std::size_t unconverged;
  std::string digest;
};

/// Digest of the encoded Simulate artifact — the bytes every downstream
/// stage reads, so a recording difference the counters cannot see shows.
std::string digest_of(const World& w, sim::SimResult sim) {
  core::SimArtifact artifact;
  artifact.vantage = w.vantage;
  artifact.sim = std::move(sim);
  return core::store_digest_hex(io::encode(artifact));
}

/// The seed sequential program: reference fixpoints recorded in
/// origination order — byte-identical to what run_simulation(threads=1)
/// produced before the flat core.
sim::SimResult reference_simulation(const World& w) {
  const sim::PropagationEngine engine(w.truth.topo.graph,
                                      w.truth.gen.policies);
  sim::SimResult result = sim::init_sim_result(w.vantage);
  for (const auto& origination : w.truth.originations) {
    const sim::PrefixRouting state = sim::compute_prefix_reference(
        w.truth.topo.graph, w.truth.gen.policies, origination, nullptr,
        w.options);
    if (!state.converged) ++result.unconverged_prefixes;
    result.process_events += state.process_events;
    sim::record_prefix(engine, state, w.vantage, result);
    ++result.origination_count;
  }
  return result;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct FixpointPass {
  double seconds = 0.0;
  std::size_t events = 0;
};

/// Every origination converged alone, in one scratch on the calling
/// thread, reading nothing out of the state.
FixpointPass isolated_pass(const World& w, bool exact) {
  const sim::FlatSimContext context(w.truth.topo.graph, w.truth.gen.policies);
  sim::FlatScratch scratch;
  const auto converge = exact ? &sim::converge_exact : &sim::converge_cold;
  FixpointPass pass;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& origination : w.truth.originations) {
    pass.events += converge(context, origination, nullptr, w.options, scratch,
                            scratch.state())
                       .events;
  }
  pass.seconds = seconds_since(start);
  return pass;
}

struct BatchPass {
  double seconds = 0.0;  // the whole pass, the seed lists' build included
  sim::BatchStats stats;
};

/// The batch runner over the whole list as one range, reading nothing.
BatchPass batch_pass(const World& w) {
  BatchPass pass;
  const auto start = std::chrono::steady_clock::now();
  const sim::FlatSimContext context(w.truth.topo.graph, w.truth.gen.policies);
  sim::FlatScratch scratch;
  pass.stats = sim::converge_range(
      context, sim::PrefixSeeds(context), w.truth.originations,
      {0, w.truth.originations.size()}, w.options, scratch,
      [](std::size_t, const sim::FixpointStats&, sim::FlatRoutingState&) {});
  pass.seconds = seconds_since(start);
  return pass;
}

/// True when every recorded table of `a` equals `b`'s, row for row.
bool same_tables(const sim::SimResult& a, const sim::SimResult& b) {
  const auto same = [](const bgp::BgpTable& x, const bgp::BgpTable& y) {
    return io::serialize_table(x) == io::serialize_table(y);
  };
  if (!same(a.collector, b.collector) ||
      a.looking_glass.size() != b.looking_glass.size() ||
      a.best_only.size() != b.best_only.size()) {
    return false;
  }
  for (const auto& [as, table] : a.looking_glass) {
    const auto it = b.looking_glass.find(as);
    if (it == b.looking_glass.end() || !same(table, it->second)) return false;
  }
  for (const auto& [as, table] : a.best_only) {
    const auto it = b.best_only.find(as);
    if (it == b.best_only.end() || !same(table, it->second)) return false;
  }
  return true;
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
  const World w = build(scenario);

  const std::vector<std::size_t> thread_counts =
      bench::scaling_thread_counts();
  std::vector<Row> rows;
  double base_seconds = 0.0;
  bool counters_match = true;
  sim::SimResult first_result;

  for (const std::size_t threads : thread_counts) {
    sim::PropagationOptions options = w.options;
    options.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    sim::SimResult result = sim::run_simulation(
        w.truth.topo.graph, w.truth.gen.policies, w.truth.originations,
        w.vantage, options);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (threads == 1) base_seconds = seconds;
    const std::size_t events = result.process_events;
    const std::size_t unconverged = result.unconverged_prefixes;
    rows.push_back({threads, seconds, base_seconds / seconds, events,
                    unconverged, digest_of(w, result)});
    if (rows.size() == 1) first_result = std::move(result);
    if (rows.back().process_events != rows.front().process_events ||
        rows.back().unconverged != rows.front().unconverged ||
        rows.back().digest != rows.front().digest) {
      counters_match = false;
    }
  }

  const BatchPass batch = batch_pass(w);
  const sim::BatchStats& kinds = batch.stats;
  const std::size_t chosen_events = kinds.wave_events + kinds.exact_events;
  const std::size_t batch_events = kinds.base_events + chosen_events;
  const FixpointPass cold_fixpoint = isolated_pass(w, /*exact=*/false);
  const FixpointPass exact_fixpoint = isolated_pass(w, /*exact=*/true);
  const auto ns_per_event = [](double seconds, std::size_t events) {
    return seconds * 1e9 / static_cast<double>(events);
  };
  if (chosen_events != rows.front().process_events ||
      kinds.discarded != 0) {
    counters_match = false;
  }

  // The before/after point: the seed engine over the same originations.
  // The flat rows record its tables row for row; their own event count is
  // the chosen order's, so the exact-order pass is what matches its
  // trajectory.
  const auto ref_start = std::chrono::steady_clock::now();
  const sim::SimResult reference = reference_simulation(w);
  const auto ref_stop = std::chrono::steady_clock::now();
  const double reference_seconds =
      std::chrono::duration<double>(ref_stop - ref_start).count();
  const double flat_speedup = reference_seconds / base_seconds;
  const bool reference_match =
      reference.process_events == exact_fixpoint.events &&
      reference.unconverged_prefixes == rows.front().unconverged &&
      same_tables(first_result, reference);
  const bool ok = counters_match && reference_match;

  const unsigned hw = std::thread::hardware_concurrency();
  if (json) {
    std::cout << "{\"bench\":\"sim_scaling\",\"scenario\":\"" << scenario.name
              << "\",\"hardware_concurrency\":" << hw
              << ",\"originations\":" << w.truth.originations.size()
              << ",\"counters_match\":" << (counters_match ? "true" : "false")
              << ",\"chosen_order_events\":" << chosen_events
              << ",\"fixpoint_seconds\":" << batch.seconds
              << ",\"fixpoint_ns_per_event\":"
              << ns_per_event(batch.seconds, batch_events)
              << ",\"oracle_seconds\":" << kinds.oracle_seconds
              << ",\"base_converges\":" << kinds.base_converges
              << ",\"base_events\":" << kinds.base_events
              << ",\"base_seconds\":" << kinds.base_seconds
              << ",\"waves\":" << kinds.waves
              << ",\"wave_events\":" << kinds.wave_events
              << ",\"wave_seconds\":" << kinds.wave_seconds
              << ",\"exact_originations\":" << kinds.exact_runs
              << ",\"exact_events\":" << kinds.exact_events
              << ",\"exact_seconds\":" << kinds.exact_seconds
              << ",\"cold_order_events\":" << cold_fixpoint.events
              << ",\"cold_fixpoint_seconds\":" << cold_fixpoint.seconds
              << ",\"exact_order_events\":" << exact_fixpoint.events
              << ",\"exact_fixpoint_seconds\":" << exact_fixpoint.seconds
              << ",\"exact_fixpoint_ns_per_event\":"
              << ns_per_event(exact_fixpoint.seconds, exact_fixpoint.events)
              << ",\"reference_seconds\":" << reference_seconds
              << ",\"flat_speedup\":" << flat_speedup
              << ",\"reference_match\":" << (reference_match ? "true" : "false")
              << ",\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::cout << (i == 0 ? "" : ",") << "{\"threads\":" << r.threads
                << ",\"seconds\":" << r.seconds
                << ",\"speedup\":" << r.speedup << ",\"events_per_sec\":"
                << static_cast<double>(r.process_events) / r.seconds << "}";
    }
    std::cout << "]}" << std::endl;
    return ok ? 0 : 1;
  }

  std::cout << "== sim scaling · prefix-sharded run_simulation ==\n"
            << "scenario " << scenario.name << " · "
            << w.truth.originations.size() << " originations · hardware threads: "
            << hw << "\n\n";
  util::TextTable table({"threads", "seconds", "speedup", "process events",
                         "unconverged"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.threads), util::fmt(r.seconds, 3),
                   util::fmt(r.speedup, 2) + "x",
                   std::to_string(r.process_events),
                   std::to_string(r.unconverged)});
  }
  util::TextTable by_kind({"kind of run", "runs", "events", "seconds"});
  by_kind.add_row({"oracle", std::to_string(w.truth.originations.size()), "-",
                   util::fmt(kinds.oracle_seconds, 3)});
  by_kind.add_row({"base (no origination's)",
                   std::to_string(kinds.base_converges),
                   std::to_string(kinds.base_events),
                   util::fmt(kinds.base_seconds, 3)});
  by_kind.add_row({"wave from a base", std::to_string(kinds.waves),
                   std::to_string(kinds.wave_events),
                   util::fmt(kinds.wave_seconds, 3)});
  by_kind.add_row({"exact run", std::to_string(kinds.exact_runs),
                   std::to_string(kinds.exact_events),
                   util::fmt(kinds.exact_seconds, 3)});
  by_kind.add_row({"batch pass", "-", std::to_string(batch_events),
                   util::fmt(batch.seconds, 3)});
  util::TextTable kernel({"each origination alone", "fixpoint seconds",
                          "ns per event", "process events"});
  kernel.add_row({"chosen (converge_cold)",
                  util::fmt(cold_fixpoint.seconds, 3),
                  util::fmt(ns_per_event(cold_fixpoint.seconds,
                                         cold_fixpoint.events),
                            1),
                  std::to_string(cold_fixpoint.events)});
  kernel.add_row({"exact (converge_exact)",
                  util::fmt(exact_fixpoint.seconds, 3),
                  util::fmt(ns_per_event(exact_fixpoint.seconds,
                                         exact_fixpoint.events),
                            1),
                  std::to_string(exact_fixpoint.events)});
  std::cout << table.render("run_simulation wall clock by thread count")
            << "\n"
            << by_kind.render("the batch runner by kind of run: one "
                              "range, threads=1, nothing recorded")
            << "\n"
            << kernel.render("fixpoint alone, in both orders: threads=1, "
                             "nothing recorded")
            << "\n"
            << (counters_match
                    ? "counters and artifact digests identical across all "
                      "thread counts; batch pass events match, no wave "
                      "discarded\n"
                    : "COUNTER OR DIGEST MISMATCH ACROSS THREAD COUNTS OR "
                      "THE BATCH PASS\n")
            << "seed per-event engine (compute_prefix_reference): "
            << util::fmt(reference_seconds, 3) << "s -> flat core "
            << util::fmt(base_seconds, 3) << "s at threads=1 ("
            << util::fmt(flat_speedup, 2) << "x)"
            << (reference_match
                    ? "; tables identical, exact-order events match\n"
                    : " — REFERENCE TABLE OR COUNTER MISMATCH\n");
  if (hw < 4) {
    std::cout << "note: only " << hw
              << " hardware thread(s) available; speedup is bounded by the "
                 "host, not the engine\n";
  }
  return ok ? 0 : 1;
}
