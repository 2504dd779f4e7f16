// Artifact-store bench (ISSUE 4): per staged artifact type, how expensive
// is computing the stage versus serializing, deserializing, and loading it
// back from the on-disk store?  The load-vs-recompute ratio is the number
// that justifies the store: simulate dominates staged wall-clock
// (~93% in BENCH_2026-07-30_pr3.json), so serving SimArtifact from disk is
// the resume win.
//
// Every artifact is round-tripped (encode -> decode -> re-encode) and the
// bytes compared — the same content-purity contract the cache keys chain
// on; a mismatch fails the bench (exit 1), wiring codec fidelity into the
// tracked trajectory like the other benches' determinism checks.
//
// Each artifact row also counts the heap allocations of its decode
// (`decode_allocations`, bgpolicy-bench/v12): this binary replaces the
// global operator new with a counting one.  `hash_seconds`
// (bgpolicy-bench/v15) is a load's hashing alone — io::CheckedArtifact's
// store digest and frame checksum, fastest of kHashRuns — so a load splits
// into reading, hashing and decoding.
//
// The `resume` rows time a store-resumed Experiment
// through Analyze at one thread and at hardware_concurrency (one row on a
// one-CPU host), with spans of its StageTrace: simulate.load (the read and
// the hashing that yields the digest and the frame check),
// simulate.decode, observe.probe, and the overlap of the decode and the
// probe — the resume graph decodes the SimArtifact beside the Observe
// probe.  A resume that computes any stage, or whose stage digests differ
// from the run that filled the store, fails the bench.
//
// Flags:
//   --small   use the `small` scenario (CI-sized, seconds not minutes)
//   --json    emit a single JSON object on stdout (for scripts/bench.sh)
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"
#include "util/text_table.h"

namespace {

/// Every operator new call in this process (operator new[] forwards to
/// operator new in libstdc++).
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bgpolicy;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  std::string artifact;
  std::size_t bytes = 0;
  double compute_seconds = 0;
  double encode_seconds = 0;
  double decode_seconds = 0;
  std::uint64_t decode_allocations = 0;  ///< operator new calls in decode
  /// io::CheckedArtifact's hashing alone, fastest of kHashRuns.
  double hash_seconds = 0;
  double load_seconds = 0;  ///< store read + decode
  double load_speedup = 0;  ///< compute / load
};

struct ResumeRow {
  std::size_t threads = 0;
  double wall_seconds = 0;  ///< fastest of kResumeRuns
  /// Spans of that run's StageTrace: the SimArtifact read and hashing,
  /// its decode, the Observe probe (read, hashing and decode of the
  /// Observations entry) and the time the decode and the probe ran at once.
  double sim_load_seconds = 0;
  double sim_decode_seconds = 0;
  double observe_probe_seconds = 0;
  double overlap_seconds = 0;
};

constexpr int kResumeRuns = 3;
constexpr int kHashRuns = 5;
constexpr std::array<core::Stage, 5> kStages = {
    core::Stage::kSynthesize, core::Stage::kSimulate, core::Stage::kObserve,
    core::Stage::kInfer, core::Stage::kAnalyze};

const core::TraceSpan* find_span(const core::StageTrace& trace,
                                 const std::string& name) {
  for (const core::TraceSpan& span : trace.spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

/// Resumes `scenario` from `store` through Analyze kResumeRuns times at
/// `threads`; false when a run computed a stage, lacks a span, or a stage
/// digest differs from `digests`.
bool bench_resume(const core::Scenario& scenario, core::ArtifactStore& store,
                  std::size_t threads,
                  const std::array<std::string, 5>& digests, ResumeRow& row) {
  row.threads = threads;
  for (int run = 0; run < kResumeRuns; ++run) {
    core::StageTrace trace;
    core::RunOptions options;
    options.threads = threads;
    options.store = &store;
    options.trace = &trace;
    const auto start = std::chrono::steady_clock::now();
    trace.origin = start;
    core::Experiment experiment(scenario, options);
    experiment.run();
    const double wall = seconds_since(start);

    const core::StageCounters& computed = experiment.counters();
    if (computed.synthesize + computed.simulate + computed.observe +
            computed.infer + computed.analyze !=
        0) {
      std::cerr << "resume at threads " << threads << " computed a stage\n";
      return false;
    }
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      if (experiment.stage_digest(kStages[s]) != digests[s]) {
        std::cerr << "resume at threads " << threads << ": "
                  << core::to_string(kStages[s]) << " digest differs\n";
        return false;
      }
    }
    const core::TraceSpan* load = find_span(trace, "simulate.load");
    const core::TraceSpan* decode = find_span(trace, "simulate.decode");
    const core::TraceSpan* probe = find_span(trace, "observe.probe");
    if (load == nullptr || decode == nullptr || probe == nullptr) {
      std::cerr << "resume trace lacks the load, decode or probe span\n";
      return false;
    }
    if (run == 0 || wall < row.wall_seconds) {
      row.wall_seconds = wall;
      row.sim_load_seconds = load->end_seconds - load->start_seconds;
      row.sim_decode_seconds = decode->end_seconds - decode->start_seconds;
      row.observe_probe_seconds = probe->end_seconds - probe->start_seconds;
      row.overlap_seconds = std::max(
          0.0, std::min(decode->end_seconds, probe->end_seconds) -
                   std::max(decode->start_seconds, probe->start_seconds));
    }
  }
  return true;
}

/// Benches one artifact: encode/decode timings, the load's hashing alone,
/// store write, then a timed load (read + decode).  Returns false when the
/// roundtrip is not byte-pure or the frame does not check.
template <typename T, typename DecodeFn>
bool bench_artifact(const core::ArtifactStore& store, const std::string& key,
                    const T& artifact, double compute_seconds,
                    DecodeFn&& decode, Row& row) {
  auto start = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> bytes = io::encode(artifact);
  row.encode_seconds = seconds_since(start);
  row.bytes = bytes.size();
  row.compute_seconds = compute_seconds;

  const std::uint64_t allocations_before = g_allocations.load();
  start = std::chrono::steady_clock::now();
  const T decoded = decode(std::span<const std::uint8_t>(bytes));
  row.decode_seconds = seconds_since(start);
  row.decode_allocations = g_allocations.load() - allocations_before;
  const bool pure = io::encode(decoded) == bytes;

  for (int run = 0; run < kHashRuns; ++run) {
    std::vector<std::uint8_t> copy = bytes;
    start = std::chrono::steady_clock::now();
    const io::CheckedArtifact checked(std::move(copy));
    const double seconds = seconds_since(start);
    if (!checked.checksum_matches()) return false;
    if (run == 0 || seconds < row.hash_seconds) row.hash_seconds = seconds;
  }

  if (!store.put(key, bytes)) {
    std::cerr << "artifact store write failed for " << key << " under "
              << store.root().string() << "\n";
    return false;
  }
  start = std::chrono::steady_clock::now();
  const auto loaded = store.load(key);
  if (!loaded) {
    std::cerr << "artifact store read-back failed for " << key << "\n";
    return false;
  }
  const T from_disk = decode(std::span<const std::uint8_t>(*loaded));
  row.load_seconds = seconds_since(start);
  row.load_speedup =
      row.load_seconds > 0 ? row.compute_seconds / row.load_seconds : 0;
  return pure && io::encode(from_disk) == bytes;
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
    std::cout << "[bench] artifact store on the " << scenario.name
              << " scenario (serialize / deserialize / load vs recompute "
                 "per stage artifact)...\n";
  }

  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      ("bgpolicy-bench-store-" + scenario.name);
  std::filesystem::remove_all(store_dir);
  core::ArtifactStore store(store_dir);

  // Stage the experiment once, timing each compute (threads = 1: the
  // sequential reference cost a cold store saves).
  core::RunOptions options;
  options.threads = 1;
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

  std::vector<Row> rows(5);
  bool roundtrip_ok = true;
  rows[0].artifact = "ground_truth";
  roundtrip_ok &= bench_artifact(
      store, "bench|truth", experiment.truth(), synthesize_seconds,
      [](std::span<const std::uint8_t> b) { return io::decode_ground_truth(b); },
      rows[0]);
  rows[1].artifact = "sim_artifact";
  roundtrip_ok &= bench_artifact(
      store, "bench|sim", experiment.sim(), simulate_seconds,
      [](std::span<const std::uint8_t> b) { return io::decode_sim_artifact(b); },
      rows[1]);
  rows[2].artifact = "observations";
  roundtrip_ok &= bench_artifact(
      store, "bench|obs", experiment.observations(), observe_seconds,
      [](std::span<const std::uint8_t> b) { return io::decode_observations(b); },
      rows[2]);
  rows[3].artifact = "inference_products";
  roundtrip_ok &= bench_artifact(
      store, "bench|infer", experiment.inference(), infer_seconds,
      [](std::span<const std::uint8_t> b) { return io::decode_inference(b); },
      rows[3]);
  rows[4].artifact = "analysis_suite";
  roundtrip_ok &= bench_artifact(
      store, "bench|analyses", experiment.analyses(), analyze_seconds,
      [](std::span<const std::uint8_t> b) {
        return io::decode_analysis_suite(b);
      },
      rows[4]);

  // Fill the store through a stored run at every core, then resume it.
  const unsigned hw = std::thread::hardware_concurrency();
  std::array<std::string, 5> digests;
  {
    core::RunOptions fill;
    fill.threads = std::max(1u, hw);
    fill.store = &store;
    core::Experiment cold(scenario, fill);
    cold.run();
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      digests[s] = cold.stage_digest(kStages[s]);
    }
  }
  std::vector<ResumeRow> resume_rows;
  bool resume_ok = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{hw}}) {
    if (threads <= (resume_rows.empty() ? 0 : resume_rows.back().threads)) {
      continue;
    }
    resume_rows.emplace_back();
    resume_ok &=
        bench_resume(scenario, store, threads, digests, resume_rows.back());
  }

  std::filesystem::remove_all(store_dir);
  const bool ok = roundtrip_ok && resume_ok;
  if (json) {
    std::cout << "{\"bench\":\"artifact_store\",\"scenario\":\""
              << scenario.name << "\",\"hardware_concurrency\":" << hw
              << ",\"roundtrip_ok\":" << (roundtrip_ok ? "true" : "false")
              << ",\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::cout << (i == 0 ? "" : ",") << "{\"artifact\":\"" << r.artifact
                << "\",\"bytes\":" << r.bytes
                << ",\"compute_seconds\":" << r.compute_seconds
                << ",\"encode_seconds\":" << r.encode_seconds
                << ",\"decode_seconds\":" << r.decode_seconds
                << ",\"decode_allocations\":" << r.decode_allocations
                << ",\"hash_seconds\":" << r.hash_seconds
                << ",\"load_seconds\":" << r.load_seconds
                << ",\"load_speedup\":" << r.load_speedup << "}";
    }
    std::cout << "],\"resume_ok\":" << (resume_ok ? "true" : "false")
              << ",\"resume\":[";
    for (std::size_t i = 0; i < resume_rows.size(); ++i) {
      const ResumeRow& r = resume_rows[i];
      std::cout << (i == 0 ? "" : ",") << "{\"threads\":" << r.threads
                << ",\"wall_seconds\":" << r.wall_seconds
                << ",\"sim_load_seconds\":" << r.sim_load_seconds
                << ",\"sim_decode_seconds\":" << r.sim_decode_seconds
                << ",\"observe_probe_seconds\":" << r.observe_probe_seconds
                << ",\"overlap_seconds\":" << r.overlap_seconds << "}";
    }
    std::cout << "]}" << std::endl;
    return ok ? 0 : 1;
  }

  std::cout << "== artifact store · serialize / load vs recompute ==\n"
            << "scenario " << scenario.name << " · hardware threads: " << hw
            << "\n\n";
  util::TextTable table({"artifact", "bytes", "compute", "encode", "decode",
                         "decode allocs", "hash", "load", "load speedup"});
  for (const Row& r : rows) {
    table.add_row({r.artifact, std::to_string(r.bytes),
                   util::fmt(r.compute_seconds, 3),
                   util::fmt(r.encode_seconds, 3),
                   util::fmt(r.decode_seconds, 3),
                   std::to_string(r.decode_allocations),
                   util::fmt(r.hash_seconds, 4),
                   util::fmt(r.load_seconds, 3),
                   util::fmt(r.load_speedup, 1) + "x"});
  }
  util::TextTable resume_table(
      {"threads", "resume", "sim load", "sim decode", "observe probe",
       "overlap"});
  for (const ResumeRow& r : resume_rows) {
    resume_table.add_row({std::to_string(r.threads),
                          util::fmt(r.wall_seconds, 3),
                          util::fmt(r.sim_load_seconds, 3),
                          util::fmt(r.sim_decode_seconds, 3),
                          util::fmt(r.observe_probe_seconds, 3),
                          util::fmt(r.overlap_seconds, 3)});
  }
  std::cout << table.render("per-artifact codec + store timings (seconds)")
            << "\n"
            << resume_table.render(
                   "store-resumed run through Analyze, fastest of " +
                   std::to_string(kResumeRuns) + " (seconds)")
            << "\n"
            << (roundtrip_ok
                    ? "every artifact round-trips byte-identically\n"
                    : "ROUNDTRIP MISMATCH: codec is not content-pure\n")
            << (resume_ok
                    ? "every resume loaded every stage with the filled "
                      "store's digests\n"
                    : "RESUME MISMATCH: a resume computed a stage or "
                      "changed a digest\n");
  return ok ? 0 : 1;
}
