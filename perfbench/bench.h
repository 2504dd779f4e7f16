// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, the in-memory span tracer, and small
// statistics helpers.
//
// The benchmark measures the library from the outside: every span it
// records wraps a call into one module's public functions (core::,
// sim::, asrel::, io::, serve::), so the library itself carries no
// benchmark instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window in seconds.
  double seconds = 10.0;
  bool trace = false;
  /// Scenario::small and tiny lengths: the smoke test's configuration.
  bool small = false;
  /// Flips one byte of one expected serve reply, so the smoke test can
  /// prove that a wrong reply is counted as a failed operation.
  bool corrupt_expected = false;
  /// CPUs this process may run on; every thread knob is bounded by it.
  std::size_t nproc = 1;
  /// Scratch directory for artifact stores and the trace file.
  std::filesystem::path work_dir;
  /// Recorded reference digests: the fixed world's analyses, and the
  /// watched tables per churn flip schedule (empty or absent = not
  /// recorded; the workload then computes its reference in-process).
  std::string expect_analyses;
  std::map<std::uint64_t, std::string> expect_watched;

  /// The one world every workload runs on: the generator's default
  /// Scenario::internet2002(), or Scenario::small() for the smoke test,
  /// with the stage thread knob set to nproc.  Costs follow the generated
  /// world, which moves the cold pipeline by a fifth and churn stepping by
  /// a third between worlds, against a twentieth between runs on one
  /// world; so the seed drives only churn's flip schedules
  /// (ChurnParams::seed) and the serve request catalog and schedule.
  [[nodiscard]] bgpolicy::core::Scenario scenario() const;
};

/// What one workload pass reports: operations attempted and failed (a
/// wrong output is a failed operation) and named metrics with units.
struct Record {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one attempted operation; a false `ok` counts it failed and
  /// keeps the first few descriptions for the log.
  void check(bool ok, const std::string& what);
};

// ------------------------------------------------------------------ tracer --

/// One recorded interval: `layer` is the module whose public function the
/// span wraps; `request` ties a serve request's spans together.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
};

/// In-memory span recorder.  Spans nest through a per-thread stack of open
/// spans; they are kept in memory and written out once, at the end.
class Tracer {
 public:
  Tracer();

  /// Opens a span under the calling thread's innermost open span.
  std::uint64_t begin(std::string name, std::string layer,
                      std::uint64_t request = 0);
  void end(std::uint64_t id);
  /// Records an already-measured interval (used for client-side request
  /// spans, whose start is the request's due time).
  void add(std::string name, std::string layer, Clock::time_point start,
           Clock::time_point end, std::uint64_t parent,
           std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_json(const std::filesystem::path& path) const;

  /// Self time per layer over the spans under `root` (inclusive): the
  /// union of its spans' intervals minus the parts their children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
      std::uint64_t root) const;
  /// Part of `root`'s interval that none of its direct children cover.
  [[nodiscard]] double uncovered_seconds(std::uint64_t root) const;
  [[nodiscard]] double duration(std::uint64_t id) const;

  /// RAII span.  A null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer,
          std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), std::move(layer),
                                     request)
                     : 0) {}
    ~Scope() { close(); }
    /// Ends the span early (idempotent).
    void close() {
      if (tracer_ != nullptr) tracer_->end(id_);
      tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::uint64_t id_;
  };

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index = id - 1
};

// ------------------------------------------------------------------ stats --

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// -------------------------------------------------------------- workloads --
// Each untraced pass fills the workload's end-to-end metrics; each traced
// pass records spans under one root span and fills per-layer metrics.

void pipeline_workload(const Options& options, Record& record);
void churn_workload(const Options& options, Record& record);
void serve_workload(const Options& options, bool mixed, Record& record);

void pipeline_traced(const Options& options, Tracer& tracer, Record& record);
void churn_traced(const Options& options, Tracer& tracer, Record& record);
/// Traces both serve workloads over one set-up (they share a snapshot).
void serve_traced(const Options& options, Tracer& tracer, Record& record);

/// The watched-table digest of the cold reference (ChurnParams::incremental
/// = false) on flip schedule `schedule` (ChurnParams::seed) after a study's
/// fixed number of steps.
[[nodiscard]] std::string churn_cold_reference(const Options& options,
                                               std::uint64_t schedule);
/// The analyses digest of a threads=1 cold pipeline run on the world.
[[nodiscard]] std::string pipeline_reference(const Options& options);

/// Folds a layer's self time and the root's unaccounted share into
/// `record` under `<prefix>.self_s.<layer>` / `<prefix>.unaccounted_share`.
void report_layers(const Tracer& tracer, std::uint64_t root,
                   const std::string& prefix, Record& record);

}  // namespace perfbench
