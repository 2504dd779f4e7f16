// Staged experiment API: the paper's workflow as composable pipeline
// stages with value-typed, independently reusable artifacts.
//
//   Synthesize ──► Simulate ──► Observe ──► Infer ──► Analyze
//   GroundTruth    SimArtifact  Observations InferenceProducts AnalysisSuite
//
// Each stage is a pure function of the scenario plus its upstream
// artifact(s); each artifact is an immutable value the next stage consumes
// or a caller swaps independently — e.g. re-run Infer with different
// GaoParams against cached Observations, or fan many Analyze runs off one
// SimArtifact.  `Experiment` drives the stages lazily with memoized
// artifacts and stage-run counters; `sweep` runs many scenario/parameter
// variants sharded across the util/parallel pool with stage-level caching
// keyed by the upstream-relevant scenario parameters and a deterministic
// request-order merge.
//
// Determinism contract (docs/ARCHITECTURE.md): every stage honors the
// shared `threads` knob (0 = hardware concurrency, 1 = sequential) with
// byte-identical artifacts at any value, so caching and sweep sharding
// never change any product.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asrel/gao_inference.h"
#include "core/analysis_suite.h"
#include "core/experiment_view.h"
#include "core/scenario.h"
#include "util/parallel.h"

namespace bgpolicy::core {

class ArtifactStore;  // core/artifact_store.h

// ---------------------------------------------------------------- stages --

enum class Stage : std::uint8_t {
  kSynthesize = 0,
  kSimulate = 1,
  kObserve = 2,
  kInfer = 3,
  kAnalyze = 4,
};

[[nodiscard]] const char* to_string(Stage stage);

/// One span of a task-graph node's execution — bench/diagnostic
/// instrumentation (bench_pipeline_stages computes stage-overlap windows
/// from these).  Times are seconds since StageTrace::origin.
struct TraceSpan {
  std::string name;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Thread-safe trace sink an Experiment writes node spans into when
/// RunOptions::trace points at one.  Purely diagnostic: wall-clock spans
/// are (like all timings) outside the determinism contract.
struct StageTrace {
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  std::mutex mutex;
  std::vector<TraceSpan> spans;

  void record(std::string name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);
};

/// Unifies the knobs every stage runner takes: the worker-thread count and
/// how far down the stage chain to run.
struct RunOptions {
  /// Overrides scenario.propagation.threads for every stage when set
  /// (same semantics: 0 = hardware concurrency, 1 = sequential).
  std::optional<std::size_t> threads;
  /// Inference parameters for the Infer stage; GaoParams{} (with the
  /// effective thread count) when unset.
  std::optional<asrel::GaoParams> gao;
  /// Vantages for the Analyze stage; every recorded vantage when empty.
  std::vector<AsNumber> analysis_vantages;
  /// Last stage Experiment::run() executes.
  Stage until = Stage::kAnalyze;
  /// On-disk artifact cache (core/artifact_store.h), non-owning; must
  /// outlive the experiment.  When set, every stage probes the store
  /// before computing (a hit bumps loads(), not counters()) and persists
  /// its artifact after computing.  Keys chain scenario_cache_key, the
  /// upstream artifact digests, and stage parameters — never worker-thread
  /// knobs, preserving the byte-identical-at-any-thread-count contract —
  /// so a second process over the same store resumes instead of re-running
  /// (docs/ARCHITECTURE.md "Artifact store").
  ArtifactStore* store = nullptr;
  /// Originations per Simulate chunk task (0 = auto, aiming at ~32
  /// near-equal chunks).  Chunk boundaries are deterministic in
  /// (origination count, this knob) alone — never in thread counts — so a
  /// killed run resumes mid-Simulate at any thread setting; the merged
  /// SimArtifact is byte-identical at every value.
  std::size_t sim_chunk_prefixes = 0;
  /// Optional node-span trace sink (non-owning; must outlive the
  /// experiment).  See StageTrace.
  StageTrace* trace = nullptr;
};

// -------------------------------------------------------------- artifacts --

/// Synthesize: the ground truth the paper could not see.
struct GroundTruth {
  topo::Topology topo;
  topo::PrefixPlan plan;
  sim::GeneratedPolicies gen;
  std::vector<sim::Origination> originations;
};

/// Simulate: converged vantage tables plus the spec that recorded them.
struct SimArtifact {
  sim::VantageSpec vantage;
  sim::SimResult sim;
};

/// One persisted slice of the Simulate stage: the vantage recordings of
/// originations [begin, end) out of `total`.  Chunks are the unit the
/// staged task graph schedules in parallel and the artifact store persists
/// individually, so a killed run resumes *mid-Simulate* — a restarted
/// process recomputes only the chunks that never hit disk
/// (sim::run_simulation over the chunk's slice computes one,
/// sim::merge_sim_chunk replays them in range order into a byte-identical
/// SimResult).
struct SimChunk {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t total = 0;
  sim::SimResult partial;
};

/// Deterministic Simulate chunk boundaries for `n` originations:
/// contiguous ranges of `chunk_prefixes` originations each (0 = auto: n
/// split toward ~32 near-equal chunks).  Depends only on (n,
/// chunk_prefixes) — never on thread counts — so chunk store keys are
/// stable across resume runs at any threading.
[[nodiscard]] std::vector<util::IndexRange> sim_chunk_ranges(
    std::size_t n, std::size_t chunk_prefixes);

/// Store key of one Simulate chunk: scenario identity + GroundTruth
/// digest + the chunk's range within the origination list.  Exposed so
/// tests and tools can reconstruct (or erase) the exact mid-stage resume
/// state an interrupted run leaves behind.
[[nodiscard]] std::string sim_chunk_store_key(std::string_view scenario_key,
                                              std::string_view truth_digest,
                                              util::IndexRange range,
                                              std::size_t total);

/// Observe: everything the paper *had* — the observed path set (cleaned
/// and ready for relationship inference), the path index over it, and the
/// registry — all parameter-free w.r.t. inference, so one Observations
/// serves any number of Infer variants.
struct Observations {
  /// Looking glasses in ascending AS order: the canonical ingest order.
  std::vector<AsNumber> lg_order;
  std::string irr_text;
  std::vector<rpsl::AutNum> irr_objects;
  /// Ingested path multiset (collector first, then each looking glass in
  /// lg_order with the vantage AS prepended); `infer(params)` on it is
  /// const and reusable.
  asrel::GaoInference observed_paths;
  PathIndex paths;

  /// The AutNum registered for `as`, if the IRR has one.
  [[nodiscard]] const rpsl::AutNum* irr_for(AsNumber as) const;
};

/// Infer: the relationship products of Section 3.
struct InferenceProducts {
  asrel::InferredRelationships inferred;
  topo::AsGraph inferred_graph;
  asrel::TierAssignment tiers;
};

// (Analyze's artifact is core::AnalysisSuite, analysis_suite.h.)

// ---------------------------------------------------------- stage runners --
// Pure, freestanding stage functions — the composable layer `Experiment`
// is assembled from.  `threads` follows the shared knob semantics; every
// output is byte-identical at any value.

[[nodiscard]] GroundTruth synthesize(const Scenario& scenario);

/// The canonical vantage configuration: collector peers are the Tier-1s
/// plus the scenario's leading Tier-2/Tier-3 ASes, looking glasses and
/// best-only views filtered to ASes present in the topology.
[[nodiscard]] sim::VantageSpec derive_vantage(const Scenario& scenario,
                                              const topo::Topology& topo);

[[nodiscard]] SimArtifact simulate(const Scenario& scenario,
                                   const GroundTruth& truth,
                                   std::size_t threads,
                                   const util::Executor* executor = nullptr);

[[nodiscard]] Observations observe(const Scenario& scenario,
                                   const GroundTruth& truth,
                                   const SimArtifact& sim,
                                   std::size_t threads,
                                   const util::Executor* executor = nullptr);

[[nodiscard]] InferenceProducts infer_relationships(
    const Observations& observations, const asrel::GaoParams& params,
    const util::Executor* executor = nullptr);

/// Analyze is run_analysis_suite (analysis_suite.h) over a view assembled
/// from the artifacts:
[[nodiscard]] ExperimentView make_view(const SimArtifact& sim,
                                       const Observations& observations,
                                       const InferenceProducts& inference);

// -------------------------------------------------------------- experiment --

/// How many times each stage actually executed — the cache-verification
/// hook for artifact-reuse tests and sweeps.
struct StageCounters {
  std::size_t synthesize = 0;
  std::size_t simulate = 0;
  std::size_t observe = 0;
  std::size_t infer = 0;
  std::size_t analyze = 0;
};

/// The Simulate-chunk ledger of one Experiment: how many chunk tasks the
/// task graph scheduled, and of those how many were computed vs. served
/// from the store — the mid-Simulate resume assertion hook
/// (tests/core/artifact_store_test.cc).  All zero when Simulate was served
/// whole (full-artifact store hit).
struct SimChunkLedger {
  std::size_t total = 0;
  std::size_t computed = 0;
  std::size_t loaded = 0;
};

/// Lazily-staged experiment with memoized artifacts.  Accessors run the
/// requested stage (and everything upstream of it) on first use; re-running
/// a downstream stage with new parameters reuses every cached upstream
/// artifact.  Not thread-safe for concurrent mutation; a fully-run
/// Experiment is safe to read from many threads.
class Experiment {
 public:
  explicit Experiment(Scenario scenario, RunOptions options = {});

  /// Runs stages up to options.until (run()) or `until` (run(until)).
  void run() { run(options_.until); }
  void run(Stage until);

  // Artifact accessors; each runs its stage (and upstream) if not cached.
  const GroundTruth& truth();
  const SimArtifact& sim();
  const Observations& observations();
  const InferenceProducts& inference();
  const AnalysisSuite& analyses();

  // Read-only accessors for already-materialized artifacts (throws
  // std::logic_error when the stage has not run).
  [[nodiscard]] const GroundTruth& truth() const;
  [[nodiscard]] const SimArtifact& sim() const;
  [[nodiscard]] const Observations& observations() const;
  [[nodiscard]] const InferenceProducts& inference() const;
  [[nodiscard]] const AnalysisSuite& analyses() const;

  /// Re-runs Infer with new parameters against the cached Observations
  /// (upstream stages are NOT re-run); drops any cached Analyze artifact.
  const InferenceProducts& rerun_infer(const asrel::GaoParams& params);

  /// Swaps in an externally built artifact (e.g. deserialized tables or a
  /// modified registry) and invalidates everything downstream of it.
  void set_observations(Observations observations);

  /// Drops the artifact of `stage` and every stage after it; the next
  /// accessor re-runs them.
  void invalidate(Stage from);

  /// Handles into a task graph the upstream stages were appended to:
  /// `sim_done` / `observe_done` are the nodes after which sim() /
  /// observations() and their stage digests are materialized (empty when
  /// the artifact already existed, so nothing was appended for it).
  struct UpstreamNodes {
    std::optional<util::TaskGraph::NodeId> sim_done;
    std::optional<util::TaskGraph::NodeId> observe_done;
  };

  /// Appends this experiment's not-yet-materialized upstream stages
  /// (Synthesize/Simulate/Observe, clamped by `until`) to `graph` as task
  /// nodes with sub-stage granularity.  With a store attached, a load node
  /// reads the stored SimArtifact and takes its digest, and the decode
  /// runs beside the Observe probe keyed on that digest (a failed decode
  /// discards the digest and any Observe hit taken on it).  On a miss
  /// Simulate fans out into per-prefix-shard chunk tasks (individually
  /// persisted when a store is attached — the mid-Simulate resume unit),
  /// each merged in range order as soon as it and every earlier chunk are
  /// done, and a persist node stores the merged artifact.  Observe splits
  /// into IRR-generation → IRR-parsing and path-ingest / path-index nodes
  /// that overlap with each other, with late Simulate chunks and with the
  /// Simulate persist.  Stage internals run sequentially inside their
  /// nodes (the graph is the parallelism), which never changes artifact
  /// bytes.  The orchestration
  /// hook `core::sweep` uses to interleave many experiments' graphs on one
  /// executor; `this` must outlive the graph run, and the graph must run
  /// to completion before any artifact accessor is used.
  UpstreamNodes add_stage_nodes(util::TaskGraph& graph, Stage until);

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }
  [[nodiscard]] const RunOptions& options() const { return options_; }
  [[nodiscard]] const StageCounters& counters() const { return counters_; }
  /// The Simulate-chunk ledger (see SimChunkLedger).
  [[nodiscard]] const SimChunkLedger& sim_chunks() const {
    return sim_chunks_;
  }
  /// How many times each stage's artifact was loaded from the store
  /// instead of computed (always zero without a store).  counters() +
  /// loads() together account for every stage materialization.
  [[nodiscard]] const StageCounters& loads() const { return loads_; }
  /// Store digest (core::store_digest_hex) of a stage's encoded artifact —
  /// the value downstream cache keys chain on.  Empty when the stage has not materialized with
  /// a store attached.
  [[nodiscard]] const std::string& stage_digest(Stage stage) const {
    return digests_[static_cast<std::size_t>(stage)];
  }
  /// The effective worker-thread knob every stage runs with.
  [[nodiscard]] std::size_t threads() const {
    return scenario_.propagation.threads;
  }

  /// Non-owning analysis view over the Simulate/Observe/Infer artifacts
  /// (runs them if needed); `this` must outlive the view.
  [[nodiscard]] ExperimentView view();
  /// The same view over already-materialized artifacts (throws
  /// std::logic_error when a stage has not run).
  [[nodiscard]] ExperimentView view() const;

  /// The staged artifacts of an experiment, moved out wholesale for a
  /// long-lived consumer — the serving layer's snapshot builder
  /// (serve/snapshot.h) takes a fully-run experiment's products without
  /// copying multi-hundred-MB tables.  Each slot is set iff its stage had
  /// materialized; the experiment is left empty (every stage invalidated).
  struct StageArtifacts {
    std::optional<GroundTruth> truth;
    std::optional<SimArtifact> sim;
    std::optional<Observations> observations;
    std::optional<InferenceProducts> inference;
    std::optional<AnalysisSuite> analyses;
  };
  [[nodiscard]] StageArtifacts take_artifacts() &&;

 private:
  struct UpstreamScratch;  // per-graph-run staging state (experiment.cc)

  [[nodiscard]] asrel::GaoParams effective_gao_params() const;
  /// The experiment's long-lived worker pool, created once (lazily) and
  /// shared by every stage — the task graph schedules on it and Infer/
  /// Analyze shard their internals over it; stage internals never spin
  /// private pools.
  [[nodiscard]] const util::Executor& executor();
  /// Store-key material for a stage (empty store handled by callers); see
  /// RunOptions::store for the key discipline.
  [[nodiscard]] std::string stage_key_material(
      Stage stage, const asrel::GaoParams& gao) const;
  [[nodiscard]] std::string& digest_slot(Stage stage) {
    return digests_[static_cast<std::size_t>(stage)];
  }
  /// Materializes upstream stages (≤ kObserve) through a task graph on
  /// this experiment's executor; a sequential executor runs its nodes in
  /// program order.
  void run_upstream(Stage until);
  /// Probes the store for the whole Observations artifact (decoding it, so
  /// corruption stays a miss) into the scratch, unpublished; requires
  /// upstream digests to be known.
  void probe_observe(UpstreamScratch& scratch);
  /// The Simulate task-graph body: probe/compute/persist chunk tasks
  /// nested-submitted into `graph`, each merged in range order as soon as
  /// it and every earlier chunk are done.
  void simulate_in_chunks(util::TaskGraph& graph, UpstreamScratch& scratch);
  /// The simulate.persist node body: stores the merged SimArtifact, then
  /// drops its chunks' pins and (once it is stored) their entries.
  void persist_sim(UpstreamScratch& scratch);
  /// Wraps a node body with StageTrace recording when enabled.
  template <typename Fn>
  void traced(const char* name, Fn&& fn);

  Scenario scenario_;
  RunOptions options_;
  StageCounters counters_;
  StageCounters loads_;
  SimChunkLedger sim_chunks_;
  std::array<std::string, 5> digests_;
  std::unique_ptr<util::Executor> executor_;
  std::optional<GroundTruth> truth_;
  std::optional<SimArtifact> sim_;
  std::optional<Observations> observations_;
  std::optional<InferenceProducts> inference_;
  std::optional<AnalysisSuite> analyses_;
};

// ------------------------------------------------------------------ sweep --

/// One scenario/parameter variant of a sweep.
struct SweepVariant {
  std::string label;
  Scenario scenario;
  /// Per-variant inference/analysis knobs.  `options.threads` is ignored
  /// inside sweeps (stage-internal threading is forced to 1; the sweep
  /// `threads` argument is the parallelism knob) and `options.until` is
  /// always treated as kAnalyze.
  RunOptions options;
};

/// One finished variant, in request order.
struct SweepRun {
  std::string label;
  /// Upstream cache key this variant resolved to (diagnostics; equal keys
  /// shared one Synthesize/Simulate/Observe execution).
  std::string scenario_key;
  /// Index into SweepReport::upstream of the shared artifacts this run
  /// consumed.
  std::size_t scenario_index = 0;
  InferenceProducts inference;
  AnalysisSuite analyses;
  /// Store keys this run's Infer/Analyze artifacts live under (empty when
  /// the sweep ran without a store) — the handle for invalidating one
  /// variant (ArtifactStore::erase) without touching its siblings.  The
  /// infer key excludes the vantage list, so variants differing only in
  /// analysis vantages share one InferenceProducts entry.
  std::string store_infer_key;
  std::string store_analyze_key;
  /// Which artifacts were served from the store rather than computed
  /// (each probes independently: an erased analyze entry recomputes only
  /// Analyze against the still-cached inference).
  bool inference_loaded = false;
  bool analyses_loaded = false;
  /// A full resume hit: nothing was computed for this variant.
  [[nodiscard]] bool loaded_from_store() const {
    return inference_loaded && analyses_loaded;
  }
  /// Position in the sweep's *completion* stream: variant results finish
  /// as their graph nodes complete (no all-variants barrier), and this
  /// records the order they streamed in.  Diagnostic only — like
  /// wall-clock it is outside the determinism contract (at threads == 1
  /// it equals the request order; under parallelism it varies run to
  /// run).  The report itself is still merged in request order.
  std::size_t completion_index = 0;
};

struct SweepReport {
  /// One run per variant, merged in request order.
  std::vector<SweepRun> runs;
  /// The shared upstream experiments (run through Observe), one per
  /// distinct scenario in first-appearance order — runs reference them via
  /// scenario_index, and callers can read ground truth / simulation
  /// artifacts from them (e.g. to score inference accuracy).
  std::vector<std::unique_ptr<Experiment>> upstream;
  /// Actual stage executions across the whole sweep: synthesize/simulate/
  /// observe count distinct upstream scenarios, infer/analyze count
  /// variants — the artifact-reuse ledger.
  StageCounters counters;
  /// Stage artifacts served from the store instead of executing (always
  /// zero without a store): the cross-process resume ledger.  For every
  /// stage, counters + loads equals what an uncached sweep would execute.
  StageCounters loads;
  std::size_t distinct_scenarios = 0;
};

/// The upstream cache identity of a scenario: every parameter that feeds
/// the Synthesize/Simulate/Observe artifacts, serialized stably.  Worker
/// thread counts are deliberately excluded (they never change artifact
/// bytes), so variants differing only in threading share upstream work.
[[nodiscard]] std::string scenario_cache_key(const Scenario& scenario);

/// Runs every variant's full stage chain with upstream artifacts built
/// once per distinct scenario_cache_key and shared across variants.
/// Every variant's stages are submitted into **one task graph on one
/// executor** (util::TaskGraph): upstream scenarios build concurrently
/// with sub-stage granularity (Simulate chunk tasks, overlapped Observe
/// nodes), each variant's Infer/Analyze nodes start the moment their
/// group's upstream nodes finish (no per-variant or per-phase barrier),
/// and results stream into their request-order slots as they complete
/// (SweepRun::completion_index records the streaming order).  The merged
/// report is byte-identical at any `threads` (0 = hardware concurrency).
///
/// With a `store`, the sweep resumes across processes: upstream stages and
/// per-variant Infer/Analyze artifacts are probed before computing and
/// persisted after, so a killed sweep re-run against the same store loads
/// what finished and recomputes only the missing variants — with products
/// byte-identical to an uninterrupted run (the store never changes bytes,
/// only who computes them).  `store` is non-owning and must outlive the
/// call.
[[nodiscard]] SweepReport sweep(std::span<const SweepVariant> variants,
                                std::size_t threads = 0,
                                ArtifactStore* store = nullptr);

}  // namespace bgpolicy::core
