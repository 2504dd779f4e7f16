#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/artifact_store.h"
#include "io/artifact_codec.h"
#include "rpsl/generator.h"
#include "rpsl/parser.h"
#include "sim/flat_engine.h"
#include "util/parallel.h"

namespace bgpolicy::core {

void StageTrace::record(std::string name,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  const std::lock_guard<std::mutex> lock(mutex);
  spans.push_back({std::move(name),
                   std::chrono::duration<double>(start - origin).count(),
                   std::chrono::duration<double>(end - origin).count()});
}

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kSynthesize: return "synthesize";
    case Stage::kSimulate: return "simulate";
    case Stage::kObserve: return "observe";
    case Stage::kInfer: return "infer";
    case Stage::kAnalyze: return "analyze";
  }
  return "?";
}

// ------------------------------------------------------------ key helpers --

namespace {

/// Every artifact key starts with the codec version, so a codec bump
/// retires the whole cache at the key level too (stale entries would be
/// rejected by the header check anyway — this just avoids probing them).
const std::string kKeyPrefix =
    "bgpolicy-artifact/v" + std::to_string(io::kArtifactCodecVersion) + "|";

/// Store key of an Analyze artifact: the Simulate, Observe and Infer
/// digests it reads and the requested vantages (empty = every recorded
/// one).  Experiment and sweep variants share it.
std::string analyze_store_key(std::string_view sim_digest,
                              std::string_view observe_digest,
                              std::string_view infer_digest,
                              std::span<const AsNumber> vantages) {
  std::string key = kKeyPrefix;
  key += to_string(Stage::kAnalyze);
  key += '|';
  key += sim_digest;
  key += '|';
  key += observe_digest;
  key += '|';
  key += infer_digest;
  key += '|';
  key += "vantages=";
  for (const AsNumber as : vantages) {
    key += std::to_string(as.value());
    key += ',';
  }
  key += ';';
  return key;
}

/// The one store probe every stage, Simulate chunk, and sweep variant
/// runs: maps `key`, hashes the entry once for its store digest and frame
/// checksum (io::CheckedArtifact), and decodes it.  A load failure
/// of any flavor — missing file, truncation, corruption, codec-version
/// mismatch — is a miss, never an error (artifact_codec.h).  On a hit
/// `digest_out`, when given, receives the store digest of the stored
/// bytes (what downstream keys chain on).
template <typename T>
std::optional<T> probe_store(const ArtifactStore* store,
                             const std::string& key,
                             T (*decode)(const io::CheckedArtifact&),
                             std::string* digest_out = nullptr) {
  if (store == nullptr) return std::nullopt;
  std::optional<MappedEntry> entry = store->map(key);
  if (!entry) return std::nullopt;
  const io::CheckedArtifact checked(std::move(*entry));
  try {
    T artifact = decode(checked);
    if (digest_out != nullptr) *digest_out = checked.digest();
    return artifact;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Encodes `artifact` and persists it under `key`, returning its store
/// digest; without a store nothing is written and the digest is empty.
/// `stored`, when given, reports whether the write succeeded (a failed
/// write still yields the digest of the encoded bytes).
template <typename T>
std::string persist(const ArtifactStore* store, const std::string& key,
                    const T& artifact, bool* stored = nullptr) {
  if (store == nullptr) return {};
  const std::vector<std::uint8_t> bytes = io::encode(artifact);
  const bool ok = store->put(key, bytes);
  if (stored != nullptr) *stored = ok;
  return store_digest_hex(bytes);
}

/// The probe-or-compute-and-persist discipline of a whole stage: a miss
/// runs `compute`, whose artifact replaces any bad entry.  `digest_out`
/// receives the artifact's store digest; `loaded` reports whether the
/// store served it.
template <typename T, typename ComputeFn>
T stage_artifact(const ArtifactStore* store, const std::string& key,
                 std::string& digest_out, bool& loaded,
                 T (*decode)(const io::CheckedArtifact&),
                 ComputeFn&& compute) {
  std::optional<T> hit = probe_store(store, key, decode, &digest_out);
  loaded = hit.has_value();
  if (loaded) return std::move(*hit);
  T artifact = compute();
  digest_out = persist(store, key, artifact);
  return artifact;
}

}  // namespace

// ---------------------------------------------------------- stage runners --

namespace {

[[noreturn]] void scenario_error(const Scenario& scenario,
                                 const std::string& what) {
  throw std::invalid_argument("scenario '" + scenario.name + "': " + what);
}

/// Builds the Topology for an explicit world: ASes in declaration order,
/// edges in declaration order (AsGraph::add_* validate endpoints and
/// duplicates), tier lists from the declared tiers.
topo::Topology build_explicit_topology(const Scenario& scenario) {
  const ExplicitWorld& world = *scenario.explicit_world;
  if (world.ases.empty()) scenario_error(scenario, "explicit world has no ASes");
  topo::Topology topo;
  for (const ExplicitWorld::As& as : world.ases) {
    const AsNumber number(as.number);
    if (topo.graph.contains(number)) {
      scenario_error(scenario,
                     "explicit AS " + std::to_string(as.number) +
                         " declared twice");
    }
    topo.graph.add_as(number);
    topo.tier.emplace(number, as.tier);
    switch (as.tier) {
      case topo::Tier::kTier1: topo.tier1.push_back(number); break;
      case topo::Tier::kTier2: topo.tier2.push_back(number); break;
      case topo::Tier::kTier3: topo.tier3.push_back(number); break;
      case topo::Tier::kStub: topo.stubs.push_back(number); break;
    }
  }
  for (const ExplicitWorld::Link& link : world.links) {
    for (const std::uint32_t end : {link.a, link.b}) {
      if (!topo.graph.contains(AsNumber(end))) {
        scenario_error(scenario, "explicit link references undeclared AS " +
                                     std::to_string(end));
      }
    }
    if (link.peer) {
      topo.graph.add_peer_peer(AsNumber(link.a), AsNumber(link.b));
    } else {
      topo.graph.add_provider_customer(AsNumber(link.a), AsNumber(link.b));
    }
  }
  return topo;
}

/// The PrefixPlan of an explicit world: exactly the declared originations,
/// in declaration order (MOAS allowed: the same prefix may appear under
/// several origins).
topo::PrefixPlan build_explicit_plan(const Scenario& scenario,
                                     const topo::Topology& topo) {
  const ExplicitWorld& world = *scenario.explicit_world;
  topo::PrefixPlan plan;
  plan.prefixes.reserve(world.originations.size());
  for (const ExplicitWorld::Origination& o : world.originations) {
    const AsNumber origin(o.origin);
    if (!topo.graph.contains(origin)) {
      scenario_error(scenario, "origination " + o.prefix.to_string() +
                                   " references undeclared AS " +
                                   std::to_string(o.origin));
    }
    plan.add({o.prefix, origin, std::nullopt});
  }
  return plan;
}

/// Every AS id a scenario references must exist in the synthesized
/// topology.  Absent ids previously slipped through derive_vantage's
/// filter and silently yielded empty observations; now they are a
/// synthesize-time error naming the role and the id.  (A parsed spec of a
/// generated world has already passed the same check with positions.)
void validate_scenario_ases(const Scenario& scenario,
                            const topo::Topology& topo) {
  for_each_required_as(scenario, [&](const char* role, std::uint32_t as) {
    if (!topo.graph.contains(AsNumber(as))) {
      scenario_error(scenario, std::string(role) + " AS " +
                                   std::to_string(as) +
                                   " is not in the synthesized topology");
    }
  });
}

/// Applies the scenario's per-AS policy edits on top of the generated
/// policies, in declaration order.  Export overrides are inserted at the
/// *front* of the neighbor's rule list so they take precedence over any
/// generated rule for the same prefix.
void apply_overrides(const Scenario& scenario, sim::PolicySet& policies) {
  for (const PolicyOverride& o : scenario.overrides) {
    sim::AsPolicy& policy = policies.at_mut(AsNumber(o.as));
    const auto require_prefix = [&]() -> const bgp::Prefix& {
      if (!o.prefix) {
        scenario_error(scenario, "override on AS " + std::to_string(o.as) +
                                     " requires a prefix");
      }
      return *o.prefix;
    };
    const auto front_rule = [&](sim::ExportRule rule) {
      auto& rules = policy.export_.per_neighbor[AsNumber(o.neighbor)];
      rules.insert(rules.begin(), std::move(rule));
    };
    switch (o.kind) {
      case PolicyOverride::Kind::kPreferNeighbor:
        policy.import.neighbor_override[AsNumber(o.neighbor)] = o.value;
        break;
      case PolicyOverride::Kind::kPreferPrefix:
        policy.import.prefix_override[require_prefix()] = o.value;
        break;
      case PolicyOverride::Kind::kDeny: {
        sim::ExportRule rule;
        rule.prefix = o.prefix;
        rule.action = sim::ExportAction::kDeny;
        front_rule(std::move(rule));
        break;
      }
      case PolicyOverride::Kind::kPrepend: {
        sim::ExportRule rule;
        rule.prefix = o.prefix;
        rule.action = sim::ExportAction::kPrepend;
        rule.prepend_times = static_cast<std::uint8_t>(o.value);
        front_rule(std::move(rule));
        break;
      }
      case PolicyOverride::Kind::kConditional:
        policy.conditional.push_back(
            {require_prefix(), AsNumber(o.neighbor), AsNumber(o.watch)});
        break;
      case PolicyOverride::Kind::kTagging:
        policy.community.enabled = o.value != 0;
        break;
      case PolicyOverride::Kind::kNoExportUpstream: {
        sim::ExportRule rule;
        rule.prefix = o.prefix;
        rule.action = sim::ExportAction::kTagNoExportUpstream;
        front_rule(std::move(rule));
        break;
      }
    }
  }
}

}  // namespace

GroundTruth synthesize(const Scenario& scenario) {
  GroundTruth truth;
  if (scenario.explicit_world) {
    truth.topo = build_explicit_topology(scenario);
    truth.plan = build_explicit_plan(scenario, truth.topo);
  } else {
    truth.topo = topo::generate_topology(scenario.topo_params);
    truth.plan = topo::allocate_prefixes(truth.topo, scenario.alloc_params);
  }
  validate_scenario_ases(scenario, truth.topo);
  truth.gen =
      sim::generate_policies(truth.topo, truth.plan, scenario.policy_params);
  apply_overrides(scenario, truth.gen.policies);
  truth.originations = sim::all_originations(truth.plan, truth.gen);
  return truth;
}

sim::VantageSpec derive_vantage(const Scenario& scenario,
                                const topo::Topology& topo) {
  sim::VantageSpec vantage;
  // Collector peers are the Tier-1s plus leading Tier-2/Tier-3 ASes (the
  // paper's 56-peer Oregon view).
  for (const auto as : topo.tier1) vantage.collector_peers.push_back(as);
  for (std::size_t i = 0;
       i < std::min(scenario.collector_tier2_peers, topo.tier2.size()); ++i) {
    vantage.collector_peers.push_back(topo.tier2[i]);
  }
  for (std::size_t i = 0;
       i < std::min(scenario.collector_tier3_peers, topo.tier3.size()); ++i) {
    vantage.collector_peers.push_back(topo.tier3[i]);
  }
  for (const std::uint32_t as : scenario.looking_glass) {
    if (topo.graph.contains(AsNumber(as))) {
      vantage.looking_glass.emplace_back(as);
    }
  }
  for (const std::uint32_t as : scenario.best_only) {
    const AsNumber number(as);
    if (topo.graph.contains(number) &&
        std::find(vantage.looking_glass.begin(), vantage.looking_glass.end(),
                  number) == vantage.looking_glass.end()) {
      vantage.best_only.push_back(number);
    }
  }
  return vantage;
}

SimArtifact simulate(const Scenario& scenario, const GroundTruth& truth,
                     std::size_t threads, const util::Executor* executor) {
  SimArtifact artifact;
  artifact.vantage = derive_vantage(scenario, truth.topo);
  sim::PropagationOptions options = scenario.propagation;
  options.threads = threads;
  artifact.sim =
      sim::run_simulation(truth.topo.graph, truth.gen.policies,
                          truth.originations, artifact.vantage, options,
                          executor);
  return artifact;
}

// -------------------------------------------------------------- sim chunks --

namespace {

/// Auto chunking aims here: enough chunks for load balance and a useful
/// mid-stage resume grain, few enough that per-chunk encode/persist stays
/// negligible next to the fixpoint work.
constexpr std::size_t kAutoSimChunkTarget = 32;

}  // namespace

std::vector<util::IndexRange> sim_chunk_ranges(std::size_t n,
                                               std::size_t chunk_prefixes) {
  if (chunk_prefixes == 0) return util::split_ranges(n, kAutoSimChunkTarget);
  std::vector<util::IndexRange> ranges;
  ranges.reserve(n / chunk_prefixes + 1);
  for (std::size_t begin = 0; begin < n; begin += chunk_prefixes) {
    ranges.push_back({begin, std::min(begin + chunk_prefixes, n)});
  }
  return ranges;
}

std::string infer_store_key(std::string_view observe_digest,
                            const asrel::GaoParams& params) {
  std::string key = kKeyPrefix;
  key += to_string(Stage::kInfer);
  key += '|';
  key += observe_digest;
  key += '|';
  key += io::field_text(params);
  return key;
}

std::string sim_chunk_store_key(std::string_view scenario_key,
                                std::string_view truth_digest,
                                util::IndexRange range, std::size_t total) {
  std::string key = kKeyPrefix;
  key += "sim-chunk|";
  key += scenario_key;
  key += '|';
  key += truth_digest;
  key += "|range=";
  key += std::to_string(range.begin);
  key += '-';
  key += std::to_string(range.end);
  key += '/';
  key += std::to_string(total);
  key += ';';
  return key;
}

namespace {

// The Observe sub-steps, shared verbatim between the monolithic observe()
// below and the task-graph nodes Experiment::add_stage_nodes builds (so
// the two paths can never drift).  The IRR pair consumes only the ground
// truth; the path pair consumes only the recorded tables — the disjoint
// halves the task graph overlaps.

std::string observe_irr_text(const Scenario& scenario,
                             const GroundTruth& truth, std::size_t threads,
                             const util::Executor* executor) {
  rpsl::IrrGenParams irr_params = scenario.irr_params;
  irr_params.threads = threads;
  return rpsl::generate_irr(truth.topo, truth.gen.policies, irr_params,
                            executor);
}

/// Observed path multiset (RouteViews + LGs; a looking glass sees paths
/// without the vantage itself, so its AS is prepended to match the
/// collector's shape).  Fills lg_order and observed_paths.
void observe_ingest_paths(Observations& obs, const SimArtifact& sim) {
  obs.lg_order = sorted_looking_glass(sim.sim);
  obs.observed_paths.add_table_paths(sim.sim.collector);
  for (const AsNumber as : obs.lg_order) {
    obs.observed_paths.add_table_paths(sim.sim.looking_glass.at(as), as);
  }
}

}  // namespace

Observations observe(const Scenario& scenario, const GroundTruth& truth,
                     const SimArtifact& sim, std::size_t threads,
                     const util::Executor* executor) {
  Observations obs;
  obs.irr_text = observe_irr_text(scenario, truth, threads, executor);
  obs.irr_objects = rpsl::parse_aut_nums(obs.irr_text, threads, executor);
  observe_ingest_paths(obs, sim);
  // The path index over the same table sources.
  obs.paths.add_tables(inference_table_sources(sim.sim));
  return obs;
}

void check_fields(const SimChunk& chunk) {
  if (chunk.begin > chunk.end || chunk.end > chunk.total) {
    throw std::invalid_argument("artifact: bad sim chunk range");
  }
}

const rpsl::AutNum* Observations::irr_for(AsNumber as) const {
  for (const auto& aut_num : irr_objects) {
    if (aut_num.as == as) return &aut_num;
  }
  return nullptr;
}

InferenceProducts infer_relationships(const Observations& observations,
                                      const asrel::GaoParams& params,
                                      const util::Executor* executor) {
  InferenceProducts products;
  products.inferred = observations.observed_paths.infer(params, executor);
  products.inferred_graph = products.inferred.to_graph();
  products.tiers = asrel::classify_tiers(products.inferred);
  return products;
}

ExperimentView make_view(const SimArtifact& sim,
                         const Observations& observations,
                         const InferenceProducts& inference) {
  ExperimentView view;
  view.sim = &sim.sim;
  view.irr_objects = &observations.irr_objects;
  view.inferred = &inference.inferred;
  view.inferred_graph = &inference.inferred_graph;
  view.tiers = &inference.tiers;
  view.paths = &observations.paths;
  return view;
}

// -------------------------------------------------------------- experiment --

Experiment::Experiment(Scenario scenario, RunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {
  // Fold the override into the scenario so one knob drives every stage.
  if (options_.threads) scenario_.propagation.threads = *options_.threads;
}

const util::Executor& Experiment::executor() {
  if (!executor_) {
    executor_ = std::make_unique<util::Executor>(threads());
  }
  return *executor_;
}

std::string Experiment::stage_key_material(
    Stage stage, const asrel::GaoParams& gao) const {
  std::string key = kKeyPrefix;
  key += to_string(stage);
  key += '|';
  switch (stage) {
    case Stage::kSynthesize:
      key += scenario_cache_key(scenario_);
      break;
    case Stage::kSimulate:
      key += scenario_cache_key(scenario_);
      key += '|';
      key += stage_digest(Stage::kSynthesize);
      break;
    case Stage::kObserve:
      key += scenario_cache_key(scenario_);
      key += '|';
      key += stage_digest(Stage::kSynthesize);
      key += '|';
      key += stage_digest(Stage::kSimulate);
      break;
    case Stage::kInfer:
      return infer_store_key(stage_digest(Stage::kObserve), gao);
    case Stage::kAnalyze:
      return analyze_store_key(
          stage_digest(Stage::kSimulate), stage_digest(Stage::kObserve),
          stage_digest(Stage::kInfer), options_.analysis_vantages);
  }
  return key;
}

void Experiment::run(Stage until) {
  // One task graph covers every missing upstream stage, so Observe
  // sub-tasks overlap late Simulate chunks; Infer/Analyze keep their
  // internal executor sharding (they are a strictly serial chain).
  run_upstream(until < Stage::kObserve ? until : Stage::kObserve);
  if (until >= Stage::kInfer) inference();
  if (until >= Stage::kAnalyze) analyses();
}

const GroundTruth& Experiment::truth() {
  if (!truth_) run_upstream(Stage::kSynthesize);
  return *truth_;
}

const SimArtifact& Experiment::sim() {
  if (!sim_) run_upstream(Stage::kSimulate);
  return *sim_;
}

const Observations& Experiment::observations() {
  if (!observations_) run_upstream(Stage::kObserve);
  return *observations_;
}

void Experiment::run_upstream(Stage until) {
  // A sequential executor runs the nodes inline in program order; a pool
  // overlaps Observe with late Simulate chunks.
  util::TaskGraph graph;
  add_stage_nodes(graph, until);
  graph.run(executor());
}

// ----------------------------------------------------- task-graph stages --

/// Staging state shared by one graph run's nodes (kept alive by
/// shared_ptr captures; node edges order every access).
struct Experiment::UpstreamScratch {
  /// Observe sub-results assembled across the irr/path nodes, moved into
  /// observations_ by the finish node.
  Observations obs;
  /// Set when the whole Observations artifact was found (and decoded — a
  /// corrupt entry is a miss, never a hit) in the store under a Simulate
  /// digest that stands; sub-nodes that see it skip their work and the
  /// finish node installs loaded_obs.  Atomic because the IRR and path
  /// nodes (unordered w.r.t. simulate.persist, which may set the flag
  /// after recomputing the sim digest) read it concurrently; a sub-node
  /// that missed the flag merely does work the finish node discards
  /// wholesale — never a torn artifact.
  std::atomic<bool> observe_hit{false};
  /// What the last Observe probe found, published through observe_hit.
  std::optional<Observations> loaded_obs;
  std::string observe_digest;  // of the stored bytes, for the digest chain
  /// The stored GroundTruth entry synthesize.load mapped and hashed (its
  /// frame checks); synthesize.decode decodes and unmaps it.
  std::optional<io::CheckedArtifact> truth_bytes;
  /// Set by synthesize.decode when those bytes failed to decode and the
  /// truth was recomputed: the digest simulate.load keyed on names no
  /// artifact, so the settle node drops every load keyed on it.
  bool truth_recomputed = false;
  /// The stored SimArtifact entry simulate.load mapped and hashed;
  /// simulate.decode decodes and unmaps it.
  std::optional<io::CheckedArtifact> sim_bytes;
  /// Set when this graph computed Simulate (not a store hit), with the
  /// store keys of its chunks: what the simulate.persist node writes and
  /// supersedes.
  bool sim_computed = false;
  std::vector<std::string> sim_chunk_keys;

  /// Lets the sub-nodes skip their work when the last probe hit.
  void publish_observe_hit() {
    // Release so a sub-node acquiring `true` concurrently is ordered after
    // loaded_obs/observe_digest are fully written (nodes ordered by graph
    // edges get this ordering from the scheduler mutex anyway).
    if (loaded_obs) observe_hit.store(true, std::memory_order_release);
  }
};

template <typename Fn>
void Experiment::traced(const char* name, Fn&& fn) {
  if (options_.trace == nullptr) {
    fn();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  fn();
  options_.trace->record(name, start, std::chrono::steady_clock::now());
}

void Experiment::probe_observe(UpstreamScratch& scratch) {
  if (options_.store == nullptr) return;
  scratch.loaded_obs =
      probe_store(options_.store, stage_key_material(Stage::kObserve, {}),
                  io::decode_observations, &scratch.observe_digest);
}

void Experiment::simulate_in_chunks(util::TaskGraph& graph,
                                    UpstreamScratch& scratch) {
  const std::size_t n = truth_->originations.size();
  const std::vector<util::IndexRange> ranges =
      sim_chunk_ranges(n, options_.sim_chunk_prefixes);
  // Fresh ledger per chunked run (an invalidate-and-rerun would otherwise
  // accumulate): computed + loaded always equals total afterwards.
  sim_chunks_ = SimChunkLedger{};
  sim_chunks_.total = ranges.size();

  // The merge chain replays the chunks into `merged` in range order; chunk
  // tasks only read its vantage spec, and the one flat context and seed
  // lists built here for the whole stage.
  const auto merged = std::make_shared<SimArtifact>();
  merged->vantage = derive_vantage(scenario_, truth_->topo);
  merged->sim = sim::init_sim_result(merged->vantage);
  const auto context = std::make_shared<const sim::FlatSimContext>(
      truth_->topo.graph, truth_->gen.policies);
  const auto seeds = std::make_shared<const sim::PrefixSeeds>(*context);
  // Index-addressed slots: chunk tasks run in any order on any thread.
  const auto slots =
      std::make_shared<std::vector<sim::SimResult>>(ranges.size());
  const auto loaded_flags =
      std::make_shared<std::vector<std::uint8_t>>(ranges.size(), 0);
  scratch.sim_chunk_keys.assign(ranges.size(), std::string());
  if (options_.store != nullptr) {
    const std::string scenario_key = scenario_cache_key(scenario_);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      scratch.sim_chunk_keys[i] = sim_chunk_store_key(
          scenario_key, stage_digest(Stage::kSynthesize), ranges[i], n);
    }
  }

  // Chunk and merge nodes interleaved in range order: merge i runs after
  // chunk i and merge i - 1, and waiting on this list (like the
  // scheduler's lowest-id-first pick) runs each merge as soon as it is
  // ready, so at threads = 1 the run alternates chunk and merge and holds
  // one chunk's rows at a time.
  std::vector<util::TaskGraph::NodeId> nodes;
  nodes.reserve(2 * ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    nodes.push_back(graph.submit([this, merged, context, seeds, slots,
                                  loaded_flags, i, range = ranges[i], n,
                                  key = scratch.sim_chunk_keys[i]] {
      traced("simulate.chunk", [&] {
        ArtifactStore* store = options_.store;
        if (std::optional<SimChunk> chunk =
                probe_store(store, key, io::decode_sim_chunk);
            chunk && chunk->begin == range.begin && chunk->end == range.end &&
            chunk->total == n) {
          (*slots)[i] = std::move(chunk->partial);
          (*loaded_flags)[i] = 1;
          return;
        }
        // The chunk's slice through the one Simulate kernel, inline on
        // this task's thread (the graph is the parallelism).
        const util::Executor sequential;
        (*slots)[i] = sim::run_simulation(
            *context, *seeds,
            std::span<const sim::Origination>(truth_->originations)
                .subspan(range.begin, range.size()),
            merged->vantage, scenario_.propagation, &sequential);
        if (store != nullptr) {
          // Persist-and-pin as each chunk completes: a kill from here on
          // resumes mid-Simulate, and a concurrent gc() cannot evict what
          // this run still needs (simulate.persist drops the pin).
          SimChunk chunk;
          chunk.begin = range.begin;
          chunk.end = range.end;
          chunk.total = n;
          chunk.partial = std::move((*slots)[i]);
          // Pin first: a pin needs no entry behind it, and pinning after
          // the put would leave a window where a concurrent gc() evicts
          // the just-persisted chunk this run still needs.
          store->pin(key);
          store->put(key, io::encode(chunk));
          (*slots)[i] = std::move(chunk.partial);
        }
      });
    }));
    std::vector<util::TaskGraph::NodeId> merge_deps{nodes.back()};
    if (i > 0) merge_deps.push_back(nodes[nodes.size() - 2]);
    nodes.push_back(graph.submit(
        [this, merged, slots, loaded_flags, i] {
          traced("simulate.merge", [&] {
            sim::merge_sim_chunk(merged->sim, std::move((*slots)[i]));
            (*slots)[i] = sim::SimResult{};  // bound peak memory
            ++((*loaded_flags)[i] != 0 ? sim_chunks_.loaded
                                       : sim_chunks_.computed);
          });
        },
        merge_deps));
  }
  graph.wait(nodes);
  sim_ = std::move(*merged);
  ++counters_.simulate;
  scratch.sim_computed = true;
}

void Experiment::persist_sim(UpstreamScratch& scratch) {
  ArtifactStore* store = options_.store;
  if (store == nullptr) {
    digest_slot(Stage::kSimulate).clear();
    return;
  }
  bool stored = false;
  digest_slot(Stage::kSimulate) =
      persist(store, stage_key_material(Stage::kSimulate, {}), *sim_, &stored);
  // The merged artifact supersedes its chunks: erase them so long-lived
  // stores do not carry both representations — but only once it is on
  // disk, or a failed write would throw away the mid-Simulate resume
  // state.  The gc pins fall either way: this run no longer needs them.
  for (const std::string& key : scratch.sim_chunk_keys) {
    store->unpin(key);
    if (stored) store->erase(key);
  }
}

Experiment::UpstreamNodes Experiment::add_stage_nodes(util::TaskGraph& graph,
                                                      Stage until) {
  if (until > Stage::kObserve) until = Stage::kObserve;
  UpstreamNodes handles;
  const bool need_truth = !truth_;
  const bool need_sim = until >= Stage::kSimulate && !sim_;
  const bool need_observe = until >= Stage::kObserve && !observations_;
  if (!need_truth && !need_sim && !need_observe) return handles;

  using NodeId = util::TaskGraph::NodeId;
  const auto deps_of = [](std::initializer_list<std::optional<NodeId>> ids) {
    std::vector<NodeId> deps;
    for (const auto& id : ids) {
      if (id) deps.push_back(*id);
    }
    return deps;
  };

  auto scratch = std::make_shared<UpstreamScratch>();
  util::TaskGraph* graph_ptr = &graph;

  // n_synth: truth_ is set.  n_synth_digest: the Synthesize digest is
  // known, which is all the Simulate store key needs.
  std::optional<NodeId> n_synth;
  std::optional<NodeId> n_synth_digest;
  // Persists the recomputed truth and takes its digest.
  const auto persist_truth = [this] {
    digest_slot(Stage::kSynthesize) =
        persist(options_.store, stage_key_material(Stage::kSynthesize, {}),
                *truth_);
  };
  if (need_truth && options_.store == nullptr) {
    n_synth = graph.add([this, persist_truth] {
      traced("synthesize", [&] {
        truth_ = synthesize(scenario_);
        persist_truth();
        ++counters_.synthesize;
      });
    });
    n_synth_digest = n_synth;
  } else if (need_truth) {
    // Resume: map the entry and take its store digest and frame check
    // first, so simulate.load starts without waiting for the
    // GroundTruth decode.  A missing or damaged frame is a miss,
    // recomputed here so downstream keys chain on the cold digest.
    n_synth_digest = graph.add([this, scratch, persist_truth] {
      traced("synthesize.load", [&] {
        if (std::optional<MappedEntry> entry = options_.store->map(
                stage_key_material(Stage::kSynthesize, {}))) {
          scratch->truth_bytes.emplace(std::move(*entry));
          if (scratch->truth_bytes->checksum_matches()) {
            digest_slot(Stage::kSynthesize) = scratch->truth_bytes->digest();
            return;
          }
          scratch->truth_bytes.reset();
        }
        truth_ = synthesize(scenario_);
        persist_truth();
        ++counters_.synthesize;
      });
    });
    // Readers of truth_ wait on the decode.  A frame that checks but a
    // payload that fails to decode is a miss too; when a settle node
    // follows, it takes the recomputed truth's digest after every load
    // that keyed on the damaged one.
    const bool settled_later = need_sim;
    n_synth = graph.add(
        [this, scratch, persist_truth, settled_later] {
          traced("synthesize.decode", [&] {
            if (!scratch->truth_bytes) return;
            try {
              truth_ = io::decode_ground_truth(*scratch->truth_bytes);
              ++loads_.synthesize;
            } catch (const std::invalid_argument&) {
              truth_ = synthesize(scenario_);
              ++counters_.synthesize;
              scratch->truth_recomputed = true;
              if (!settled_later) persist_truth();
            }
            scratch->truth_bytes.reset();
          });
        },
        {*n_synth_digest});
  }

  // After this node sim_ holds the stored SimArtifact or is known to be
  // missing, and a whole-Observations hit is settled either way.
  std::optional<NodeId> n_sim_settled;
  std::optional<NodeId> n_sim;
  std::optional<NodeId> n_sim_persist;
  if (need_sim) {
    if (options_.store != nullptr) {
      // Resume: map the entry and take its store digest and frame
      // checksum first.  The Observe key needs only that
      // digest, so the Observe probe runs beside the SimArtifact decode,
      // and a store-served run finds both artifacts before any stage work
      // starts.
      const NodeId n_load = graph.add(
          [this, scratch] {
            traced("simulate.load", [&] {
              std::optional<MappedEntry> entry =
                  options_.store->map(stage_key_material(Stage::kSimulate, {}));
              if (!entry) return;
              scratch->sim_bytes.emplace(std::move(*entry));
              digest_slot(Stage::kSimulate) = scratch->sim_bytes->digest();
            });
          },
          deps_of({n_synth_digest}));
      std::vector<NodeId> settle_deps{graph.add(
          [this, scratch] {
            traced("simulate.decode", [&] {
              if (!scratch->sim_bytes) return;
              // A corrupt entry is a miss: the compute node fans out chunks.
              try {
                sim_ = io::decode_sim_artifact(*scratch->sim_bytes);
              } catch (const std::invalid_argument&) {
              }
              scratch->sim_bytes.reset();
            });
          },
          {n_load})};
      if (need_observe) {
        settle_deps.push_back(graph.add(
            [this, scratch] {
              traced("observe.probe", [&] {
                if (!stage_digest(Stage::kSimulate).empty()) {
                  probe_observe(*scratch);
                }
              });
            },
            {n_load}));
      }
      if (n_synth) settle_deps.push_back(*n_synth);
      n_sim_settled = graph.add(
          [this, scratch, persist_truth] {
            if (scratch->truth_recomputed) {
              // The stored GroundTruth framed but did not decode: the
              // digest every load above keyed on names no artifact.
              persist_truth();
              sim_.reset();
            }
            if (sim_) {
              ++loads_.simulate;
              scratch->publish_observe_hit();
              return;
            }
            // The entry was missing or failed to decode: its digest names
            // no artifact, so neither it nor an Observe hit keyed on it
            // may stand.
            digest_slot(Stage::kSimulate).clear();
            scratch->loaded_obs.reset();
            scratch->observe_digest.clear();
          },
          settle_deps);
    }
    n_sim = graph.add(
        [this, scratch, graph_ptr] {
          if (sim_) return;  // store hit
          simulate_in_chunks(*graph_ptr, *scratch);
        },
        deps_of({n_synth, n_sim_settled}));
    // Encode, digest and store the merged artifact beside the path nodes,
    // which need only the tables.  The node is added before them, so at
    // threads = 1 it runs first and its Observe probe lets them skip.
    n_sim_persist = graph.add(
        [this, scratch, need_observe] {
          if (!scratch->sim_computed) return;
          traced("simulate.persist", [&] {
            persist_sim(*scratch);
            // The recomputed digest matches what a previous run
            // persisted, so the whole Observations artifact may still be
            // on disk even though the sim entry was lost (gc,
            // corruption).  The finish node (edge-ordered after this
            // one) reuses it; Observe nodes racing ahead merely did work
            // it discards.
            if (need_observe) {
              probe_observe(*scratch);
              scratch->publish_observe_hit();
            }
          });
        },
        {*n_sim});
    handles.sim_done = n_sim_persist;
  } else if (need_observe && options_.store != nullptr) {
    // Simulate (and its digest) already materialized before this graph:
    // the Observations store entry is probeable right now.
    probe_observe(*scratch);
    scratch->publish_observe_hit();
  }

  if (need_observe) {
    // The IRR pair consumes only ground truth, so it runs concurrently
    // with every Simulate chunk; ordering it after the cheap store probe
    // only lets a fully store-served run skip the work.
    const auto n_irr_gen = graph.add(
        [this, scratch] {
          traced("observe.irr_gen", [&] {
            if (scratch->observe_hit.load(std::memory_order_acquire)) return;
            scratch->obs.irr_text =
                observe_irr_text(scenario_, *truth_, 1, nullptr);
          });
        },
        deps_of({n_synth, n_sim_settled}));
    const auto n_irr_parse = graph.add(
        [this, scratch] {
          traced("observe.irr_parse", [&] {
            if (scratch->observe_hit.load(std::memory_order_acquire)) return;
            scratch->obs.irr_objects =
                rpsl::parse_aut_nums(scratch->obs.irr_text, 1, nullptr);
          });
        },
        {n_irr_gen});
    const auto n_ingest = graph.add(
        [this, scratch] {
          traced("observe.path_ingest", [&] {
            if (scratch->observe_hit.load(std::memory_order_acquire)) return;
            observe_ingest_paths(scratch->obs, *sim_);
          });
        },
        deps_of({n_sim}));
    const auto n_index = graph.add(
        [this, scratch] {
          traced("observe.path_index", [&] {
            if (scratch->observe_hit.load(std::memory_order_acquire)) return;
            scratch->obs.paths.add_tables(inference_table_sources(sim_->sim));
          });
        },
        deps_of({n_sim}));
    handles.observe_done = graph.add(
        [this, scratch] {
          traced("observe.finish", [&] {
            if (scratch->observe_hit.load(std::memory_order_acquire)) {
              observations_ = std::move(*scratch->loaded_obs);
              digest_slot(Stage::kObserve) = scratch->observe_digest;
              ++loads_.observe;
              return;
            }
            observations_ = std::move(scratch->obs);
            ++counters_.observe;
            digest_slot(Stage::kObserve) =
                persist(options_.store,
                        stage_key_material(Stage::kObserve, {}),
                        *observations_);
          });
        },
        deps_of({n_irr_parse, n_ingest, n_index, n_sim_persist}));
  }
  return handles;
}

const InferenceProducts& Experiment::inference() {
  // Nothing downstream exists without an inference artifact, so the
  // rerun's Analyze invalidation is a no-op here.
  if (!inference_) rerun_infer(effective_gao_params());
  return *inference_;
}

const AnalysisSuite& Experiment::analyses() {
  if (!analyses_) {
    inference();  // and, upstream of it, the Simulate tables Analyze reads
    bool loaded = false;
    analyses_ = stage_artifact(
        options_.store,
        stage_key_material(Stage::kAnalyze, effective_gao_params()),
        digest_slot(Stage::kAnalyze), loaded, io::decode_analysis_suite,
        [&] {
          std::vector<AsNumber> vantages = options_.analysis_vantages;
          if (vantages.empty()) vantages = recorded_vantages(sim_->sim);
          return run_analysis_suite(view(), vantages, threads(), &executor());
        });
    ++(loaded ? loads_ : counters_).analyze;
  }
  return *analyses_;
}

namespace {

template <typename T>
const T& materialized(const std::optional<T>& artifact, const char* stage) {
  if (!artifact) {
    throw std::logic_error(std::string("Experiment: the ") + stage +
                           " stage has not run");
  }
  return *artifact;
}

}  // namespace

const GroundTruth& Experiment::truth() const {
  return materialized(truth_, "synthesize");
}
const SimArtifact& Experiment::sim() const {
  return materialized(sim_, "simulate");
}
const Observations& Experiment::observations() const {
  return materialized(observations_, "observe");
}
const InferenceProducts& Experiment::inference() const {
  return materialized(inference_, "infer");
}
const AnalysisSuite& Experiment::analyses() const {
  return materialized(analyses_, "analyze");
}

const InferenceProducts& Experiment::rerun_infer(
    const asrel::GaoParams& params) {
  observations();  // cached upstream is reused, never re-run
  bool loaded = false;
  inference_ = stage_artifact(
      options_.store, stage_key_material(Stage::kInfer, params),
      digest_slot(Stage::kInfer), loaded, io::decode_inference,
      [&] { return infer_relationships(*observations_, params, &executor()); });
  ++(loaded ? loads_ : counters_).infer;
  analyses_.reset();
  digest_slot(Stage::kAnalyze).clear();
  return *inference_;
}

void Experiment::invalidate(Stage from) {
  switch (from) {
    case Stage::kSynthesize:
      truth_.reset();
      digest_slot(Stage::kSynthesize).clear();
      [[fallthrough]];
    case Stage::kSimulate:
      sim_.reset();
      digest_slot(Stage::kSimulate).clear();
      // The chunk ledger describes the dropped artifact's materialization;
      // a rerun served whole from the store must report all-zero again.
      sim_chunks_ = SimChunkLedger{};
      [[fallthrough]];
    case Stage::kObserve:
      observations_.reset();
      digest_slot(Stage::kObserve).clear();
      [[fallthrough]];
    case Stage::kInfer:
      inference_.reset();
      digest_slot(Stage::kInfer).clear();
      [[fallthrough]];
    case Stage::kAnalyze:
      analyses_.reset();
      digest_slot(Stage::kAnalyze).clear();
  }
}

asrel::GaoParams Experiment::effective_gao_params() const {
  if (options_.gao) return *options_.gao;
  asrel::GaoParams params;
  params.threads = threads();
  return params;
}

ExperimentView Experiment::view() {
  inference();
  return make_view(*sim_, *observations_, *inference_);
}

ExperimentView Experiment::view() const {
  return make_view(sim(), observations(), inference());
}

Experiment::StageArtifacts Experiment::take_artifacts() && {
  StageArtifacts artifacts;
  artifacts.truth = std::move(truth_);
  artifacts.sim = std::move(sim_);
  artifacts.observations = std::move(observations_);
  artifacts.inference = std::move(inference_);
  artifacts.analyses = std::move(analyses_);
  invalidate(Stage::kSynthesize);
  return artifacts;
}

// ------------------------------------------------------------------ sweep --

SweepReport sweep(std::span<const SweepVariant> variants, std::size_t threads,
                  ArtifactStore* store) {
  SweepReport report;
  if (variants.empty()) return report;

  // One long-lived executor drives one task graph holding *every*
  // variant's stages: upstream scenarios build concurrently with sub-stage
  // granularity (Simulate chunk tasks, overlapped Observe nodes), and each
  // variant's Infer/Analyze nodes fire the moment their group's upstream
  // nodes finish — cross-variant work interleaves instead of barriering
  // per phase, and results stream into request-order slots as they
  // complete.  Stage internals stay sequential inside their nodes (the
  // graph is the unit of parallelism), which never changes artifact bytes.
  const util::Executor executor(threads);

  // 1. Distinct upstream scenarios, in first-appearance order.
  std::vector<std::size_t> group_of_variant(variants.size());
  std::vector<std::string> keys;
  std::vector<std::size_t> representative;  // group -> first variant index
  std::unordered_map<std::string, std::size_t> group_by_key;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    std::string key = scenario_cache_key(variants[i].scenario);
    const auto [it, inserted] =
        group_by_key.try_emplace(std::move(key), keys.size());
    if (inserted) {
      keys.push_back(it->first);
      representative.push_back(i);
    }
    group_of_variant[i] = it->second;
  }
  report.distinct_scenarios = keys.size();

  // 2. Upstream stage nodes: one Experiment per distinct scenario, its
  //    Synthesize/Simulate/Observe appended to the shared graph.  With a
  //    store, each stage probes before computing — the cross-process half
  //    of sweep resume, now at chunk granularity inside Simulate.
  util::TaskGraph graph;
  report.upstream.resize(keys.size());
  std::vector<Experiment::UpstreamNodes> upstream_nodes(keys.size());
  for (std::size_t group = 0; group < keys.size(); ++group) {
    RunOptions options;
    options.threads = 1;  // the graph parallelizes; bytes never change
    options.until = Stage::kObserve;
    options.store = store;
    report.upstream[group] = std::make_unique<Experiment>(
        variants[representative[group]].scenario, options);
    upstream_nodes[group] =
        report.upstream[group]->add_stage_nodes(graph, Stage::kObserve);
  }

  // 3. Per-variant Infer + Analyze nodes against the shared (immutable
  //    once their nodes ran) upstream artifacts.  Each variant's results
  //    land in its request-order slot; completion_index records the order
  //    they actually streamed in.  With a store, each artifact probes
  //    independently: a variant whose Analyze entry was lost recomputes
  //    only Analyze.
  std::vector<SweepRun> runs(variants.size());
  std::atomic<std::size_t> completion{0};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::size_t group = group_of_variant[i];
    const Experiment* up = report.upstream[group].get();
    SweepRun& run = runs[i];

    std::vector<util::TaskGraph::NodeId> infer_deps;
    if (upstream_nodes[group].observe_done) {
      infer_deps.push_back(*upstream_nodes[group].observe_done);
    }
    const auto infer_node = graph.add(
        [&run, up, store, &variants, &keys, group, i] {
          const SweepVariant& variant = variants[i];
          run.label = variant.label;
          run.scenario_key = keys[group];
          run.scenario_index = group;
          asrel::GaoParams gao =
              variant.options.gao.value_or(asrel::GaoParams{});
          gao.threads = 1;  // see SweepVariant: the graph parallelizes

          // The Experiment's own stage keys and probe-or-compute, so a
          // variant shares entries with an Experiment of the same
          // scenario and parameters, and siblings differing only in
          // vantages share one InferenceProducts entry.
          if (store != nullptr) {
            run.store_infer_key =
                infer_store_key(up->stage_digest(Stage::kObserve), gao);
          }
          std::string infer_digest;
          run.inference = stage_artifact(
              store, run.store_infer_key, infer_digest, run.inference_loaded,
              io::decode_inference,
              [&] { return infer_relationships(up->observations(), gao); });
          if (store != nullptr) {
            run.store_analyze_key = analyze_store_key(
                up->stage_digest(Stage::kSimulate),
                up->stage_digest(Stage::kObserve), infer_digest,
                variant.options.analysis_vantages);
          }
        },
        infer_deps);

    // Analyze depends on the variant's inference and (transitively through
    // the observe node) the group's Simulate artifact.
    graph.add(
        [&run, up, store, &variants, &completion, i] {
          const SweepVariant& variant = variants[i];
          std::string analyses_digest;
          run.analyses = stage_artifact(
              store, run.store_analyze_key, analyses_digest,
              run.analyses_loaded, io::decode_analysis_suite, [&] {
                const ExperimentView view =
                    make_view(up->sim(), up->observations(), run.inference);
                std::vector<AsNumber> vantages =
                    variant.options.analysis_vantages;
                if (vantages.empty()) {
                  vantages = recorded_vantages(up->sim().sim);
                }
                return run_analysis_suite(view, vantages, 1);
              });
          run.completion_index = completion.fetch_add(1);
        },
        {infer_node});
  }

  graph.run(executor);

  // 4. Deterministic ledgers and the request-order merge, after the graph
  //    drained: upstream stage counts in group order, variant counts in
  //    request order — byte-identical at any thread count.
  for (const auto& up : report.upstream) {
    const StageCounters& c = up->counters();
    report.counters.synthesize += c.synthesize;
    report.counters.simulate += c.simulate;
    report.counters.observe += c.observe;
    const StageCounters& l = up->loads();
    report.loads.synthesize += l.synthesize;
    report.loads.simulate += l.simulate;
    report.loads.observe += l.observe;
  }
  report.runs.reserve(variants.size());
  for (SweepRun& run : runs) {
    ++(run.inference_loaded ? report.loads : report.counters).infer;
    ++(run.analyses_loaded ? report.loads : report.counters).analyze;
    report.runs.push_back(std::move(run));
  }
  return report;
}

}  // namespace bgpolicy::core
