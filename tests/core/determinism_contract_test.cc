// The determinism contract, checked in one place: every stage artifact is
// byte-identical at any thread count, Simulate chunk size and artifact
// store state, and equal to what the freestanding stage functions produce
// at threads = 1.
//
// Worlds: every scenarios/*.scn (small.scn is small(42)) and small(7),
// which lists one /20 of AS 1140 three times, so its chunk merges replace
// rows too.  Outside sanitizer builds internet2002 runs as well, cold and
// resumed, against the stage digests
// FlatEquivalence.Internet2002ArtifactDigestPinned pins.
//
// Run shapes of each world:
//   * Experiment at threads {1, 2, 4} x sim_chunk_prefixes {0, 1, 7} x
//     store {none, cold, resumed, one flipped byte}: twelve rows that
//     cover every pair of values, not the whole product.  A resume reads
//     the store a cold run filled at another thread count.  The
//     flipped-byte state damages each stage's entry in turn, one byte per
//     run, on a store a cold run filled.
//   * The freestanding stage functions sharing one util::Executor at
//     threads {2, 4}: the batch runner's pooled ranges and the sharded
//     IRR, Gao and analysis passes.
//   * core::sweep over every world at threads {1, 4}, with and without a
//     store.
// Every run's five encoded artifacts digest to the reference's, and so
// does stage_digest() when a store is attached; counters() + loads()
// account for every stage; the Simulate chunk ledger adds up.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_spec.h"
#include "io/artifact_codec.h"
#include "io/binary_table.h"
#include "testing/fixtures.h"
#include "testing/scoped_store.h"

namespace bgpolicy::core {
namespace {

constexpr std::array<Stage, 5> kStages = {Stage::kSynthesize, Stage::kSimulate,
                                          Stage::kObserve, Stage::kInfer,
                                          Stage::kAnalyze};
using StageDigests = std::array<std::string, 5>;
using StageCounts = std::array<std::size_t, 5>;

StageDigests digests(const GroundTruth& truth, const SimArtifact& sim,
                     const Observations& observations,
                     const InferenceProducts& inference,
                     const AnalysisSuite& analyses) {
  return {store_digest_hex(io::encode(truth)),
          store_digest_hex(io::encode(sim)),
          store_digest_hex(io::encode(observations)),
          store_digest_hex(io::encode(inference)),
          store_digest_hex(io::encode(analyses))};
}

/// The digests of what an experiment holds, encoded afresh.
StageDigests encoded_digests(const Experiment& experiment) {
  return digests(experiment.truth(), experiment.sim(),
                 experiment.observations(), experiment.inference(),
                 experiment.analyses());
}

/// The freestanding stage functions: sequential at threads = 1, sharing
/// one executor otherwise.
StageDigests freestanding_digests(const Scenario& scenario,
                                  std::size_t threads) {
  const util::Executor executor(threads);
  const util::Executor* shared = threads > 1 ? &executor : nullptr;
  const GroundTruth truth = synthesize(scenario);
  const SimArtifact sim = simulate(scenario, truth, threads, shared);
  const Observations observations =
      observe(scenario, truth, sim, threads, shared);
  asrel::GaoParams gao;
  gao.threads = threads;
  const InferenceProducts inference =
      infer_relationships(observations, gao, shared);
  const AnalysisSuite analyses =
      run_analysis_suite(make_view(sim, observations, inference),
                         recorded_vantages(sim.sim), threads, shared);
  return digests(truth, sim, observations, inference, analyses);
}

struct World {
  std::string name;
  Scenario scenario;
  /// A corpus file's verify block (empty for generated worlds).
  std::vector<SpecCheck> checks;
  StageDigests reference;
};

/// Every world with its reference digests, built once per process.
const std::vector<World>& worlds() {
  static const std::vector<World> all = [] {
    std::vector<World> out;
    for (const auto& entry :
         std::filesystem::directory_iterator(BGPOLICY_SCENARIO_DIR)) {
      if (entry.path().extension() != ".scn") continue;
      ScenarioSpec spec = ScenarioSpec::parse_file(entry.path());
      out.push_back({entry.path().filename().string(),
                     std::move(spec.scenario), std::move(spec.checks), {}});
    }
    std::sort(out.begin(), out.end(), [](const World& a, const World& b) {
      return a.name < b.name;
    });
    out.push_back({"small(7)", Scenario::small(7), {}, {}});
    for (World& world : out) {
      world.reference = freestanding_digests(world.scenario, 1);
    }
    return out;
  }();
  return all;
}

StageCounts counts(const StageCounters& c) {
  return {c.synthesize, c.simulate, c.observe, c.infer, c.analyze};
}

constexpr std::uint8_t kAllStages = 0x1f;
constexpr std::uint8_t stage_bit(Stage stage) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(stage));
}

/// A run computed exactly the stages in `computed` and loaded the others
/// (none without a store), its stage digests are the reference's, and its
/// chunk ledger adds up: every chunk computed when Simulate was, none
/// scheduled when the store served the whole SimArtifact.
void expect_run(const Experiment& experiment, const StageDigests& expected,
                std::uint8_t computed) {
  const bool store = experiment.options().store != nullptr;
  const StageCounts ran = counts(experiment.counters());
  const StageCounts loaded = counts(experiment.loads());
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    SCOPED_TRACE(to_string(kStages[s]));
    const bool computes = (computed & stage_bit(kStages[s])) != 0;
    EXPECT_EQ(ran[s], computes ? 1u : 0u);
    EXPECT_EQ(loaded[s], computes || !store ? 0u : 1u);
    if (store) {
      EXPECT_EQ(experiment.stage_digest(kStages[s]), expected[s]);
    }
  }
  const SimChunkLedger& chunks = experiment.sim_chunks();
  EXPECT_EQ(chunks.computed + chunks.loaded, chunks.total);
  if ((computed & stage_bit(Stage::kSimulate)) != 0) {
    EXPECT_GT(chunks.total, 0u);
    EXPECT_EQ(chunks.loaded, 0u);
  } else {
    EXPECT_EQ(chunks.total, 0u);
  }
}

/// Where the flipped-byte state damages a stored entry: the three
/// positions a one-pass check must reject before parsing a payload byte
/// (the Observations checksum field, its PathIndex section, the
/// SimArtifact's last table blob), and the payload's middle for the other
/// stages.
enum class Where : std::uint8_t {
  kPayloadMiddle,
  kChecksumField,
  kPathIndex,
  kLastTable
};
struct Damage {
  const char* what;
  io::ArtifactKind kind;
  Stage stage;
  Where where;
};
constexpr std::array<Damage, 6> kDamages = {{
    {"GroundTruth payload", io::ArtifactKind::kGroundTruth, Stage::kSynthesize,
     Where::kPayloadMiddle},
    {"SimArtifact last table", io::ArtifactKind::kSimArtifact,
     Stage::kSimulate, Where::kLastTable},
    {"Observations checksum", io::ArtifactKind::kObservations,
     Stage::kObserve, Where::kChecksumField},
    {"Observations path index", io::ArtifactKind::kObservations,
     Stage::kObserve, Where::kPathIndex},
    {"InferenceProducts payload", io::ArtifactKind::kInferenceProducts,
     Stage::kInfer, Where::kPayloadMiddle},
    {"AnalysisSuite payload", io::ArtifactKind::kAnalysisSuite,
     Stage::kAnalyze, Where::kPayloadMiddle},
}};

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The store's entry of `kind` (a store a run filled holds one per stage).
std::filesystem::path entry_of_kind(const ArtifactStore& store,
                                    io::ArtifactKind kind) {
  for (const ArtifactStore::Entry& entry : store.list()) {
    std::array<std::uint8_t, io::kArtifactHeaderBytes> bytes{};
    std::ifstream(entry.path, std::ios::binary)
        .read(reinterpret_cast<char*>(bytes.data()), bytes.size());
    const auto header = io::peek_artifact_header(bytes);
    if (header && header->kind == static_cast<std::uint16_t>(kind)) {
      return entry.path;
    }
  }
  return {};
}

/// The byte of `entry` a damage position flips.
std::size_t damage_offset(Where where, const std::vector<std::uint8_t>& entry) {
  switch (where) {
    case Where::kPayloadMiddle:
      return io::kArtifactHeaderBytes +
             (entry.size() - io::kArtifactHeaderBytes) / 2;
    case Where::kChecksumField:
      return io::kArtifactHeaderBytes - 5;
    case Where::kPathIndex: {
      // The payload ends with the index section: an entry count, then per
      // entry a prefix (network, length), a u16 hop count and the hops.
      const PathIndex index = io::decode_observations(entry).paths;
      std::size_t section = sizeof(std::uint64_t);
      for (std::size_t i = 0; i < index.path_count(); ++i) {
        section += 7 + sizeof(std::uint32_t) * index.path_at(i).size();
      }
      return entry.size() - section / 2;
    }
    case Where::kLastTable: {
      // The last blob in stored order ends before the three u64 counters.
      // Vantage tables are stored in AS order, best-only ones last.
      const SimArtifact sim = io::decode_sim_artifact(entry);
      const bgp::BgpTable* last = &sim.sim.collector;
      for (const auto* tables : {&sim.sim.looking_glass, &sim.sim.best_only}) {
        const auto highest = std::max_element(
            tables->begin(), tables->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        if (highest != tables->end()) last = &highest->second;
      }
      return entry.size() - 3 * sizeof(std::uint64_t) -
             io::serialize_table(*last).size() / 2;
    }
  }
  return entry.size();
}

/// Flips one byte of the store's entry of `damage.kind`.  The damaged copy
/// replaces the entry by rename, as the store writes, so no mapping of the
/// old bytes ever sees it.
void flip(const ArtifactStore& store, const Damage& damage) {
  const std::filesystem::path path = entry_of_kind(store, damage.kind);
  ASSERT_FALSE(path.empty()) << "no " << io::to_string(damage.kind);
  std::vector<std::uint8_t> bytes = read_file(path);
  const std::size_t at = damage_offset(damage.where, bytes);
  ASSERT_LT(at, bytes.size());
  bytes[at] ^= 0x21;
  std::filesystem::path damaged = path;
  damaged += ".flip";
  {
    std::ofstream out(damaged, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  std::filesystem::rename(damaged, path);
}

enum class StoreState : std::uint8_t { kNone, kCold, kResumed, kFlipped };

/// One Experiment run of a world.  A resumed or flipped-byte row reads the
/// store cold row `store` filled.
struct Row {
  StoreState state;
  std::size_t threads;
  std::size_t chunk;
  std::size_t store;
};

/// Threads {1, 2, 4} x chunk sizes {0, 1, 7} x four store states in
/// twelve rows, every pair of values once or more.  The cold rows run
/// first, and each resume reads a store filled at another thread count.
constexpr std::array<Row, 12> kRows = {{
    {StoreState::kCold, 1, 0, 0},
    {StoreState::kCold, 2, 7, 1},
    {StoreState::kCold, 4, 1, 2},
    {StoreState::kNone, 1, 1, 0},
    {StoreState::kNone, 2, 0, 0},
    {StoreState::kNone, 4, 7, 0},
    {StoreState::kResumed, 1, 7, 1},
    {StoreState::kResumed, 2, 1, 2},
    {StoreState::kResumed, 4, 0, 0},
    {StoreState::kFlipped, 1, 7, 2},
    {StoreState::kFlipped, 2, 0, 0},
    {StoreState::kFlipped, 4, 1, 1},
}};

const char* to_string(StoreState state) {
  switch (state) {
    case StoreState::kNone: return "none";
    case StoreState::kCold: return "cold";
    case StoreState::kResumed: return "resumed";
    case StoreState::kFlipped: return "flipped byte";
  }
  return "?";
}

/// Where the generated worlds' stores live: in memory when the host has a
/// tmpfs.  A cold run at chunk size 1 writes, pins and erases one entry per
/// origination, and in a disk-backed directory those file operations cost
/// several times the run (small(42): about 0.6 s against 0.15 s).
std::filesystem::path store_parent() {
  std::error_code ignored;
  if (std::filesystem::is_directory("/dev/shm", ignored)) return "/dev/shm";
  return std::filesystem::temp_directory_path();
}

void run_experiment_shapes(const World& world) {
  std::array<testing::ScopedStore, 3> stores = {
      testing::ScopedStore(store_parent()),
      testing::ScopedStore(store_parent()),
      testing::ScopedStore(store_parent())};
  for (const Row& row : kRows) {
    SCOPED_TRACE(::testing::Message()
                 << "threads=" << row.threads
                 << " sim_chunk_prefixes=" << row.chunk
                 << " store=" << to_string(row.state));
    RunOptions options;
    options.threads = row.threads;
    options.sim_chunk_prefixes = row.chunk;
    switch (row.state) {
      case StoreState::kNone: {
        Experiment experiment(world.scenario, options);
        experiment.run();
        expect_run(experiment, world.reference, kAllStages);
        // Moving the artifacts out hands over the same bytes.
        const Experiment::StageArtifacts taken =
            std::move(experiment).take_artifacts();
        EXPECT_EQ(digests(*taken.truth, *taken.sim, *taken.observations,
                          *taken.inference, *taken.analyses),
                  world.reference);
        break;
      }
      case StoreState::kCold:
      case StoreState::kResumed: {
        const bool cold = row.state == StoreState::kCold;
        options.store = stores[row.store].get();
        Experiment experiment(world.scenario, options);
        experiment.run();
        expect_run(experiment, world.reference, cold ? kAllStages : 0);
        EXPECT_EQ(encoded_digests(experiment), world.reference);
        // One entry per stage: the chunks are gone once the merged
        // SimArtifact is stored, and a resume adds nothing.
        EXPECT_EQ(stores[row.store]->size(), kStages.size());
        break;
      }
      case StoreState::kFlipped: {
        options.store = stores[row.store].get();
        // Each damaged entry is a miss: its stage is recomputed with the
        // same digest, so every other stage still loads, including the one
        // the previous run recomputed and stored again.
        for (const Damage& damage : kDamages) {
          SCOPED_TRACE(damage.what);
          flip(*options.store, damage);
          Experiment experiment(world.scenario, options);
          experiment.run();
          expect_run(experiment, world.reference, stage_bit(damage.stage));
          EXPECT_EQ(encoded_digests(experiment), world.reference);
        }
        Experiment healed(world.scenario, options);
        healed.run();
        expect_run(healed, world.reference, 0);
        break;
      }
    }
  }
}

TEST(DeterminismContract, EveryWorldAtEveryRunShape) {
  for (const World& world : worlds()) {
    SCOPED_TRACE(world.name);
    // A corpus file's digest pins name the same bytes.
    for (const SpecCheck& check : world.checks) {
      if (check.kind != SpecCheck::Kind::kDigest) continue;
      EXPECT_EQ(check.digest,
                world.reference[static_cast<std::size_t>(check.stage)])
          << to_string(check.stage);
    }
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      EXPECT_EQ(freestanding_digests(world.scenario, threads),
                world.reference)
          << "freestanding stage functions on an executor of " << threads;
    }
    run_experiment_shapes(world);
  }
}

TEST(DeterminismContract, SweepAtEveryThreadCountAndStoreState) {
  const std::vector<World>& all = worlds();
  std::vector<SweepVariant> variants;
  for (const World& world : all) {
    SweepVariant variant;
    variant.label = world.name;
    variant.scenario = world.scenario;
    variants.push_back(std::move(variant));
  }
  // The store sweep at 4 threads fills the store the one at 1 resumes.
  testing::ScopedStore store(store_parent());
  struct Shape {
    std::size_t threads;
    ArtifactStore* store;
    bool resumed;
  };
  for (const Shape shape : {Shape{1, nullptr, false}, Shape{4, nullptr, false},
                            Shape{4, store.get(), false},
                            Shape{1, store.get(), true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "threads=" << shape.threads
                 << (shape.store == nullptr ? " no store"
                     : shape.resumed        ? " resumed"
                                            : " cold store"));
    const SweepReport report = sweep(variants, shape.threads, shape.store);
    ASSERT_EQ(report.runs.size(), all.size());
    EXPECT_EQ(report.distinct_scenarios, all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const SweepRun& run = report.runs[i];
      SCOPED_TRACE(run.label);
      EXPECT_EQ(run.label, all[i].name);
      const Experiment& upstream = *report.upstream.at(run.scenario_index);
      EXPECT_EQ(digests(upstream.truth(), upstream.sim(),
                        upstream.observations(), run.inference, run.analyses),
                all[i].reference);
      EXPECT_EQ(run.loaded_from_store(), shape.resumed);
    }
    // Every stage once per world: computed, or loaded on a resume.
    const StageCounts ran = counts(report.counters);
    const StageCounts loaded = counts(report.loads);
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      SCOPED_TRACE(to_string(kStages[s]));
      EXPECT_EQ(ran[s], shape.resumed ? 0u : all.size());
      EXPECT_EQ(loaded[s], shape.resumed ? all.size() : 0u);
    }
  }
}

// internet2002 cold at 4 threads, then resumed at 1, against the pinned
// stage digests.
TEST(DeterminismContract, Internet2002ColdAndResumed) {
  if (testing::sanitizer_build()) {
    GTEST_SKIP() << "full internet2002 Simulate is too slow under sanitizers";
  }
  const StageDigests pinned = {"e666be8cb926ea09f4d7ae4bebef2e9f",
                               "83ee4022a40f17537d1050004cbc444b",
                               "7f318bcb45626cfe091111561b1d6bd4",
                               "fa8993cb1e54961f17cd51339f1ded16",
                               "3ac3d894bdec1ad799421afcffede363"};
  testing::ScopedStore store;
  for (const std::size_t threads : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    RunOptions options;
    options.threads = threads;
    options.store = store.get();
    Experiment experiment(Scenario::internet2002(), options);
    experiment.run();
    expect_run(experiment, pinned, threads == 4 ? kAllStages : 0);
    EXPECT_EQ(encoded_digests(experiment), pinned);
  }
}

}  // namespace
}  // namespace bgpolicy::core
