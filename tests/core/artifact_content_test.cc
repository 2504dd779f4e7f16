// What the stored artifacts hold, independent of how they are stored.
//
// Content pins: one digest over every recorded internet2002 table's rows
// and one over the Observations' Gao paths and path-index entries, each
// computed from the decoded artifact, not from its bytes.  A change to the
// storage format moves the artifact digests but must leave these pins
// where they are: they are the "no row changed" check of a format-only
// change.
//
// The determinism contract on the corpus worlds that record a prefix more
// than once (anycast, hijack) and on two generated worlds: every stage
// digest at threads {1, 4}, Simulate chunk sizes {0, 1, 7} and with no
// store, a cold store and a resumed store equals the freestanding stage
// functions run at threads = 1.  small(7) lists one /20 of AS 1140 three
// times, so its chunk merges replace rows too.
#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_spec.h"
#include "io/artifact_codec.h"
#include "testing/fixtures.h"
#include "testing/scoped_store.h"

namespace bgpolicy::core {
namespace {

/// Little-endian words appended to a byte buffer, digested at the end.
class ContentDigest {
 public:
  void put(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void put_prefix(const bgp::Prefix& prefix) {
    put(prefix.network());
    put(prefix.length());
  }
  void put_hops(std::span<const util::AsNumber> hops) {
    put(static_cast<std::uint32_t>(hops.size()));
    for (const util::AsNumber as : hops) put(as.value());
  }
  [[nodiscard]] std::string hex() const { return stable_digest_hex(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Every row of `table` in stored order, with every field the codec keeps.
void put_table(ContentDigest& digest, const bgp::BgpTable& table) {
  digest.put(table.owner().value());
  digest.put(static_cast<std::uint32_t>(table.prefix_count()));
  for (const bgp::TableEntry entry : table) {
    digest.put_prefix(entry.prefix());
    digest.put(static_cast<std::uint32_t>(entry.size()));
    for (const bgp::RouteView route : entry) {
      digest.put(route.learned_from().value());
      digest.put(route.local_pref());
      digest.put(route.med());
      digest.put(static_cast<std::uint32_t>(route.origin()));
      digest.put_hops(route.path().hops());
      digest.put(static_cast<std::uint32_t>(route.communities().size()));
      for (const bgp::Community c : route.communities()) digest.put(c.raw());
    }
  }
}

/// The collector, then the looking glasses and the best-only views in
/// ascending AS order.
std::string table_content_digest(const sim::SimResult& sim) {
  ContentDigest digest;
  put_table(digest, sim.collector);
  for (const auto* tables : {&sim.looking_glass, &sim.best_only}) {
    std::vector<util::AsNumber> owners;
    for (const auto& [as, table] : *tables) owners.push_back(as);
    std::sort(owners.begin(), owners.end());
    digest.put(static_cast<std::uint32_t>(owners.size()));
    for (const util::AsNumber as : owners) put_table(digest, tables->at(as));
  }
  return digest.hex();
}

/// Gao's paths, then the path index's (prefix, path) entries, in index
/// order.
std::string observation_content_digest(const Observations& observations) {
  ContentDigest digest;
  const asrel::GaoInference& gao = observations.observed_paths;
  digest.put(static_cast<std::uint32_t>(gao.path_count()));
  for (std::size_t i = 0; i < gao.path_count(); ++i) {
    digest.put_hops(gao.path(i));
  }
  const PathIndex& index = observations.paths;
  digest.put(static_cast<std::uint32_t>(index.path_count()));
  for (std::size_t i = 0; i < index.path_count(); ++i) {
    digest.put_prefix(index.prefix_at(i));
    digest.put_hops(index.path_at(i));
  }
  return digest.hex();
}

// The decoded content of internet2002's SimArtifact and Observations.
// Pinned before the storage format changed, and unchanged by it.
TEST(ArtifactContent, Internet2002ContentPinned) {
  if (testing::sanitizer_build()) {
    GTEST_SKIP() << "full internet2002 Simulate is too slow under sanitizers";
  }
  RunOptions options;
  options.threads = 0;
  options.until = Stage::kObserve;
  Experiment experiment(Scenario::internet2002(), options);
  experiment.run();
  const std::vector<std::uint8_t> sim_bytes = io::encode(experiment.sim());
  const std::vector<std::uint8_t> observation_bytes =
      io::encode(experiment.observations());
  const SimArtifact sim = io::decode_sim_artifact(sim_bytes);
  const Observations observations = io::decode_observations(observation_bytes);

  EXPECT_EQ(table_content_digest(experiment.sim().sim),
            table_content_digest(sim.sim));
  EXPECT_EQ(table_content_digest(sim.sim),
            "88d187ca9595353d7ae62f555f457fda");
  EXPECT_EQ(observation_content_digest(experiment.observations()),
            observation_content_digest(observations));
  EXPECT_EQ(observation_content_digest(observations),
            "20d29c09265e221a28253ecf1cc157dd");
}

struct World {
  const char* name;
  Scenario scenario;
};

Scenario corpus_world(const char* file) {
  return ScenarioSpec::parse_file(
             std::filesystem::path(BGPOLICY_SCENARIO_DIR) / file)
      .scenario;
}

std::vector<World> determinism_worlds() {
  return {{"anycast_catchment.scn", corpus_world("anycast_catchment.scn")},
          {"hijack_failover.scn", corpus_world("hijack_failover.scn")},
          {"small.scn", corpus_world("small.scn")},
          {"small(7)", Scenario::small(7)}};
}

constexpr std::array<Stage, 5> kStages = {Stage::kSynthesize, Stage::kSimulate,
                                          Stage::kObserve, Stage::kInfer,
                                          Stage::kAnalyze};
using StageDigests = std::array<std::string, 5>;

/// The freestanding stage functions at threads = 1.
StageDigests freestanding_digests(const Scenario& scenario) {
  const GroundTruth truth = synthesize(scenario);
  const SimArtifact sim = simulate(scenario, truth, 1);
  const Observations observations = observe(scenario, truth, sim, 1);
  asrel::GaoParams gao;
  gao.threads = 1;
  const InferenceProducts inference = infer_relationships(observations, gao);
  const AnalysisSuite analyses =
      run_analysis_suite(make_view(sim, observations, inference),
                         recorded_vantages(sim.sim), 1);
  return {stable_digest_hex(io::encode(truth)),
          stable_digest_hex(io::encode(sim)),
          stable_digest_hex(io::encode(observations)),
          stable_digest_hex(io::encode(inference)),
          stable_digest_hex(io::encode(analyses))};
}

/// The digests of what an experiment holds, encoded afresh.
StageDigests encoded_digests(const Experiment& experiment) {
  return {stable_digest_hex(io::encode(experiment.truth())),
          stable_digest_hex(io::encode(experiment.sim())),
          stable_digest_hex(io::encode(experiment.observations())),
          stable_digest_hex(io::encode(experiment.inference())),
          stable_digest_hex(io::encode(experiment.analyses()))};
}

TEST(ArtifactContent, MultiRecordWorldsDeterministicAcrossRunShapes) {
  for (const World& world : determinism_worlds()) {
    SCOPED_TRACE(world.name);
    const StageDigests expected = freestanding_digests(world.scenario);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " sim_chunk_prefixes=" + std::to_string(chunk));
        RunOptions options;
        options.threads = threads;
        options.sim_chunk_prefixes = chunk;
        {
          SCOPED_TRACE("store=none");
          Experiment experiment(world.scenario, options);
          experiment.run();
          EXPECT_EQ(encoded_digests(experiment), expected);
        }
        testing::ScopedStore store;
        options.store = store.get();
        for (const bool resumed : {false, true}) {
          SCOPED_TRACE(resumed ? "store=resumed" : "store=cold");
          Experiment experiment(world.scenario, options);
          experiment.run();
          for (std::size_t s = 0; s < kStages.size(); ++s) {
            EXPECT_EQ(experiment.stage_digest(kStages[s]), expected[s])
                << to_string(kStages[s]);
          }
          EXPECT_EQ(encoded_digests(experiment), expected);
          const StageCounters& computed = experiment.counters();
          const std::size_t stages_computed =
              computed.synthesize + computed.simulate + computed.observe +
              computed.infer + computed.analyze;
          EXPECT_EQ(stages_computed, resumed ? 0u : 5u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bgpolicy::core
