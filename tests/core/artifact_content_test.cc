// What the stored artifacts hold, independent of how they are stored.
//
// Content pins: one digest over every recorded internet2002 table's rows
// and one over the Observations' Gao paths and path-index entries, each
// computed from the decoded artifact, not from its bytes.  A change to the
// storage format moves the artifact digests but must leave these pins
// where they are: they are the "no row changed" check of a format-only
// change.  The determinism contract itself is checked in
// determinism_contract_test.cc.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"
#include "testing/fixtures.h"

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

}  // namespace
}  // namespace bgpolicy::core
