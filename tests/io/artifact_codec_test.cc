// The artifact codec contract (ISSUE 4): every staged artifact round-trips
// through its binary encoding with full behavioral fidelity (downstream
// products are byte-identical whether computed from original or decoded
// artifacts), encoding is a pure function of content (re-encoding a decoded
// artifact reproduces the bytes), and every flavor of damaged input —
// truncation, bit corruption, version or kind mismatch — raises
// std::invalid_argument instead of yielding a wrong artifact.
#include "io/artifact_codec.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/artifact_store.h"
#include "core/scenario.h"

namespace bgpolicy::io {
namespace {

using util::AsNumber;

/// One fully staged small-scenario experiment, shared across tests.
core::Experiment& shared_experiment() {
  static core::Experiment* experiment = [] {
    core::RunOptions options;
    options.threads = 1;
    auto* e = new core::Experiment(core::Scenario::small(21), options);
    e->run();
    return e;
  }();
  return *experiment;
}

TEST(ArtifactCodec, GroundTruthRoundtripIsContentPure) {
  const core::GroundTruth& truth = shared_experiment().truth();
  const std::vector<std::uint8_t> bytes = encode(truth);
  const core::GroundTruth decoded = decode_ground_truth(bytes);
  // Re-encoding the decoded artifact must reproduce the bytes exactly —
  // the property the content-addressed cache keys chain on.
  EXPECT_EQ(encode(decoded), bytes);

  // Structural spot checks, including the orderings downstream stages are
  // sensitive to (AS insertion order, per-edge creation order).
  EXPECT_EQ(decoded.topo.graph.as_count(), truth.topo.graph.as_count());
  ASSERT_EQ(decoded.topo.graph.edges().size(), truth.topo.graph.edges().size());
  for (std::size_t i = 0; i < truth.topo.graph.edges().size(); ++i) {
    EXPECT_EQ(decoded.topo.graph.edges()[i], truth.topo.graph.edges()[i]);
  }
  for (const AsNumber as : truth.topo.graph.ases()) {
    const auto expected = truth.topo.graph.neighbors(as);
    const auto actual = decoded.topo.graph.neighbors(as);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
  EXPECT_EQ(decoded.plan.prefixes.size(), truth.plan.prefixes.size());
  EXPECT_EQ(decoded.plan.by_origin.size(), truth.plan.by_origin.size());
  EXPECT_EQ(decoded.gen.policies.by_as.size(), truth.gen.policies.by_as.size());
  EXPECT_EQ(decoded.originations.size(), truth.originations.size());
}

TEST(ArtifactCodec, SimulatingFromDecodedTruthIsByteIdentical) {
  core::Experiment& experiment = shared_experiment();
  const core::GroundTruth decoded =
      decode_ground_truth(encode(experiment.truth()));
  // The decisive fidelity check: running the Simulate stage on the decoded
  // ground truth must reproduce the original simulation artifact to the
  // byte (graph neighbor order drives propagation event order).
  const core::SimArtifact resimulated =
      core::simulate(experiment.scenario(), decoded, 1);
  EXPECT_EQ(encode(resimulated), encode(experiment.sim()));
}

TEST(ArtifactCodec, SimArtifactRoundtrip) {
  const core::SimArtifact& sim = shared_experiment().sim();
  const std::vector<std::uint8_t> bytes = encode(sim);
  const core::SimArtifact decoded = decode_sim_artifact(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(decoded.sim.collector.route_count(),
            sim.sim.collector.route_count());
  EXPECT_EQ(decoded.sim.looking_glass.size(), sim.sim.looking_glass.size());
  EXPECT_EQ(decoded.sim.best_only.size(), sim.sim.best_only.size());
  EXPECT_EQ(decoded.sim.process_events, sim.sim.process_events);
  EXPECT_EQ(decoded.vantage.collector_peers, sim.vantage.collector_peers);
}

TEST(ArtifactCodec, ObservationsRoundtripAndInferenceFidelity) {
  core::Experiment& experiment = shared_experiment();
  const core::Observations& observations = experiment.observations();
  const std::vector<std::uint8_t> bytes = encode(observations);
  const core::Observations decoded = decode_observations(bytes);
  EXPECT_EQ(encode(decoded), bytes);

  EXPECT_EQ(decoded.irr_text, observations.irr_text);
  ASSERT_EQ(decoded.irr_objects.size(), observations.irr_objects.size());
  for (std::size_t i = 0; i < observations.irr_objects.size(); ++i) {
    EXPECT_EQ(decoded.irr_objects[i], observations.irr_objects[i]);
  }
  EXPECT_EQ(decoded.observed_paths.path_count(),
            observations.observed_paths.path_count());
  EXPECT_EQ(decoded.paths.path_count(), observations.paths.path_count());
  EXPECT_EQ(decoded.paths.adjacency_count(),
            observations.paths.adjacency_count());

  // Inference over decoded observations matches inference over originals.
  asrel::GaoParams params;
  params.threads = 1;
  const core::InferenceProducts from_decoded =
      core::infer_relationships(decoded, params);
  const core::InferenceProducts from_original =
      core::infer_relationships(observations, params);
  EXPECT_EQ(asrel::canonical_serialize(from_decoded.inferred),
            asrel::canonical_serialize(from_original.inferred));
  EXPECT_EQ(asrel::canonical_serialize(from_decoded.tiers),
            asrel::canonical_serialize(from_original.tiers));
}

TEST(ArtifactCodec, InferenceProductsRoundtrip) {
  const core::InferenceProducts& inference = shared_experiment().inference();
  const std::vector<std::uint8_t> bytes = encode(inference);
  const core::InferenceProducts decoded = decode_inference(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(asrel::canonical_serialize(decoded.inferred),
            asrel::canonical_serialize(inference.inferred));
  EXPECT_EQ(asrel::canonical_serialize(decoded.tiers),
            asrel::canonical_serialize(inference.tiers));
  // The annotated graph is rebuilt from the classification.
  EXPECT_EQ(decoded.inferred_graph.as_count(),
            inference.inferred_graph.as_count());
  EXPECT_EQ(decoded.inferred_graph.edge_count(),
            inference.inferred_graph.edge_count());
}

TEST(ArtifactCodec, AnalysisSuiteRoundtrip) {
  const core::AnalysisSuite& suite = shared_experiment().analyses();
  const std::vector<std::uint8_t> bytes = encode(suite);
  const core::AnalysisSuite decoded = decode_analysis_suite(bytes);
  EXPECT_EQ(encode(decoded), bytes);
  EXPECT_EQ(core::canonical_serialize(decoded),
            core::canonical_serialize(suite));
}

TEST(ArtifactCodec, TruncatedInputThrowsAtEveryLength) {
  const std::vector<std::uint8_t> bytes = encode(shared_experiment().inference());
  // Every proper prefix must be rejected (header first, then payload-length
  // mismatch); step keeps the loop fast on larger artifacts.
  for (std::size_t size = 0; size < bytes.size();
       size += std::max<std::size_t>(1, bytes.size() / 257)) {
    EXPECT_THROW(
        (void)decode_inference(std::span<const std::uint8_t>(bytes.data(), size)),
        std::invalid_argument)
        << "accepted a " << size << "-byte prefix of " << bytes.size();
  }
}

TEST(ArtifactCodec, BitCorruptionThrows) {
  const std::vector<std::uint8_t> original = encode(shared_experiment().sim());
  // Flip one byte at several positions across header and payload: the
  // checksum (or a structural check) must catch each.
  for (const double at : {0.0, 0.1, 0.5, 0.9}) {
    std::vector<std::uint8_t> corrupted = original;
    const std::size_t index =
        std::min(corrupted.size() - 1,
                 static_cast<std::size_t>(at * static_cast<double>(
                                                   corrupted.size())));
    corrupted[index] ^= 0x40;
    EXPECT_THROW((void)decode_sim_artifact(corrupted), std::invalid_argument)
        << "accepted corruption at byte " << index;
  }
}

TEST(ArtifactCodec, VersionAndKindMismatchThrow) {
  std::vector<std::uint8_t> bytes = encode(shared_experiment().inference());
  // Bytes 4..5 hold the little-endian codec version.
  std::vector<std::uint8_t> future = bytes;
  future[4] = static_cast<std::uint8_t>(kArtifactCodecVersion + 1);
  EXPECT_THROW((void)decode_inference(future), std::invalid_argument);

  // A valid artifact of a different kind must be rejected up front.
  EXPECT_THROW((void)decode_sim_artifact(bytes), std::invalid_argument);
  EXPECT_THROW((void)decode_ground_truth(bytes), std::invalid_argument);

  // Foreign bytes entirely.
  const std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', 0, 1, 2, 3};
  EXPECT_THROW((void)decode_observations(garbage), std::invalid_argument);
  EXPECT_THROW((void)decode_analysis_suite({}), std::invalid_argument);
}

// ------------------------------------------------- one-pass checked bytes --

constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;

std::uint64_t u64_at(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void set_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// Rewrites the header's payload length and checksum to fit the payload.
void reframe(std::vector<std::uint8_t>& bytes) {
  const auto payload =
      std::span<const std::uint8_t>(bytes).subspan(kArtifactHeaderBytes);
  set_u64(bytes, 8, payload.size());
  set_u64(bytes, 16, core::fnv1a64(payload, kChecksumSeed));
}

TEST(CheckedArtifact, DigestEqualsStableDigest) {
  // The known answers of ArtifactStore.DigestMatchesKnownAnswers.
  const CheckedArtifact empty{std::vector<std::uint8_t>{}};
  EXPECT_EQ(empty.digest(), "cbf29ce4842223256c62272e07bb0142");
  EXPECT_FALSE(empty.checksum_matches());
  const CheckedArtifact hello{std::vector<std::uint8_t>{'h', 'e', 'l', 'l', 'o'}};
  EXPECT_EQ(hello.digest(), "a430d84680aabd0b6aaf3b071d3ffa4a");

  // Random buffers, shorter than a header, exactly one, and longer: the
  // digest never depends on where the checksum lane starts.
  std::mt19937_64 rng(20);
  for (const std::size_t size : {1u, 7u, 23u, 24u, 25u, 100u, 4099u}) {
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
    const std::string expected = core::stable_digest_hex(bytes);
    const CheckedArtifact checked{bytes};
    EXPECT_EQ(checked.digest(), expected) << size << " bytes";
    EXPECT_FALSE(checked.checksum_matches()) << size << " bytes";
    if (size >= kArtifactHeaderBytes) {
      reframe(bytes);  // a header whose checksum fits the random payload
      const CheckedArtifact framed{bytes};
      EXPECT_EQ(framed.digest(), core::stable_digest_hex(bytes));
      EXPECT_TRUE(framed.checksum_matches()) << size << " bytes";
    }
  }
}

TEST(CheckedArtifact, CheckedDecodersMatchTheSpanDecoders) {
  core::Experiment& experiment = shared_experiment();
  const auto check = [](const std::vector<std::uint8_t>& bytes,
                        auto decode) {
    const CheckedArtifact checked{bytes};
    EXPECT_TRUE(checked.checksum_matches());
    EXPECT_EQ(checked.digest(), core::stable_digest_hex(bytes));
    EXPECT_EQ(encode(decode(checked)), bytes);
    // One flipped byte in the checksum field, then one in the payload: the
    // verdict rejects both before the payload is parsed.
    for (const std::size_t at : {std::size_t{17}, bytes.size() - 2}) {
      std::vector<std::uint8_t> damaged = bytes;
      damaged[at] ^= 0x10;
      const CheckedArtifact bad{damaged};
      EXPECT_FALSE(bad.checksum_matches()) << "byte " << at;
      EXPECT_THROW((void)decode(bad), std::invalid_argument) << "byte " << at;
    }
  };
  check(encode(experiment.truth()),
        [](const CheckedArtifact& c) { return decode_ground_truth(c); });
  check(encode(experiment.sim()),
        [](const CheckedArtifact& c) { return decode_sim_artifact(c); });
  check(encode(experiment.observations()),
        [](const CheckedArtifact& c) { return decode_observations(c); });
  check(encode(experiment.inference()),
        [](const CheckedArtifact& c) { return decode_inference(c); });
  check(encode(experiment.analyses()),
        [](const CheckedArtifact& c) { return decode_analysis_suite(c); });

  // A checked artifact of another kind is rejected like any other.
  const CheckedArtifact sim{encode(experiment.sim())};
  EXPECT_THROW((void)decode_observations(sim), std::invalid_argument);
}

// ------------------------------------------------------ SimArtifact blobs --

/// Offsets of every table blob's u64 length prefix in an encoded
/// SimArtifact, in stored order (collector, looking glasses, best-only).
std::vector<std::size_t> table_blobs(std::span<const std::uint8_t> bytes) {
  std::size_t at = kArtifactHeaderBytes + sizeof(std::uint32_t);
  for (int list = 0; list < 3; ++list) {  // collector peers, LGs, best-only
    at += sizeof(std::uint64_t) + sizeof(std::uint32_t) * u64_at(bytes, at);
  }
  std::vector<std::size_t> blobs{at};
  at += sizeof(std::uint64_t) + u64_at(bytes, at);
  for (int kind = 0; kind < 2; ++kind) {
    const std::uint64_t tables = u64_at(bytes, at);
    at += sizeof(std::uint64_t);
    for (std::uint64_t i = 0; i < tables; ++i) {
      at += sizeof(std::uint32_t);
      blobs.push_back(at);
      at += sizeof(std::uint64_t) + u64_at(bytes, at);
    }
  }
  EXPECT_EQ(at + 3 * sizeof(std::uint64_t), bytes.size());
  return blobs;
}

TEST(ArtifactCodec, TruncatedMiddleTableBlobThrows) {
  // Cut four bytes off a middle table blob, then rewrite its length prefix
  // and the frame to match: the frame accepts the bytes, so the table
  // decode must reject them.
  std::vector<std::uint8_t> bytes = encode(shared_experiment().sim());
  const std::vector<std::size_t> blobs = table_blobs(bytes);
  ASSERT_GE(blobs.size(), 3u);
  const std::size_t middle = blobs[blobs.size() / 2];
  const std::uint64_t length = u64_at(bytes, middle);
  const auto blob_end =
      bytes.begin() + static_cast<std::ptrdiff_t>(middle + 8 + length);
  bytes.erase(blob_end - 4, blob_end);
  set_u64(bytes, middle, length - 4);
  reframe(bytes);
  const CheckedArtifact checked{bytes};
  ASSERT_TRUE(checked.checksum_matches());

  EXPECT_THROW((void)decode_sim_artifact(bytes), std::invalid_argument);
  EXPECT_THROW((void)decode_sim_artifact(checked), std::invalid_argument);
}

TEST(ArtifactCodec, DecodedPathIndexKeepsInsertionOrder) {
  const core::PathIndex& original = shared_experiment().observations().paths;
  const core::Observations decoded =
      decode_observations(encode(shared_experiment().observations()));
  const core::PathIndex& replayed = decoded.paths;
  ASSERT_EQ(replayed.path_count(), original.path_count());
  const auto same = [](const auto& a, const auto& b) {
    return std::ranges::equal(a, b, [](auto x, auto y) {
      return std::ranges::equal(x, y);
    });
  };
  for (std::size_t i = 0; i < original.path_count(); ++i) {
    const auto path = original.path_at(i);
    EXPECT_TRUE(same(replayed.paths_for_prefix(original.prefix_at(i)),
                     original.paths_for_prefix(original.prefix_at(i))));
    EXPECT_TRUE(same(replayed.paths_from_origin(path.back()),
                     original.paths_from_origin(path.back())));
  }
}

}  // namespace
}  // namespace bgpolicy::io
