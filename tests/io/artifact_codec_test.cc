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
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/artifact_store.h"
#include "core/scenario.h"
#include "core/scenario_spec.h"
#include "sim/policy_gen.h"
#include "testing/scoped_store.h"
#include "util/flat_map.h"

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

TEST(ArtifactCodec, SmallArtifactDigestsPinned) {
  // Every artifact's stored bytes, pinned where the sanitizer jobs run them:
  // a field written in another order moves its artifact's digest.
  core::Experiment& experiment = shared_experiment();
  EXPECT_EQ(core::store_digest_hex(encode(experiment.truth())), "d197754e937acc02acdd9f52b0f23244");
  EXPECT_EQ(core::store_digest_hex(encode(experiment.sim())), "e96fc244f39d4829628d3f00921c86ec");
  EXPECT_EQ(core::store_digest_hex(encode(experiment.observations())),
            "743a1197ae7e32a88b1454f52c207657");
  EXPECT_EQ(core::store_digest_hex(encode(experiment.inference())),
            "f29e22a29959c2b7ad8fb2a1d0c0d39a");
  EXPECT_EQ(core::store_digest_hex(encode(experiment.analyses())),
            "2c8772593f7e6c89a276c20abee5adc6");
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
  set_u64(bytes, 16, core::xxh64(payload, kChecksumSeed));
}

/// Every cut of `bytes` is rejected by `decode` over the bytes and over a
/// CheckedArtifact of them.  Cuts that keep a whole header are reframed, so
/// the header's length and checksum accept them and the payload decoder
/// itself must find the truncation; `step` strides the cuts of the large
/// artifacts.
template <typename Decode>
void expect_every_cut_rejected(const std::vector<std::uint8_t>& bytes,
                               std::size_t step, Decode decode) {
  for (std::size_t size = 0; size < bytes.size();
       size += size < kArtifactHeaderBytes ? 1 : step) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(size));
    if (size >= kArtifactHeaderBytes) reframe(cut);
    EXPECT_THROW((void)decode(std::span<const std::uint8_t>(cut)),
                 std::invalid_argument)
        << "accepted a " << size << "-byte cut of " << bytes.size();
    const CheckedArtifact checked{std::move(cut)};
    EXPECT_THROW((void)decode(checked), std::invalid_argument)
        << "accepted a checked " << size << "-byte cut of " << bytes.size();
  }
}

/// A compact world whose policy-truth lists are all populated, for cuts at
/// every length (one decode per byte): small's tier-1/tier-2 roster with
/// fewer edge ASes and every generator feature made common.
core::Experiment& compact_experiment() {
  static core::Experiment* experiment = [] {
    core::Scenario scenario = core::Scenario::small(21);
    scenario.topo_params.tier3_count = 10;
    scenario.topo_params.stub_count = 30;
    scenario.alloc_params.max_stub_prefixes = 2;
    sim::PolicyGenParams& policy = scenario.policy_params;
    policy.atypical_neighbor_prob = 0.2;
    policy.splitting_as_prob = 0.3;
    policy.aggregation_prob = 0.5;
    policy.peer_withhold_prob = 0.5;
    policy.prepend_as_prob = 0.5;
    policy.intermediate_selective_prob = 0.5;
    core::RunOptions options;
    options.threads = 1;
    auto* e = new core::Experiment(scenario, options);
    e->run();
    return e;
  }();
  return *experiment;
}

TEST(ArtifactCodec, TruncatedInputThrowsAtEveryLength) {
  core::Experiment& compact = compact_experiment();
  // The generator writes no conditional advertisement or no-export target
  // here; one of each puts those reads under the cuts too.
  core::GroundTruth truth = compact.truth();
  const sim::Origination& first = truth.originations.front();
  sim::AsPolicy& policy = truth.gen.policies.at_mut(first.origin);
  policy.conditional.push_back({first.prefix, AsNumber(1), AsNumber(2)});
  policy.no_export_targets.push_back(AsNumber(3));
  const sim::GroundTruth& units = truth.gen.truth;
  ASSERT_FALSE(units.origin_units.empty());
  ASSERT_FALSE(units.prepend_units.empty());
  ASSERT_FALSE(units.intermediate_units.empty());
  ASSERT_FALSE(units.split_specifics.empty());
  ASSERT_FALSE(units.aggregated_by.empty());
  ASSERT_FALSE(units.peer_withholders.empty());
  ASSERT_FALSE(truth.gen.split_extras.empty());

  expect_every_cut_rejected(encode(truth), 1, [](const auto& bytes) {
    return decode_ground_truth(bytes);
  });
  expect_every_cut_rejected(encode(compact.inference()), 1,
                            [](const auto& bytes) {
                              return decode_inference(bytes);
                            });
  expect_every_cut_rejected(encode(compact.analyses()), 1,
                            [](const auto& bytes) {
                              return decode_analysis_suite(bytes);
                            });

  // small(21)'s five artifacts at strided lengths.
  core::Experiment& experiment = shared_experiment();
  const auto strided = [](const std::vector<std::uint8_t>& bytes,
                          auto decode) {
    expect_every_cut_rejected(bytes, bytes.size() / 257 + 1, decode);
  };
  strided(encode(experiment.truth()),
          [](const auto& bytes) { return decode_ground_truth(bytes); });
  strided(encode(experiment.sim()),
          [](const auto& bytes) { return decode_sim_artifact(bytes); });
  strided(encode(experiment.observations()),
          [](const auto& bytes) { return decode_observations(bytes); });
  strided(encode(experiment.inference()),
          [](const auto& bytes) { return decode_inference(bytes); });
  strided(encode(experiment.analyses()),
          [](const auto& bytes) { return decode_analysis_suite(bytes); });
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

TEST(CheckedArtifact, DigestEqualsStoreDigest) {
  // The known answers of ArtifactStore.Xxh64MatchesKnownAnswers.
  const CheckedArtifact empty{std::vector<std::uint8_t>{}};
  EXPECT_EQ(empty.digest(), "ef46db3751d8e999c4349fc93c010000");
  EXPECT_FALSE(empty.checksum_matches());
  const CheckedArtifact hello{std::vector<std::uint8_t>{'h', 'e', 'l', 'l', 'o'}};
  EXPECT_EQ(hello.digest(), "26c7827d889f6da3040982e185e9c819");

  // Random buffers, shorter than a header, exactly one, and longer: the
  // digest covers every byte, header included.
  std::mt19937_64 rng(20);
  for (const std::size_t size : {1u, 7u, 23u, 24u, 25u, 100u, 4099u}) {
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
    const std::string expected = core::store_digest_hex(bytes);
    const CheckedArtifact checked{bytes};
    EXPECT_EQ(checked.digest(), expected) << size << " bytes";
    EXPECT_FALSE(checked.checksum_matches()) << size << " bytes";
    if (size >= kArtifactHeaderBytes) {
      reframe(bytes);  // a header whose checksum fits the random payload
      const CheckedArtifact framed{bytes};
      EXPECT_EQ(framed.digest(), core::store_digest_hex(bytes));
      EXPECT_NE(framed.digest(), expected) << size << " bytes";
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
    EXPECT_EQ(checked.digest(), core::store_digest_hex(bytes));
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

TEST(CheckedArtifact, MappedEntryAgreesWithOwnedBytes) {
  // Each of the five stage artifacts, intact and with one payload byte
  // flipped, stored and checked once over the store's mapping and once
  // over a copy: same digest, same verdict, same decoded content.
  core::Experiment& experiment = shared_experiment();
  testing::ScopedStore store;
  const auto check = [&](const std::string& key,
                         const std::vector<std::uint8_t>& bytes,
                         auto decode) {
    for (const bool damage : {false, true}) {
      SCOPED_TRACE(key + (damage ? " damaged" : ""));
      std::vector<std::uint8_t> stored = bytes;
      if (damage) stored[stored.size() / 2] ^= 0x01;
      ASSERT_TRUE(store->put(key, stored));
      std::optional<core::MappedEntry> entry = store->map(key);
      ASSERT_TRUE(entry.has_value());
      const CheckedArtifact mapped(std::move(*entry));
      const CheckedArtifact owned(stored);
      EXPECT_TRUE(std::ranges::equal(mapped.bytes(), stored));
      EXPECT_EQ(mapped.digest(), owned.digest());
      EXPECT_EQ(mapped.digest(), core::store_digest_hex(stored));
      EXPECT_EQ(mapped.checksum_matches(), !damage);
      EXPECT_EQ(owned.checksum_matches(), !damage);
      if (damage) {
        EXPECT_THROW((void)decode(mapped), std::invalid_argument);
        EXPECT_THROW((void)decode(owned), std::invalid_argument);
      } else {
        EXPECT_EQ(encode(decode(mapped)), bytes);
        EXPECT_EQ(encode(decode(owned)), bytes);
      }
    }
  };
  check("truth", encode(experiment.truth()),
        [](const CheckedArtifact& c) { return decode_ground_truth(c); });
  check("sim", encode(experiment.sim()),
        [](const CheckedArtifact& c) { return decode_sim_artifact(c); });
  check("observations", encode(experiment.observations()),
        [](const CheckedArtifact& c) { return decode_observations(c); });
  check("inference", encode(experiment.inference()),
        [](const CheckedArtifact& c) { return decode_inference(c); });
  check("analyses", encode(experiment.analyses()),
        [](const CheckedArtifact& c) { return decode_analysis_suite(c); });
  // Every read above is one mapping hashed in one pass, and none copied.
  const core::StoreWork work = store->work();
  EXPECT_EQ(work.entries_mapped, 10u);
  EXPECT_EQ(work.hash_passes, 10u);
  EXPECT_EQ(work.bytes_hashed, work.bytes_mapped);
  EXPECT_EQ(work.bytes_copied, 0u);
}

TEST(CheckedArtifact, MappingOutlivesEraseReplaceAndEviction) {
  // The store replaces an entry by rename and removes it by unlink, never
  // in place, so a CheckedArtifact holding the mapping decodes what it
  // mapped after its entry is erased, replaced or evicted by gc().
  core::Experiment& experiment = shared_experiment();
  const std::vector<std::uint8_t> bytes = encode(experiment.sim());
  const std::vector<std::uint8_t> other = encode(experiment.truth());
  testing::ScopedStore store;
  const auto held = [&] {
    EXPECT_TRUE(store->put("sim", bytes));
    auto checked =
        std::make_unique<CheckedArtifact>(std::move(*store->map("sim")));
    EXPECT_TRUE(checked->checksum_matches());
    return checked;
  };
  const auto decodes = [&](const CheckedArtifact& checked) {
    EXPECT_TRUE(std::ranges::equal(checked.bytes(), bytes));
    EXPECT_EQ(encode(decode_sim_artifact(checked)), bytes);
  };

  const std::unique_ptr<CheckedArtifact> erased = held();
  ASSERT_TRUE(store->erase("sim"));
  decodes(*erased);

  const std::unique_ptr<CheckedArtifact> replaced = held();
  ASSERT_TRUE(store->put("sim", other));
  decodes(*replaced);
  EXPECT_EQ(store->load("sim"), other);

  const std::unique_ptr<CheckedArtifact> evicted = held();
  EXPECT_EQ(store->gc(0).evicted, 1u);
  EXPECT_FALSE(store->contains("sim"));
  decodes(*evicted);
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

// ---------------------------------------------------------- hostile bytes --
//
// Damaged column data behind a frame that accepts it (payload length and
// checksum rewritten to fit): every case is rejected by the span decoder
// and by the checked decoder, and a store holding it misses and
// recomputes the stage with the cold run's digests.

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A cold small(7) run through Observe in a store: the entries the hostile
/// cases overwrite, and the digests a recompute must reproduce.
struct HostileFixture {
  core::Scenario scenario = core::Scenario::small(7);
  testing::ScopedStore store;
  std::vector<std::uint8_t> sim;
  std::vector<std::uint8_t> observations;
  std::string sim_digest;
  std::string observe_digest;

  HostileFixture() {
    core::RunOptions options;
    options.store = store.get();
    options.until = core::Stage::kObserve;
    core::Experiment cold(scenario, options);
    cold.run();
    sim = encode(cold.sim());
    observations = encode(cold.observations());
    sim_digest = cold.stage_digest(core::Stage::kSimulate);
    observe_digest = cold.stage_digest(core::Stage::kObserve);
  }

  /// The store file holding the entry of `kind`.
  std::filesystem::path entry(ArtifactKind kind) {
    for (const core::ArtifactStore::Entry& e : store->list()) {
      const auto header = peek_artifact_header(read_file(e.path));
      if (header && header->kind == static_cast<std::uint16_t>(kind)) {
        return e.path;
      }
    }
    ADD_FAILURE() << "no " << to_string(kind) << " entry";
    return {};
  }
};

HostileFixture& hostile_fixture() {
  static HostileFixture* fixture = new HostileFixture();
  return *fixture;
}

void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// `damaged` (reframed) is rejected by both decoders of `kind`, and a
/// resume over a store holding it recomputes that stage with the cold
/// digests (which heals the entry for the next case).
void expect_miss(ArtifactKind kind, const std::vector<std::uint8_t>& damaged,
                 const std::string& what) {
  SCOPED_TRACE(what);
  const bool is_sim = kind == ArtifactKind::kSimArtifact;
  const CheckedArtifact checked{damaged};
  EXPECT_TRUE(checked.checksum_matches());
  if (is_sim) {
    EXPECT_THROW((void)decode_sim_artifact(damaged), std::invalid_argument);
    EXPECT_THROW((void)decode_sim_artifact(checked), std::invalid_argument);
  } else {
    EXPECT_THROW((void)decode_observations(damaged), std::invalid_argument);
    EXPECT_THROW((void)decode_observations(checked), std::invalid_argument);
  }

  HostileFixture& f = hostile_fixture();
  write_file(f.entry(kind), damaged);
  core::RunOptions options;
  options.store = f.store.get();
  options.until = core::Stage::kObserve;
  core::Experiment resumed(f.scenario, options);
  resumed.run();
  EXPECT_EQ(resumed.counters().simulate, is_sim ? 1u : 0u);
  EXPECT_EQ(resumed.counters().observe, is_sim ? 0u : 1u);
  EXPECT_EQ(resumed.stage_digest(core::Stage::kSimulate), f.sim_digest);
  EXPECT_EQ(resumed.stage_digest(core::Stage::kObserve), f.observe_digest);
}

/// The payload with `edit` applied, behind a frame that fits it.
std::vector<std::uint8_t> edited(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(std::vector<std::uint8_t>&)>& edit) {
  std::vector<std::uint8_t> out = bytes;
  edit(out);
  reframe(out);
  return out;
}

/// Column boundaries of the Observations payload's Gao and path-index
/// sections (the Observations field list's two hand-written buffers in
/// artifact_codec.cc), which close the payload.
struct ObservationColumns {
  std::size_t gao, gao_lengths, gao_hops, edges, degree, degree_values, ases,
      index, index_lengths, index_hops, networks, prefix_lengths, adjacency,
      end;
};

ObservationColumns observation_columns(const std::vector<std::uint8_t>& bytes,
                                       const core::Observations& decoded) {
  const asrel::GaoInference& gao = decoded.observed_paths;
  const core::PathIndex& index = decoded.paths;
  ObservationColumns c{};
  c.end = bytes.size();
  c.adjacency = c.end - (8 + 1 + 8 * index.adjacency().keys().size());
  c.prefix_lengths = c.adjacency - index.path_count();
  c.networks = c.prefix_lengths - 4 * index.path_count();
  c.index_hops = c.networks - 4 * index.hops().size();
  c.index_lengths = c.index_hops - 2 * index.path_count();
  c.index = c.index_lengths - 16;
  c.ases = c.index - (8 + 4 * gao.ases().size());
  c.degree_values = c.ases - 4 * gao.degrees().keys().size();
  c.degree = c.degree_values - (8 + 8 * gao.degrees().keys().size());
  c.edges = c.degree - (8 + 1 + 8 * gao.edges().keys().size());
  c.gao_hops = c.edges - 4 * gao.hops().size();
  c.gao_lengths = c.gao_hops - 2 * gao.path_count();
  c.gao = c.gao_lengths - 16;
  EXPECT_EQ(u64_at(bytes, c.gao), gao.path_count());
  EXPECT_EQ(u64_at(bytes, c.index), index.path_count());
  return c;
}

TEST(HostileBytes, ObservationColumnsAreRejectedAndMiss) {
  const std::vector<std::uint8_t>& bytes = hostile_fixture().observations;
  const core::Observations decoded = decode_observations(bytes);
  const ObservationColumns c = observation_columns(bytes, decoded);

  // Truncation at every column boundary.
  for (const std::size_t cut :
       {c.gao, c.gao + 8, c.gao_lengths, c.gao_hops, c.edges, c.edges + 8,
        c.edges + 9, c.degree, c.degree + 8, c.degree_values, c.ases,
        c.ases + 8, c.index, c.index + 8, c.index_lengths, c.index_hops,
        c.networks, c.prefix_lengths, c.adjacency, c.adjacency + 8,
        c.adjacency + 9, c.end - 1}) {
    expect_miss(ArtifactKind::kObservations,
                edited(bytes, [&](auto& b) { b.resize(cut); }),
                "cut at " + std::to_string(cut));
  }

  // Every count field one off either way.
  for (const std::size_t field : {c.gao, c.gao + 8, c.edges, c.degree, c.ases,
                                  c.index, c.index + 8, c.adjacency}) {
    for (const std::uint64_t delta : {std::uint64_t{1}, ~std::uint64_t{0}}) {
      expect_miss(ArtifactKind::kObservations,
                  edited(bytes,
                         [&](auto& b) {
                           set_u64(b, field, u64_at(bytes, field) + delta);
                         }),
                  "count field at " + std::to_string(field));
    }
  }

  // A strided sample of path lengths, one more or one less: the lengths
  // miss their hop buffer's size.
  for (const auto& [column, count] :
       {std::pair{c.gao_lengths, decoded.observed_paths.path_count()},
        std::pair{c.index_lengths, decoded.paths.path_count()}}) {
    for (std::size_t i = 0; i < count; i += count / 5 + 1) {
      for (const int delta : {1, -1}) {
        expect_miss(ArtifactKind::kObservations,
                    edited(bytes,
                           [&](auto& b) {
                             std::uint16_t length;
                             std::memcpy(&length, b.data() + column + 2 * i, 2);
                             length =
                                 static_cast<std::uint16_t>(length + delta);
                             std::memcpy(b.data() + column + 2 * i, &length, 2);
                           }),
                    "path length " + std::to_string(i));
      }
    }
  }

  // A Gao path below one edge: the first path one hop shorter, the second
  // one longer, so the lengths still sum to the hop count.
  expect_miss(ArtifactKind::kObservations, edited(bytes, [&](auto& b) {
                std::uint16_t first;
                std::uint16_t second;
                std::memcpy(&first, b.data() + c.gao_lengths, 2);
                std::memcpy(&second, b.data() + c.gao_lengths + 2, 2);
                const std::uint16_t shorter = 1;
                const auto longer =
                    static_cast<std::uint16_t>(second + first - shorter);
                std::memcpy(b.data() + c.gao_lengths, &shorter, 2);
                std::memcpy(b.data() + c.gao_lengths + 2, &longer, 2);
              }),
              "a one-hop Gao path");

  expect_miss(ArtifactKind::kObservations,
              edited(bytes, [&](auto& b) { b[c.prefix_lengths] = 33; }),
              "prefix length 33");
  expect_miss(ArtifactKind::kObservations,
              edited(bytes, [&](auto& b) { b[c.adjacency + 8] = 2; }),
              "a set flag of 2");

  // A stored set whose slot count is not a power of two.
  expect_miss(ArtifactKind::kObservations, edited(bytes, [&](auto& b) {
                b.resize(c.adjacency);
                const std::uint64_t slots = 3;
                b.resize(b.size() + 9 + 8 * slots, 0xff);
                set_u64(b, c.adjacency, slots);
                b[c.adjacency + 8] = 0;
              }),
              "a set of 3 slots");
  // And one whose key sits outside its probe sequence: two slots, each
  // key in the other's home slot.
  expect_miss(ArtifactKind::kObservations, edited(bytes, [&](auto& b) {
                std::uint64_t home_even = 0;
                while (util::mix64(home_even) % 64 != 0) ++home_even;
                b.resize(c.adjacency);
                b.resize(b.size() + 9 + 8 * 64, 0xff);
                set_u64(b, c.adjacency, 64);
                b[c.adjacency + 8] = 0;
                set_u64(b, c.adjacency + 9 + 8, home_even);
              }),
              "a key out of its probe slot");
}

/// The offset of the SimArtifact's largest table blob's length prefix.
std::size_t largest_table_blob(std::span<const std::uint8_t> bytes) {
  std::size_t largest = 0;
  for (const std::size_t blob : table_blobs(bytes)) {
    if (largest == 0 || u64_at(bytes, blob) > u64_at(bytes, largest)) {
      largest = blob;
    }
  }
  return largest;
}

TEST(HostileBytes, SimArtifactTableColumnsAreRejectedAndMiss) {
  const std::vector<std::uint8_t>& bytes = hostile_fixture().sim;
  const std::size_t blob = largest_table_blob(bytes);
  const std::size_t table = blob + 8;  // past the blob's length prefix
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t value;
    std::memcpy(&value, bytes.data() + table + at, sizeof(value));
    return std::size_t{value};
  };
  const std::size_t prefixes = u32_at(10);
  const std::size_t rows = u32_at(14);
  const std::size_t networks = 26;
  const std::size_t lengths = networks + 4 * prefixes;
  const std::size_t row_counts = lengths + prefixes;
  const std::size_t learned_from = row_counts + 4 * prefixes;
  const std::size_t origin = learned_from + 12 * rows;
  const std::size_t hop_counts = origin + rows;
  const std::size_t hops = hop_counts + 4 * rows;
  const std::size_t end = u64_at(bytes, blob);

  // Truncation at every column boundary of the blob (its length prefix
  // rewritten to match).
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{10}, networks, lengths, row_counts,
        learned_from, learned_from + 4 * rows, learned_from + 8 * rows,
        origin, hop_counts, hop_counts + 2 * rows, hops,
        hops + 4 * u32_at(18), end - 1}) {
    expect_miss(ArtifactKind::kSimArtifact, edited(bytes, [&](auto& b) {
                  const auto from = b.begin() +
                                    static_cast<std::ptrdiff_t>(table + cut);
                  b.erase(from, from + static_cast<std::ptrdiff_t>(end - cut));
                  set_u64(b, blob, cut);
                }),
                "cut at " + std::to_string(cut));
  }
  // Each count field of the table header.
  for (const std::size_t field : {10, 14, 18, 22}) {
    expect_miss(ArtifactKind::kSimArtifact, edited(bytes, [&](auto& b) {
                  const std::uint32_t bumped =
                      static_cast<std::uint32_t>(u32_at(field) + 1);
                  std::memcpy(b.data() + table + field, &bumped, 4);
                }),
                "count field at " + std::to_string(field));
  }
  expect_miss(ArtifactKind::kSimArtifact,
              edited(bytes, [&](auto& b) { b[table + lengths] = 33; }),
              "prefix length 33");
  expect_miss(ArtifactKind::kSimArtifact,
              edited(bytes, [&](auto& b) { b[table + origin + rows / 2] = 3; }),
              "origin 3");
  expect_miss(ArtifactKind::kSimArtifact, edited(bytes, [&](auto& b) {
                const auto last =
                    static_cast<std::uint32_t>(u32_at(learned_from - 4) + 1);
                std::memcpy(b.data() + table + learned_from - 4, &last, 4);
              }),
              "a row range past the row count");
}

// A SimArtifact the per-route layout wrote (tag 2; anycast_catchment.scn),
// kept as it was written.  Planted under today's Simulate key, a resume
// reads it — and rejects it at the header, before any payload byte.
const std::vector<std::uint8_t> kPerRouteSimArtifact = {
    0x42, 0x47, 0x50, 0x41, 0x01, 0x00, 0x02, 0x00, 0xfe, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x9f, 0xf8, 0x15, 0x9e, 0xda, 0x55, 0xc0, 0xf1,
    0x08, 0x1a, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00,
    0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa2, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x42, 0x47, 0x50, 0x54, 0x01, 0x00, 0x08, 0x1a,
    0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x63, 0x0a, 0x18, 0x0a, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x14, 0x00,
    0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x63, 0x0a, 0x18, 0x14, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x14, 0x00, 0x00, 0x00,
    0x28, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x63, 0x0a, 0x18, 0x1e, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x1e, 0x00, 0x00, 0x00, 0x0a, 0x00,
    0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0xc8, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63, 0x0a, 0x18, 0x28, 0x00, 0x00,
    0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
    0x28, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00,
};

TEST(HostileBytes, PerRouteLayoutSimArtifactMissesAtTheHeader) {
  // Codec version 1 wrote it (an FNV-1a frame checksum): the peek reports
  // that version, and the decoder stops at the version check.
  const auto header = peek_artifact_header(kPerRouteSimArtifact);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->version, 1u);
  EXPECT_EQ(header->kind, 2u);
  EXPECT_EQ(header->payload_bytes + kArtifactHeaderBytes,
            kPerRouteSimArtifact.size());
  try {
    (void)decode_sim_artifact(kPerRouteSimArtifact);
    ADD_FAILURE() << "a per-route SimArtifact decoded";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "artifact: unsupported codec version");
  }

  // Planted under today's Simulate key.
  const core::Scenario scenario =
      core::ScenarioSpec::parse_file(std::filesystem::path(
                                         BGPOLICY_SCENARIO_DIR) /
                                     "anycast_catchment.scn")
          .scenario;
  testing::ScopedStore store;
  core::RunOptions options;
  options.store = store.get();
  options.until = core::Stage::kSimulate;
  core::Experiment cold(scenario, options);
  cold.run();
  const std::string sim_digest = cold.stage_digest(core::Stage::kSimulate);
  bool planted = false;
  for (const core::ArtifactStore::Entry& e : store->list()) {
    const auto entry_header = peek_artifact_header(read_file(e.path));
    if (entry_header && entry_header->kind == static_cast<std::uint16_t>(
                                                  ArtifactKind::kSimArtifact)) {
      write_file(e.path, kPerRouteSimArtifact);
      planted = true;
    }
  }
  ASSERT_TRUE(planted);
  core::Experiment resumed(scenario, options);
  resumed.run();
  EXPECT_EQ(resumed.counters().simulate, 1u);
  EXPECT_EQ(resumed.loads().simulate, 0u);
  EXPECT_EQ(resumed.stage_digest(core::Stage::kSimulate), sim_digest);
}

}  // namespace
}  // namespace bgpolicy::io
