// The artifact store + resume contract (ISSUE 4): stage artifacts persist
// across Experiment instances (the cross-process cache, exercised here via
// fresh in-process experiments over one store), corrupted entries degrade
// to recomputation with identical products, thread knobs never change
// cache identity, and a killed-and-restarted sweep recomputes only the
// missing variants — verified by the stage-run/load ledgers — while
// producing byte-identical products.
//
// ISSUE 5 extends the contract to chunk granularity and bounded stores: a
// run killed *mid-Simulate* leaves its finished chunk artifacts behind and
// a restarted run recomputes only the missing chunks (byte-identical
// merged products), and gc() evicts least-recently-accessed entries while
// never touching pins (in-progress chunk protection) or fresh files.
#include "core/artifact_store.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"
#include "io/binary_table.h"
#include "sim/simulation.h"
#include "testing/scoped_store.h"

namespace bgpolicy::core {
namespace {

using testing::ScopedStore;
using util::AsNumber;

std::string products_digest(const InferenceProducts& inference,
                            const AnalysisSuite& analyses) {
  return asrel::canonical_serialize(inference.inferred) +
         asrel::canonical_serialize(inference.tiers) +
         canonical_serialize(analyses);
}

TEST(ArtifactStore, PutLoadContainsErase) {
  ScopedStore store;
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 250, 0, 7};

  EXPECT_FALSE(store->contains("some-key"));
  EXPECT_FALSE(store->load("some-key").has_value());

  EXPECT_TRUE(store->put("some-key", bytes));
  EXPECT_TRUE(store->contains("some-key"));
  EXPECT_EQ(store->load("some-key"), bytes);
  EXPECT_EQ(store->size(), 1u);

  // Same key, new content: replaced atomically.
  const std::vector<std::uint8_t> updated = {9, 9};
  EXPECT_TRUE(store->put("some-key", updated));
  EXPECT_EQ(store->load("some-key"), updated);
  EXPECT_EQ(store->size(), 1u);

  EXPECT_TRUE(store->erase("some-key"));
  EXPECT_FALSE(store->contains("some-key"));
  EXPECT_FALSE(store->erase("some-key"));
}

TEST(ArtifactStore, DigestIsStableAndContentSensitive) {
  const std::string a = stable_digest_hex(std::string_view("hello"));
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(a, stable_digest_hex(std::string_view("hello")));
  EXPECT_NE(a, stable_digest_hex(std::string_view("hellp")));
  EXPECT_NE(a, stable_digest_hex(std::string_view("")));
}

TEST(ArtifactStore, DigestMatchesKnownAnswers) {
  // The digest is two 64-bit FNV-1a lanes; the empty input leaves both at
  // their offset bases.
  EXPECT_EQ(stable_digest_hex(std::string_view("")),
            "cbf29ce4842223256c62272e07bb0142");
  EXPECT_EQ(stable_digest_hex(std::string_view("hello")),
            "a430d84680aabd0b6aaf3b071d3ffa4a");
  const std::string_view hello = "hello";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(hello.data()), hello.size());
  EXPECT_EQ(fnv1a64(bytes, 0xcbf29ce484222325ULL), 0xa430d84680aabd0bULL);
  EXPECT_EQ(fnv1a64(bytes, 0x6c62272e07bb0142ULL), 0x6aaf3b071d3ffa4aULL);
}

TEST(ArtifactStore, Xxh64MatchesKnownAnswers) {
  // XXH64 as published, at seed 0: the empty input (no stripe, no tail),
  // "hello" (a 4-byte and a 1-byte tail step) and the 111 bytes
  // 0x00..0x6e (three stripes, then an 8-byte, a 4-byte and three 1-byte
  // steps).  The low 32 bits of the first are the checksum `zstd --check`
  // writes for an empty frame.
  const std::string_view hello = "hello";
  const std::span<const std::uint8_t> hello_bytes(
      reinterpret_cast<const std::uint8_t*>(hello.data()), hello.size());
  std::vector<std::uint8_t> counting(111);
  std::iota(counting.begin(), counting.end(), std::uint8_t{0});
  EXPECT_EQ(xxh64({}, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64(hello_bytes, 0), 0x26c7827d889f6da3ULL);
  EXPECT_EQ(xxh64(counting, 0), 0x666cc5e38345de58ULL);

  // The store digest: the kStoreDigestSeeds lanes, seed 0 first.
  EXPECT_EQ(store_digest_hex({}), "ef46db3751d8e999c4349fc93c010000");
  EXPECT_EQ(store_digest_hex(hello_bytes), "26c7827d889f6da3040982e185e9c819");
}

TEST(ArtifactStore, LoadHashesEqualSeparateXxh64Calls) {
  // A load hashes its bytes twice (io::CheckedArtifact): the store
  // digest's two lanes in one loop that reads each stripe once, then the
  // frame checksum's lane over the payload.  At every size up to 100
  // bytes and every offset the hashed bytes start at (every alignment,
  // and every split of a stripe between a header and a payload), both
  // equal separate xxh64 calls.
  constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;
  const auto hex = [](std::uint64_t value) {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(out);
  };
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> buffer(100);
  for (std::uint8_t& byte : buffer) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t size = 0; size <= buffer.size(); ++size) {
    for (std::size_t offset = 0; offset <= size; ++offset) {
      const auto bytes =
          std::span<const std::uint8_t>(buffer).subspan(offset, size - offset);
      EXPECT_EQ(store_digest_hex(bytes),
                hex(xxh64(bytes, kStoreDigestSeeds[0])) +
                    hex(xxh64(bytes, kStoreDigestSeeds[1])))
          << size - offset << " bytes from offset " << offset;
    }
    // The artifact's first `size` bytes, with a checksum field that fits
    // the payload when there is a header to hold one.
    std::vector<std::uint8_t> stored(
        buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(size));
    if (size >= io::kArtifactHeaderBytes) {
      const std::uint64_t checksum =
          xxh64(std::span<const std::uint8_t>(stored).subspan(
                    io::kArtifactHeaderBytes),
                kChecksumSeed);
      std::memcpy(stored.data() + io::kArtifactHeaderBytes - 8, &checksum, 8);
    }
    const std::string digest = store_digest_hex(stored);
    const io::CheckedArtifact checked(stored);
    EXPECT_EQ(checked.digest(), digest) << size;
    EXPECT_EQ(checked.checksum_matches(), size >= io::kArtifactHeaderBytes)
        << size;
  }
}

/// How many spans of `trace` are named `name`.
std::size_t spans_named(const StageTrace& trace, const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(trace.spans.begin(), trace.spans.end(),
                    [&](const TraceSpan& span) { return span.name == name; }));
}

const TraceSpan& span_named(const StageTrace& trace, const std::string& name) {
  const auto it =
      std::find_if(trace.spans.begin(), trace.spans.end(),
                   [&](const TraceSpan& span) { return span.name == name; });
  if (it == trace.spans.end()) throw std::logic_error("no span " + name);
  return *it;
}

TEST(ArtifactStore, SecondExperimentLoadsEveryStage) {
  // A no-store run computes the products every stored run must match —
  // the store never changes bytes, only who computes them.
  RunOptions plain;
  plain.threads = 1;
  Experiment reference(Scenario::small(33), plain);
  reference.run();
  const std::string reference_products =
      products_digest(reference.inference(), reference.analyses());

  // The resume graph runs the SimArtifact decode beside the Observe probe,
  // so it is checked on a pool as well as in program order.
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    ScopedStore store;
    RunOptions options;
    options.threads = 1;
    options.store = store.get();

    Experiment first(Scenario::small(33), options);
    first.run();
    EXPECT_EQ(first.counters().synthesize, 1u);
    EXPECT_EQ(first.counters().analyze, 1u);
    EXPECT_EQ(first.loads().synthesize, 0u);
    EXPECT_EQ(store->size(), 5u);  // one artifact per stage

    // A fresh experiment over the same store: zero stage executions, five
    // loads, byte-identical artifacts.
    StageTrace trace;
    RunOptions resume = options;
    resume.threads = threads;
    resume.trace = &trace;
    Experiment second(Scenario::small(33), resume);
    second.run();
    EXPECT_EQ(second.counters().synthesize, 0u);
    EXPECT_EQ(second.counters().simulate, 0u);
    EXPECT_EQ(second.counters().observe, 0u);
    EXPECT_EQ(second.counters().infer, 0u);
    EXPECT_EQ(second.counters().analyze, 0u);
    EXPECT_EQ(second.loads().synthesize, 1u);
    EXPECT_EQ(second.loads().simulate, 1u);
    EXPECT_EQ(second.loads().observe, 1u);
    EXPECT_EQ(second.loads().infer, 1u);
    EXPECT_EQ(second.loads().analyze, 1u);

    EXPECT_EQ(io::encode(second.truth()), io::encode(first.truth()));
    EXPECT_EQ(io::encode(second.sim()), io::encode(first.sim()));
    EXPECT_EQ(io::encode(second.observations()),
              io::encode(first.observations()));
    EXPECT_EQ(io::encode(second.inference()), io::encode(first.inference()));
    EXPECT_EQ(io::encode(second.analyses()), io::encode(first.analyses()));
    for (const Stage stage : {Stage::kSynthesize, Stage::kSimulate,
                              Stage::kObserve, Stage::kInfer, Stage::kAnalyze}) {
      EXPECT_EQ(second.stage_digest(stage), first.stage_digest(stage))
          << to_string(stage);
    }

    // The resume graph: one load, then the decode and the Observe probe,
    // both after it; nothing simulated.
    EXPECT_EQ(spans_named(trace, "simulate.load"), 1u);
    EXPECT_EQ(spans_named(trace, "simulate.decode"), 1u);
    EXPECT_EQ(spans_named(trace, "observe.probe"), 1u);
    EXPECT_EQ(spans_named(trace, "simulate.chunk"), 0u);
    const double loaded = span_named(trace, "simulate.load").end_seconds;
    EXPECT_GE(span_named(trace, "simulate.decode").start_seconds, loaded);
    EXPECT_GE(span_named(trace, "observe.probe").start_seconds, loaded);

    EXPECT_EQ(products_digest(first.inference(), first.analyses()),
              reference_products);
  }
}

TEST(ArtifactStore, ThreadKnobsShareCacheEntries) {
  ScopedStore store;
  RunOptions sequential;
  sequential.threads = 1;
  sequential.store = store.get();
  Experiment first(Scenario::small(12), sequential);
  first.run(Stage::kInfer);
  const std::size_t populated = store->size();

  // A different worker count must hit the same keys (thread knobs are
  // excluded from cache identity) — all loads, no new entries.
  RunOptions threaded;
  threaded.threads = 3;
  threaded.store = store.get();
  Experiment second(Scenario::small(12), threaded);
  second.run(Stage::kInfer);
  EXPECT_EQ(second.counters().simulate, 0u);
  EXPECT_EQ(second.loads().simulate, 1u);
  EXPECT_EQ(second.loads().infer, 1u);
  EXPECT_EQ(store->size(), populated);
}

TEST(ArtifactStore, CorruptedEntryIsAMissAndHealsItself) {
  ScopedStore store;
  RunOptions options;
  options.threads = 1;
  options.store = store.get();
  Experiment first(Scenario::small(33), options);
  first.run();

  // Vandalize the synthesize artifact on disk.
  const std::string truth_key =
      [&] {
        // Recover the key by probing: the store file for synthesize is the
        // one whose bytes decode as GroundTruth.
        for (const auto& entry :
             std::filesystem::directory_iterator(store->root())) {
          std::ifstream in(entry.path(), std::ios::binary);
          std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
          std::span<const std::uint8_t> bytes(
              reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
          try {
            (void)io::decode_ground_truth(bytes);
            std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
            out << "vandalized beyond recognition";
            return entry.path().filename().string();
          } catch (const std::invalid_argument&) {
          }
        }
        return std::string();
      }();
  ASSERT_FALSE(truth_key.empty()) << "no ground-truth artifact found";

  // The next experiment recomputes Synthesize (corrupt = miss), re-stores
  // it, and — because the recomputed bytes digest identically — still
  // loads every downstream stage.
  Experiment healed(Scenario::small(33), options);
  healed.run();
  EXPECT_EQ(healed.counters().synthesize, 1u);
  EXPECT_EQ(healed.loads().synthesize, 0u);
  EXPECT_EQ(healed.counters().simulate, 0u);
  EXPECT_EQ(healed.loads().simulate, 1u);
  EXPECT_EQ(healed.loads().analyze, 1u);
  EXPECT_EQ(products_digest(healed.inference(), healed.analyses()),
            products_digest(first.inference(), first.analyses()));

  // And the store is healed: one more run loads everything again.
  Experiment third(Scenario::small(33), options);
  third.run();
  EXPECT_EQ(third.counters().synthesize, 0u);
  EXPECT_EQ(third.loads().synthesize, 1u);
}

TEST(ArtifactStore, EvictedSimEntryStillReusesCachedObservations) {
  ScopedStore store;
  RunOptions options;
  options.threads = 1;
  options.store = store.get();
  Experiment first(Scenario::small(33), options);
  first.run(Stage::kObserve);

  // Lose only the Simulate entry (a gc eviction of the biggest artifact).
  bool erased = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(store->root())) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size());
    try {
      (void)io::decode_sim_artifact(bytes);
      in.close();
      std::filesystem::remove(entry.path());
      erased = true;
      break;
    } catch (const std::invalid_argument&) {
    }
  }
  ASSERT_TRUE(erased) << "no sim artifact found to evict";

  // The next run must recompute Simulate (identical digest) but still
  // serve Observations from the store instead of redoing path indexing.
  Experiment second(Scenario::small(33), options);
  second.run(Stage::kObserve);
  EXPECT_EQ(second.counters().simulate, 1u);
  EXPECT_EQ(second.loads().simulate, 0u);
  EXPECT_EQ(second.counters().observe, 0u);
  EXPECT_EQ(second.loads().observe, 1u);
  EXPECT_EQ(io::encode(second.observations()), io::encode(first.observations()));
}

/// What every store key starts with: the codec version.
std::string key_prefix() {
  return "bgpolicy-artifact/v" + std::to_string(io::kArtifactCodecVersion) +
         "|";
}

/// The Observe stage's store key, in the layout docs/ARCHITECTURE.md gives
/// ("Key derivation"): codec version, scenario key, then the GroundTruth
/// and SimArtifact digests.
std::string observe_key(const Scenario& scenario, const std::string& truth,
                        const std::string& sim) {
  return key_prefix() + "observe|" + scenario_cache_key(scenario) + "|" +
         truth + "|" + sim;
}

TEST(ArtifactStore, VandalizedSimEntryRecomputesAndDropsItsObserveHit) {
  // With the genuine Observations entry kept, simulate.persist's re-probe
  // serves it; with it erased, Observe is recomputed.  Either way the hit
  // the Observe probe took on the damaged entry's digest must not stand.
  for (const std::size_t threads : {1u, 3u}) {
    for (const bool keep_observations : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads
                                        << ", observations kept "
                                        << keep_observations);
      const Scenario scenario = Scenario::small(33);
      ScopedStore store;
      RunOptions options;
      options.threads = 1;
      options.store = store.get();
      Experiment first(scenario, options);
      first.run(Stage::kObserve);
      const std::string truth_digest = first.stage_digest(Stage::kSynthesize);
      const std::string genuine_key = observe_key(
          scenario, truth_digest, first.stage_digest(Stage::kSimulate));
      ASSERT_TRUE(store->contains(genuine_key))
          << "observe_key no longer matches the Observe stage's store key";
      if (!keep_observations) store->erase(genuine_key);

      // Flip one payload byte of the SimArtifact entry: the store still
      // reads it, the codec checksum rejects it.
      std::vector<std::uint8_t> vandalized;
      for (const auto& entry :
           std::filesystem::directory_iterator(store->root())) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
        in.close();
        try {
          (void)io::decode_sim_artifact(raw);
        } catch (const std::invalid_argument&) {
          continue;
        }
        raw[raw.size() / 2] ^= 0x5a;
        std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(raw.data()),
                  static_cast<std::streamsize>(raw.size()));
        vandalized = std::move(raw);
        break;
      }
      ASSERT_FALSE(vandalized.empty()) << "no sim artifact found to vandalize";
      EXPECT_THROW((void)io::decode_sim_artifact(vandalized),
                   std::invalid_argument);

      // Plant a different, valid Observations artifact under the key that
      // chains on the vandalized bytes' digest: the resume's Observe probe,
      // which runs beside the failing decode, finds it.
      Observations planted =
          io::decode_observations(io::encode(first.observations()));
      planted.irr_text = "planted under a damaged SimArtifact's digest";
      ASSERT_TRUE(store->put(
          observe_key(scenario, truth_digest, store_digest_hex(vandalized)),
          io::encode(planted)));

      RunOptions resume = options;
      resume.threads = threads;
      Experiment second(scenario, resume);
      second.run(Stage::kObserve);
      EXPECT_EQ(second.counters().simulate, 1u);
      EXPECT_EQ(second.loads().simulate, 0u);
      EXPECT_EQ(second.counters().observe, keep_observations ? 0u : 1u);
      EXPECT_EQ(second.loads().observe, keep_observations ? 1u : 0u);
      EXPECT_EQ(second.stage_digest(Stage::kSimulate),
                first.stage_digest(Stage::kSimulate));
      EXPECT_EQ(second.stage_digest(Stage::kObserve),
                first.stage_digest(Stage::kObserve));
      EXPECT_EQ(io::encode(second.observations()),
                io::encode(first.observations()));

      // The recompute healed the store: a third run loads both.
      Experiment third(scenario, resume);
      third.run(Stage::kObserve);
      EXPECT_EQ(third.loads().simulate, 1u);
      EXPECT_EQ(third.loads().observe, 1u);
    }
  }
}

TEST(ArtifactStore, UndecodableGroundTruthIsAMissForEveryStage) {
  // A stored GroundTruth whose frame checks but whose payload fails to
  // decode.  simulate.load and the Observe probe key on its digest while
  // synthesize.decode still runs, so they find what was planted under
  // it; every such load must be dropped, and the run recomputes every
  // stage and ends on the cold digests.
  const Scenario scenario = Scenario::small(33);
  ScopedStore cold_store;
  RunOptions cold_options;
  cold_options.threads = 1;
  cold_options.store = cold_store.get();
  Experiment cold(scenario, cold_options);
  cold.run(Stage::kObserve);
  const std::vector<std::uint8_t> cold_sim = io::encode(cold.sim());

  // One trailing payload byte, with the size and checksum fields redone.
  std::vector<std::uint8_t> damaged = io::encode(cold.truth());
  damaged.push_back(0);
  const std::uint64_t payload_size = damaged.size() - io::kArtifactHeaderBytes;
  const std::uint64_t checksum = xxh64(
      std::span<const std::uint8_t>(damaged).subspan(io::kArtifactHeaderBytes),
      0xcbf29ce484222325ULL);
  std::memcpy(damaged.data() + 8, &payload_size, sizeof(payload_size));
  std::memcpy(damaged.data() + 16, &checksum, sizeof(checksum));
  ASSERT_TRUE(io::CheckedArtifact(damaged).checksum_matches());
  ASSERT_THROW((void)io::decode_ground_truth(damaged), std::invalid_argument);
  const std::string damaged_digest = store_digest_hex(damaged);
  Observations planted =
      io::decode_observations(io::encode(cold.observations()));
  planted.irr_text = "planted under an undecodable GroundTruth's digest";

  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ScopedStore store;
    ASSERT_TRUE(store->put(
        key_prefix() + "synthesize|" + scenario_cache_key(scenario),
        damaged));
    ASSERT_TRUE(store->put(key_prefix() + "simulate|" +
                               scenario_cache_key(scenario) + "|" +
                               damaged_digest,
                           cold_sim));
    ASSERT_TRUE(store->put(
        observe_key(scenario, damaged_digest, store_digest_hex(cold_sim)),
        io::encode(planted)));

    RunOptions options;
    options.threads = threads;
    options.store = store.get();
    Experiment second(scenario, options);
    second.run(Stage::kObserve);
    EXPECT_EQ(second.counters().synthesize, 1u);
    EXPECT_EQ(second.counters().simulate, 1u);
    EXPECT_EQ(second.counters().observe, 1u);
    EXPECT_EQ(second.loads().synthesize, 0u);
    EXPECT_EQ(second.loads().simulate, 0u);
    EXPECT_EQ(second.loads().observe, 0u);
    for (const Stage stage :
         {Stage::kSynthesize, Stage::kSimulate, Stage::kObserve}) {
      EXPECT_EQ(second.stage_digest(stage), cold.stage_digest(stage))
          << to_string(stage);
    }
    EXPECT_EQ(io::encode(second.observations()),
              io::encode(cold.observations()));

    // The recompute healed the store: a third run loads every stage.
    Experiment third(scenario, options);
    third.run(Stage::kObserve);
    EXPECT_EQ(third.loads().synthesize, 1u);
    EXPECT_EQ(third.loads().simulate, 1u);
    EXPECT_EQ(third.loads().observe, 1u);
  }
}

/// The store file whose bytes decode as a SimArtifact.
std::filesystem::path sim_entry(const ArtifactStore& store) {
  for (const auto& entry : std::filesystem::directory_iterator(store.root())) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
    try {
      (void)io::decode_sim_artifact(raw);
      return entry.path();
    } catch (const std::invalid_argument&) {
    }
  }
  return {};
}

/// Flips one byte of the file at `path`.
void flip_byte(const std::filesystem::path& path, std::size_t at) {
  std::vector<std::uint8_t> raw;
  {
    std::ifstream in(path, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  ASSERT_LT(at, raw.size());
  raw[at] ^= 0x21;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
}

TEST(ArtifactStore, OneFlippedByteIsAMissAtEveryThreadCount) {
  // One byte flipped in the Observations entry's checksum field, inside
  // its PathIndex section (the payload's last), or inside the SimArtifact's
  // last table blob.  The one-pass check rejects each before a payload
  // byte is parsed: the stage is recomputed with the same digest, so every
  // downstream stage still loads, and the analyses are the first run's.
  enum class Damage { kObserveChecksum, kObserveIndex, kSimLastTable };
  const Scenario scenario = Scenario::small(33);
  for (const std::size_t threads : {1u, 3u}) {
    for (const Damage damage : {Damage::kObserveChecksum, Damage::kObserveIndex,
                                Damage::kSimLastTable}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads << ", damage "
                                        << static_cast<int>(damage));
      ScopedStore store;
      RunOptions options;
      options.threads = 1;
      options.store = store.get();
      Experiment first(scenario, options);
      first.run();

      const bool sim_damaged = damage == Damage::kSimLastTable;
      const std::filesystem::path entry =
          sim_damaged ? sim_entry(*store)
                      : store->path_for(observe_key(
                            scenario, first.stage_digest(Stage::kSynthesize),
                            first.stage_digest(Stage::kSimulate)));
      ASSERT_TRUE(std::filesystem::exists(entry));
      const std::size_t size = std::filesystem::file_size(entry);
      std::size_t at = io::kArtifactHeaderBytes - 5;  // the checksum field
      if (damage == Damage::kObserveIndex) {
        // The index section: an entry count, then per entry a prefix
        // (network, length), a u16 hop count and the hops.
        const PathIndex& index = first.observations().paths;
        std::size_t section = sizeof(std::uint64_t);
        for (std::size_t i = 0; i < index.path_count(); ++i) {
          section += 7 + sizeof(std::uint32_t) * index.path_at(i).size();
        }
        at = size - section / 2;
      } else if (sim_damaged) {
        // The last blob in stored order ends before the three u64 counters.
        // Vantage tables are stored in AS order, best-only ones last.
        const sim::SimResult& result = first.sim().sim;
        const bgp::BgpTable* last = &result.collector;
        for (const auto* tables : {&result.looking_glass, &result.best_only}) {
          const auto highest = std::max_element(
              tables->begin(), tables->end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
          if (highest != tables->end()) last = &highest->second;
        }
        at = size - 3 * sizeof(std::uint64_t) -
             io::serialize_table(*last).size() / 2;
      }
      flip_byte(entry, at);

      RunOptions resume = options;
      resume.threads = threads;
      Experiment second(scenario, resume);
      second.run();
      EXPECT_EQ(second.counters().simulate, sim_damaged ? 1u : 0u);
      EXPECT_EQ(second.loads().simulate, sim_damaged ? 0u : 1u);
      EXPECT_EQ(second.counters().observe, sim_damaged ? 0u : 1u);
      EXPECT_EQ(second.loads().observe, sim_damaged ? 1u : 0u);
      EXPECT_EQ(second.loads().synthesize, 1u);
      EXPECT_EQ(second.loads().infer, 1u);
      EXPECT_EQ(second.loads().analyze, 1u);
      for (const Stage stage : {Stage::kSynthesize, Stage::kSimulate,
                                Stage::kObserve, Stage::kInfer,
                                Stage::kAnalyze}) {
        EXPECT_EQ(second.stage_digest(stage), first.stage_digest(stage))
            << to_string(stage);
      }
      EXPECT_EQ(products_digest(second.inference(), second.analyses()),
                products_digest(first.inference(), first.analyses()));
    }
  }
}

TEST(SimChunkCodec, RoundtripIsBytePure) {
  RunOptions options;
  options.threads = 1;
  Experiment experiment(Scenario::small(3), options);
  experiment.run(Stage::kSimulate);
  const GroundTruth& truth = experiment.truth();
  const sim::VantageSpec vantage =
      derive_vantage(experiment.scenario(), truth.topo);

  const util::Executor sequential;
  SimChunk chunk;
  chunk.begin = 0;
  chunk.end = std::min<std::size_t>(4, truth.originations.size());
  chunk.total = truth.originations.size();
  chunk.partial = sim::run_simulation(
      truth.topo.graph, truth.gen.policies,
      std::span(truth.originations).first(chunk.end), vantage,
      experiment.scenario().propagation, &sequential);

  const std::vector<std::uint8_t> bytes = io::encode(chunk);
  const SimChunk decoded = io::decode_sim_chunk(bytes);
  EXPECT_EQ(decoded.begin, chunk.begin);
  EXPECT_EQ(decoded.end, chunk.end);
  EXPECT_EQ(decoded.total, chunk.total);
  EXPECT_EQ(io::encode(decoded), bytes);  // content-pure re-encode

  // Wrong-kind decode is rejected like every other artifact.
  EXPECT_THROW((void)io::decode_sim_artifact(bytes), std::invalid_argument);
}

TEST(SimChunkResume, KilledMidSimulateRecomputesOnlyMissingChunks) {
  const Scenario scenario = Scenario::small(21);
  RunOptions options;
  options.threads = 1;
  options.sim_chunk_prefixes = 4;

  // Reference: a complete run over its own store.
  ScopedStore full_store;
  RunOptions full_options = options;
  full_options.store = full_store.get();
  Experiment reference(scenario, full_options);
  reference.run(Stage::kSimulate);
  ASSERT_GT(reference.sim_chunks().total, 2u);
  EXPECT_EQ(reference.sim_chunks().computed, reference.sim_chunks().total);
  EXPECT_EQ(reference.sim_chunks().loaded, 0u);

  // Reconstruct the killed-mid-Simulate state in a second store:
  // Synthesize persisted, the leading chunks persisted (what a run flushes
  // as each chunk task completes), the trailing chunks and the merged
  // artifact lost with the process.
  ScopedStore store;
  options.store = store.get();
  Experiment setup(scenario, options);
  setup.run(Stage::kSynthesize);
  const GroundTruth& truth = setup.truth();
  const std::vector<util::IndexRange> ranges =
      sim_chunk_ranges(truth.originations.size(), 4);
  ASSERT_EQ(ranges.size(), reference.sim_chunks().total);
  const std::size_t persisted = ranges.size() / 2;
  const sim::VantageSpec vantage = derive_vantage(scenario, truth.topo);
  const std::string scenario_key = scenario_cache_key(scenario);
  const util::Executor sequential;
  for (std::size_t i = 0; i < persisted; ++i) {
    SimChunk chunk;
    chunk.begin = ranges[i].begin;
    chunk.end = ranges[i].end;
    chunk.total = truth.originations.size();
    chunk.partial = sim::run_simulation(
        truth.topo.graph, truth.gen.policies,
        std::span(truth.originations)
            .subspan(ranges[i].begin, ranges[i].size()),
        vantage, scenario.propagation, &sequential);
    store->put(
        sim_chunk_store_key(scenario_key,
                            setup.stage_digest(Stage::kSynthesize), ranges[i],
                            truth.originations.size()),
        io::encode(chunk));
  }

  // Resume: the restarted run loads every persisted chunk and computes
  // only the missing ones — mid-stage resume, not per-variant resume.
  Experiment resumed(scenario, options);
  resumed.run(Stage::kSimulate);
  EXPECT_EQ(resumed.loads().synthesize, 1u);
  EXPECT_EQ(resumed.loads().simulate, 0u);  // no merged artifact yet
  EXPECT_EQ(resumed.counters().simulate, 1u);
  EXPECT_EQ(resumed.sim_chunks().total, ranges.size());
  EXPECT_EQ(resumed.sim_chunks().loaded, persisted);
  EXPECT_EQ(resumed.sim_chunks().computed, ranges.size() - persisted);

  // The merged product is byte-identical to the uninterrupted run's.
  EXPECT_EQ(io::encode(resumed.sim()), io::encode(reference.sim()));

  // The merged artifact superseded its chunks: a third run loads it whole
  // and schedules no chunk tasks at all.
  Experiment third(scenario, options);
  third.run(Stage::kSimulate);
  EXPECT_EQ(third.loads().simulate, 1u);
  EXPECT_EQ(third.counters().simulate, 0u);
  EXPECT_EQ(third.sim_chunks().total, 0u);
}

/// Caps the size of any file this process writes (RLIMIT_FSIZE), with
/// SIGXFSZ ignored so an oversized write fails with EFBIG instead of
/// killing the process; restores both on destruction.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved_), 0);
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit = saved_;
    limit.rlim_cur = std::min(bytes, saved_.rlim_max);
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &limit), 0);
  }
  ~ScopedFileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  ScopedFileSizeLimit(const ScopedFileSizeLimit&) = delete;
  ScopedFileSizeLimit& operator=(const ScopedFileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

TEST(SimChunkResume, FailedMergedWriteKeepsTheChunks) {
  // Only the merged SimArtifact's write fails (disk full, EFBIG): the run
  // must keep its chunk entries, the mid-Simulate resume state, and drop
  // their pins.  The file-size cap sits between the largest chunk entry
  // and the merged artifact (about 29 KB and 830 KB for small(33)).
  const Scenario scenario = Scenario::small(33);
  RunOptions options;
  options.threads = 1;
  Experiment reference(scenario, options);
  const GroundTruth& truth = reference.truth();
  const std::size_t n = truth.originations.size();
  const std::vector<util::IndexRange> ranges =
      sim_chunk_ranges(n, options.sim_chunk_prefixes);
  const sim::VantageSpec vantage = derive_vantage(scenario, truth.topo);
  const util::Executor sequential;
  std::size_t largest_chunk = 0;
  for (const util::IndexRange range : ranges) {
    SimChunk chunk;
    chunk.begin = range.begin;
    chunk.end = range.end;
    chunk.total = n;
    chunk.partial = sim::run_simulation(
        truth.topo.graph, truth.gen.policies,
        std::span(truth.originations).subspan(range.begin, range.size()),
        vantage, scenario.propagation, &sequential);
    largest_chunk = std::max(largest_chunk, io::encode(chunk).size());
  }
  const std::size_t merged = io::encode(reference.sim()).size();
  ASSERT_LT(largest_chunk, merged / 2);

  ScopedStore store;
  options.store = store.get();
  std::string truth_digest;
  {
    const ScopedFileSizeLimit cap((largest_chunk + merged) / 2);
    Experiment failed(scenario, options);
    failed.run(Stage::kSimulate);
    EXPECT_EQ(failed.sim_chunks().computed, ranges.size());
    EXPECT_EQ(io::encode(failed.sim()), io::encode(reference.sim()));
    truth_digest = failed.stage_digest(Stage::kSynthesize);
  }
  const std::string scenario_key = scenario_cache_key(scenario);
  for (const util::IndexRange range : ranges) {
    const std::string key =
        sim_chunk_store_key(scenario_key, truth_digest, range, n);
    EXPECT_TRUE(store->contains(key));
    EXPECT_FALSE(store->pinned(key));
  }

  // The next run finds no merged artifact and loads every chunk.
  Experiment resumed(scenario, options);
  resumed.run(Stage::kSimulate);
  EXPECT_EQ(resumed.loads().simulate, 0u);
  EXPECT_EQ(resumed.sim_chunks().total, ranges.size());
  EXPECT_EQ(resumed.sim_chunks().loaded, ranges.size());
  EXPECT_EQ(resumed.sim_chunks().computed, 0u);
  EXPECT_EQ(io::encode(resumed.sim()), io::encode(reference.sim()));
}

TEST(ArtifactStoreGc, EvictsLeastRecentlyAccessedFirst) {
  ScopedStore store;
  const std::vector<std::uint8_t> blob(100, 7);
  // Distinct timestamps even on coarse filesystem clocks.
  store->put("a", blob);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store->put("b", blob);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store->put("c", blob);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (void)store->load("a");  // a read counts as access: "a" is now newest

  EXPECT_EQ(store->total_bytes(), 300u);
  const auto result = store->gc(250, std::chrono::seconds(0));
  EXPECT_EQ(result.scanned, 3u);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(result.bytes_after, 200u);
  EXPECT_FALSE(store->contains("b"));  // oldest access evicted first
  EXPECT_TRUE(store->contains("a"));
  EXPECT_TRUE(store->contains("c"));

  // Already under target: a no-op.
  const auto idle = store->gc(250, std::chrono::seconds(0));
  EXPECT_EQ(idle.evicted, 0u);
}

TEST(ArtifactStoreGc, PinnedEntriesAndFreshEntriesSurvive) {
  ScopedStore store;
  const std::vector<std::uint8_t> blob(50, 1);
  store->put("pinned", blob);
  store->put("loose", blob);
  EXPECT_TRUE(store->pin("pinned"));
  EXPECT_TRUE(store->pinned("pinned"));

  // Fresh entries survive a min-age guard even unpinned.
  const auto guarded = store->gc(0, std::chrono::hours(1));
  EXPECT_EQ(guarded.evicted, 0u);

  // Without the age guard, only the pin protects.
  const auto result = store->gc(0, std::chrono::seconds(0));
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(result.pinned_kept, 1u);
  EXPECT_TRUE(store->contains("pinned"));
  EXPECT_FALSE(store->contains("loose"));

  // Unpin (as the merge step does once the full artifact persists) and
  // the entry becomes evictable.
  EXPECT_TRUE(store->unpin("pinned"));
  EXPECT_FALSE(store->pinned("pinned"));
  EXPECT_EQ(store->gc(0, std::chrono::seconds(0)).evicted, 1u);
  EXPECT_EQ(store->size(), 0u);
}

TEST(ArtifactStoreGc, StalePinsAgeOut) {
  ScopedStore store;
  const std::vector<std::uint8_t> blob(10, 2);
  store->put("orphan", blob);
  store->pin("orphan");  // a killed run leaks this pin

  EXPECT_EQ(store->clear_stale_pins(std::chrono::hours(1)), 0u);  // too young
  EXPECT_EQ(store->clear_stale_pins(std::chrono::seconds(0)), 1u);
  EXPECT_FALSE(store->pinned("orphan"));
}

std::vector<SweepVariant> resume_variants() {
  SweepVariant base;
  base.label = "base";
  base.scenario = Scenario::small(5);

  SweepVariant no_peers = base;
  no_peers.label = "no-peers";
  no_peers.options.gao = asrel::GaoParams{};
  no_peers.options.gao->detect_peers = false;

  SweepVariant other_seed;
  other_seed.label = "seed9";
  other_seed.scenario = Scenario::small(9);

  return {base, no_peers, other_seed};
}

std::string sweep_digest(const SweepReport& report) {
  std::string out;
  for (const SweepRun& run : report.runs) {
    out += run.label + "\n" + products_digest(run.inference, run.analyses);
  }
  return out;
}

TEST(SweepResume, SecondRunLoadsEverythingAndMatchesByteForByte) {
  ScopedStore store;
  const std::vector<SweepVariant> variants = resume_variants();

  const SweepReport first = sweep(variants, 1, store.get());
  EXPECT_EQ(first.counters.synthesize, 2u);  // two distinct scenarios
  EXPECT_EQ(first.counters.infer, 3u);
  EXPECT_EQ(first.counters.analyze, 3u);
  EXPECT_EQ(first.loads.infer, 0u);
  for (const SweepRun& run : first.runs) {
    EXPECT_FALSE(run.store_infer_key.empty());
    EXPECT_FALSE(run.loaded_from_store());
  }

  const SweepReport second = sweep(variants, 1, store.get());
  EXPECT_EQ(second.counters.synthesize, 0u);
  EXPECT_EQ(second.counters.simulate, 0u);
  EXPECT_EQ(second.counters.observe, 0u);
  EXPECT_EQ(second.counters.infer, 0u);
  EXPECT_EQ(second.counters.analyze, 0u);
  EXPECT_EQ(second.loads.synthesize, 2u);
  EXPECT_EQ(second.loads.simulate, 2u);
  EXPECT_EQ(second.loads.observe, 2u);
  EXPECT_EQ(second.loads.infer, 3u);
  EXPECT_EQ(second.loads.analyze, 3u);
  EXPECT_EQ(sweep_digest(second), sweep_digest(first));

  // A storeless sweep computes identical products: resume never changes
  // bytes.
  const SweepReport reference = sweep(variants, 1);
  EXPECT_EQ(sweep_digest(reference), sweep_digest(first));
}

TEST(SweepResume, OnlyTheMissingVariantRecomputes) {
  ScopedStore store;
  const std::vector<SweepVariant> variants = resume_variants();
  const SweepReport first = sweep(variants, 1, store.get());

  // Delete exactly one variant's artifacts — the "killed before this
  // variant finished" state.
  ASSERT_TRUE(store->erase(first.runs[1].store_infer_key));
  ASSERT_TRUE(store->erase(first.runs[1].store_analyze_key));

  const SweepReport resumed = sweep(variants, 1, store.get());
  EXPECT_EQ(resumed.counters.synthesize, 0u);
  EXPECT_EQ(resumed.counters.simulate, 0u);
  EXPECT_EQ(resumed.counters.infer, 1u);  // just the erased variant
  EXPECT_EQ(resumed.counters.analyze, 1u);
  EXPECT_EQ(resumed.loads.infer, 2u);
  EXPECT_EQ(resumed.loads.analyze, 2u);
  EXPECT_TRUE(resumed.runs[0].loaded_from_store());
  EXPECT_FALSE(resumed.runs[1].loaded_from_store());
  EXPECT_TRUE(resumed.runs[2].loaded_from_store());
  EXPECT_EQ(sweep_digest(resumed), sweep_digest(first));
}

TEST(SweepResume, ErasedAnalyzeEntryReusesCachedInference) {
  ScopedStore store;
  const std::vector<SweepVariant> variants = resume_variants();
  const SweepReport first = sweep(variants, 1, store.get());

  // Lose only one variant's Analyze artifact: the variant keys are
  // per-stage, so the resumed run reuses the cached inference and
  // recomputes Analyze alone.
  ASSERT_TRUE(store->erase(first.runs[2].store_analyze_key));
  const SweepReport resumed = sweep(variants, 1, store.get());
  EXPECT_EQ(resumed.counters.infer, 0u);
  EXPECT_EQ(resumed.counters.analyze, 1u);
  EXPECT_EQ(resumed.loads.infer, 3u);
  EXPECT_EQ(resumed.loads.analyze, 2u);
  EXPECT_TRUE(resumed.runs[2].inference_loaded);
  EXPECT_FALSE(resumed.runs[2].analyses_loaded);
  EXPECT_EQ(sweep_digest(resumed), sweep_digest(first));
}

TEST(SweepResume, KilledSweepResumesAcrossVariantSubsets) {
  ScopedStore store;
  const std::vector<SweepVariant> variants = resume_variants();

  // "Kill" the sweep after the first two variants by only requesting them.
  const std::vector<SweepVariant> prefix(variants.begin(),
                                         variants.begin() + 2);
  const SweepReport partial = sweep(prefix, 1, store.get());
  EXPECT_EQ(partial.counters.infer, 2u);
  EXPECT_EQ(partial.counters.synthesize, 1u);  // prefix shares one scenario

  // The restarted full sweep loads the finished variants and computes only
  // the one that never ran (plus the second scenario's upstream).
  const SweepReport resumed = sweep(variants, 1, store.get());
  EXPECT_EQ(resumed.loads.infer, 2u);
  EXPECT_EQ(resumed.counters.infer, 1u);
  EXPECT_EQ(resumed.counters.synthesize, 1u);  // only seed9's upstream
  EXPECT_EQ(resumed.loads.synthesize, 1u);

  // Byte-identical to a sweep that was never killed.
  const SweepReport uninterrupted = sweep(variants, 1);
  EXPECT_EQ(sweep_digest(resumed), sweep_digest(uninterrupted));
}

TEST(SweepResume, SweepWithStoreIsThreadCountIndependent) {
  ScopedStore store_a;
  ScopedStore store_b;
  const std::vector<SweepVariant> variants = resume_variants();
  const SweepReport sequential = sweep(variants, 1, store_a.get());
  const SweepReport sharded = sweep(variants, 4, store_b.get());
  EXPECT_EQ(sweep_digest(sequential), sweep_digest(sharded));
}

}  // namespace
}  // namespace bgpolicy::core
