// Codec round trips on random worlds (tests/testing/random_world.h): each
// seed's world is simulated with every AS as a collector peer, a looking
// glass and a best-only vantage, and its SimArtifact must re-encode to the
// same bytes through the span decoder and through the checked decoder,
// with the store digest unchanged.  One seeded byte flipped in the header,
// in the first payload byte, in the last, and at a random payload offset
// must make both decoders throw and move the digest: the frame checksum
// attacked with varied content, not only with the fixed scenarios of
// io_artifact_codec_test.  A failure names the seed and prints the world
// in `.scn` syntax.
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/artifact_store.h"
#include "core/experiment.h"
#include "io/artifact_codec.h"
#include "sim/simulation.h"
#include "testing/random_world.h"

namespace bgpolicy::io {
namespace {

/// Fixed budget: every seed in [1, kSeeds] is one world.
constexpr std::uint64_t kSeeds = 300;

/// True when `decode` throws the decoders' std::invalid_argument.
bool rejects(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

TEST(CodecFuzz, SimArtifactsRoundTripAndRejectOneFlippedByte) {
  std::size_t failing_seeds = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const testing::RandomWorld w = testing::random_world(seed);
    core::SimArtifact artifact;
    for (const util::AsNumber as : w.graph.ases()) {
      artifact.vantage.collector_peers.push_back(as);
      artifact.vantage.looking_glass.push_back(as);
      artifact.vantage.best_only.push_back(as);
    }
    sim::PropagationOptions options;
    options.threads = 1;
    artifact.sim = sim::run_simulation(w.graph, w.policies, w.originations,
                                       artifact.vantage, options);

    std::string problem;
    const auto check = [&](bool ok, const std::string& what) {
      if (problem.empty() && !ok) problem = what;
    };
    const std::vector<std::uint8_t> bytes = encode(artifact);
    const CheckedArtifact checked{bytes};
    check(checked.checksum_matches(), "the encoded frame does not check");
    check(checked.digest() == core::store_digest_hex(bytes),
          "the checked digest is not the store digest");
    try {
      const std::vector<std::uint8_t> from_span =
          encode(decode_sim_artifact(bytes));
      check(from_span == bytes, "span decoder round trip moved bytes");
      const std::vector<std::uint8_t> from_checked =
          encode(decode_sim_artifact(checked));
      check(from_checked == bytes, "checked decoder round trip moved bytes");
      check(CheckedArtifact{from_checked}.digest() == checked.digest(),
            "the digest did not survive the round trip");
    } catch (const std::invalid_argument& error) {
      check(false, std::string("a decoder rejected the bytes: ") +
                       error.what());
    }

    // One byte each in the header, the payload's first and last bytes and
    // a random payload offset, flipped by a seeded non-zero mask.
    std::mt19937_64 rng(seed);
    const std::size_t payload = bytes.size() - kArtifactHeaderBytes;
    for (const std::size_t at :
         {static_cast<std::size_t>(rng() % kArtifactHeaderBytes),
          kArtifactHeaderBytes, bytes.size() - 1,
          kArtifactHeaderBytes + static_cast<std::size_t>(rng() % payload)}) {
      std::vector<std::uint8_t> damaged = bytes;
      damaged[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      const std::string where = " at byte " + std::to_string(at);
      check(rejects([&] { (void)decode_sim_artifact(damaged); }),
            "the span decoder accepted a flipped byte" + where);
      const CheckedArtifact bad{damaged};
      check(rejects([&] { (void)decode_sim_artifact(bad); }),
            "the checked decoder accepted a flipped byte" + where);
      check(bad.digest() != checked.digest(),
            "a flipped byte kept the digest" + where);
    }

    if (!problem.empty()) {
      ++failing_seeds;
      ADD_FAILURE() << "seed " << seed << ": " << problem << "\n"
                    << w.describe();
    }
  }
  EXPECT_EQ(failing_seeds, 0u);
}

}  // namespace
}  // namespace bgpolicy::io
