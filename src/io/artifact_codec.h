// Binary (de)serialization for the staged experiment artifacts
// (core/experiment.h): GroundTruth, SimArtifact, Observations,
// InferenceProducts, and AnalysisSuite — the on-disk representation behind
// core::ArtifactStore and cross-process sweep resume.
//
// Every encoded artifact starts with a versioned 24-byte header, each
// field in native (little-endian) byte order:
//
//   magic "BGPA" | u16 codec version | u16 artifact kind
//   | u64 payload length | u64 payload checksum | payload...
//
// The checksum is core::xxh64 of the payload under the codec's fixed
// checksum seed.  Codec version 2 took XXH64 for that field; version 1
// wrote FNV-1a there, and its entries fail the version check.  A decoder
// can so reject truncated files, foreign files, other codec versions, and
// bit corruption *before* interpreting a single payload byte.  Decoders
// throw std::invalid_argument on any such defect; the staged cache treats
// every decode failure as a cache miss and recomputes — a damaged store
// can cost time, never correctness.
//
// Reading in at most two passes: a store read wants both the artifact's
// store digest (core::store_digest_hex, what downstream keys chain on)
// and the frame checksum.  CheckedArtifact takes the bytes and hashes
// them once for the digest's two XXH64 lanes, which share each stripe
// read, and once more for the checksum lane over the payload (XXH64
// leaves no multiply latency idle for a third lane to fill, and the
// checksum's stripes start 24 bytes in, out of step with the digest's).
// The decoders that take a CheckedArtifact skip their own checksum pass
// and reject a mismatch with the other header defects, before any payload
// byte is parsed.  It owns the bytes and never changes them, so its
// verdict always describes the bytes it hands a decoder.  The span
// decoders still check on their own.
//
// Stored as laid out.  The SimArtifact and SimChunk embed each vantage
// table's columns (io/binary_table.h) as a length-prefixed blob.  The
// Observations store Gao's state (asrel/gao_inference.h: hop buffer, path
// lengths, edge set, degree map, AS list) and the path index's
// (core/path_index.h: hop buffer, entry lengths, prefixes, adjacency set)
// as their buffers; only the IRR objects are written field by field.
// Decoding is a bounds check and a copy per buffer, then each owner's
// adopt() validates what it takes: every count, length and offset against
// the bytes and the buffer it indexes, prefixes (length <= 32, no host
// bits), origins, community order, and the hash tables' slot layout.  It
// rebuilds only the table prefix maps and the path index's id lists, and
// the index's (prefix, path) dedup set before its next add.  Damaged
// content that passes these checks is what the frame checksum and the
// store digest are for.
//
// The stored hash tables — Gao's edge set and degree map, the path index's
// adjacency set — are util::FlatMap64 slot arrays, so those bytes depend
// on util::mix64 and the map's growth policy: changing either changes the
// Observations bytes (pinned by FlatMap64.SlotLayoutKnownAnswer in
// tests/util/flat_map_test.cc).
//
// Everything keyed by an unordered container is serialized in sorted key
// order, and every buffer in its insertion order, so encoding is a pure
// function of artifact *content*: equal artifacts produce equal bytes,
// which is what lets the staged cache chain on upstream artifact digests
// (core/artifact_store.h).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/analysis_suite.h"
#include "core/experiment.h"

namespace bgpolicy::io {

/// The header's codec version: 2 since the frame checksum is XXH64.  The
/// store keys start with it too (core/experiment.cc), so a bump retires
/// every older entry at the key level as well.
inline constexpr std::uint16_t kArtifactCodecVersion = 2;

/// Tags 2, 3 and 6 named the SimArtifact, Observations and SimChunk in
/// their earlier per-route layout.  The store keys did not change with the
/// layout, so an entry written under an old tag fails the kind check: a
/// store miss before any payload byte is parsed.
enum class ArtifactKind : std::uint16_t {
  kGroundTruth = 1,
  kInferenceProducts = 4,
  kAnalysisSuite = 5,
  kSimArtifact = 7,
  kObservations = 8,
  /// One Simulate chunk (core::SimChunk): the per-prefix-shard slice the
  /// staged task graph persists individually so a killed run resumes
  /// mid-Simulate.  Same framing as every other kind; a full SimArtifact
  /// entry supersedes its chunks once the merged stage persists.
  kSimChunk = 9,
};

/// Every kind this build writes.
inline constexpr std::array<ArtifactKind, 6> kArtifactKinds = {
    ArtifactKind::kGroundTruth,       ArtifactKind::kSimArtifact,
    ArtifactKind::kObservations,      ArtifactKind::kInferenceProducts,
    ArtifactKind::kAnalysisSuite,     ArtifactKind::kSimChunk};

[[nodiscard]] const char* to_string(ArtifactKind kind);

/// The versioned header leading every encoded artifact, parsed without
/// touching the payload.
struct ArtifactHeader {
  std::uint16_t version = 0;
  /// Raw kind tag; may name a kind this build does not know.
  std::uint16_t kind = 0;
  std::uint64_t payload_bytes = 0;
};

/// Artifact header size in bytes (magic + version + kind + length +
/// checksum) — the prefix peek_artifact_header needs.
inline constexpr std::size_t kArtifactHeaderBytes = 24;

/// Non-throwing header peek for store census tools (tools/store_top):
/// validates the magic over just the header prefix of `bytes` and returns
/// the codec version, kind tag and payload length it finds, whatever the
/// version (an entry of another version decodes to nothing; store_top
/// lists it as stale).  The checksum is NOT verified (that requires the
/// payload; decoders do it).  nullopt on truncated or foreign bytes.
[[nodiscard]] std::optional<ArtifactHeader> peek_artifact_header(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::vector<std::uint8_t> encode(const core::GroundTruth& truth);
[[nodiscard]] std::vector<std::uint8_t> encode(const core::SimArtifact& sim);
[[nodiscard]] std::vector<std::uint8_t> encode(
    const core::Observations& observations);
[[nodiscard]] std::vector<std::uint8_t> encode(
    const core::InferenceProducts& inference);
[[nodiscard]] std::vector<std::uint8_t> encode(const core::AnalysisSuite& suite);
[[nodiscard]] std::vector<std::uint8_t> encode(const core::SimChunk& chunk);

/// Stored artifact bytes hashed for the store digest and the frame
/// checksum, in two passes (see the file comment).  The
/// object owns the bytes and cannot be copied, moved or changed, so a
/// decoder handed one always checks the verdict computed on the bytes it
/// parses.
class CheckedArtifact {
 public:
  explicit CheckedArtifact(std::vector<std::uint8_t> bytes);
  CheckedArtifact(const CheckedArtifact&) = delete;
  CheckedArtifact& operator=(const CheckedArtifact&) = delete;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }
  /// core::store_digest_hex(bytes()).
  [[nodiscard]] const std::string& digest() const { return digest_; }
  /// True when the bytes hold a whole header whose checksum field equals
  /// the XXH64 checksum of the bytes after it.
  [[nodiscard]] bool checksum_matches() const { return checksum_matches_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::string digest_;
  bool checksum_matches_ = false;
};

// Decoders throw std::invalid_argument on truncated, corrupted,
// wrong-kind, or version-mismatched input.
[[nodiscard]] core::GroundTruth decode_ground_truth(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] core::SimArtifact decode_sim_artifact(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] core::Observations decode_observations(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] core::InferenceProducts decode_inference(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] core::AnalysisSuite decode_analysis_suite(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] core::SimChunk decode_sim_chunk(
    std::span<const std::uint8_t> bytes);

// The same decoders over checked bytes: the CheckedArtifact's verdict
// replaces the checksum pass (core::Experiment's store reads).
[[nodiscard]] core::GroundTruth decode_ground_truth(
    const CheckedArtifact& checked);
[[nodiscard]] core::SimArtifact decode_sim_artifact(
    const CheckedArtifact& checked);
[[nodiscard]] core::Observations decode_observations(
    const CheckedArtifact& checked);
[[nodiscard]] core::InferenceProducts decode_inference(
    const CheckedArtifact& checked);
[[nodiscard]] core::AnalysisSuite decode_analysis_suite(
    const CheckedArtifact& checked);
[[nodiscard]] core::SimChunk decode_sim_chunk(const CheckedArtifact& checked);

}  // namespace bgpolicy::io
