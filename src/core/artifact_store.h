// Content-addressed on-disk cache for stage artifacts.
//
// The paper's methodology re-runs inference many times over one fixed
// observation corpus; the staged experiment API (experiment.h) already
// caches stage artifacts in memory, and this store extends that cache
// across process boundaries: a killed sweep re-run against the same store
// loads the artifacts it already produced and recomputes only what is
// missing.
//
// The store is a flat directory of `<digest>.art` files.  Callers address
// entries by an arbitrary key string (Experiment builds keys from the
// scenario cache key, upstream artifact digests, and stage parameters —
// see docs/ARCHITECTURE.md); the store hashes the key into the file name,
// so keys never need escaping and collisions are as unlikely as a 128-bit
// hash makes them.  Writes go through a temp file plus an atomic rename,
// so concurrent writers of the same key are safe (both write identical
// bytes) and a killed process never leaves a half-written entry under a
// live name.  Loads never throw on bad content: a missing or unreadable
// file is a miss, and decoding (io/artifact_codec.h) treats corrupted or
// version-mismatched bytes as misses upstream.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bgpolicy::core {

// Two digest families, one per kind of input:
//  - stored artifact bytes (io/artifact_codec.h) are hashed with XXH64: the
//    store digest the staged keys chain on (store_digest_hex) and the
//    codec's frame checksum.  A resume hashes every byte it loads, so this
//    hash runs at memory speed;
//  - canonical text is hashed with FNV-1a (stable_digest_hex): store file
//    names (path_for), the analyses and watched-table digests perfbench
//    checks against perfbench/reference.json, the serve snapshot
//    identity, and the content pins.  Its values never move with the
//    storage format.

/// 64-bit FNV-1a over `bytes`, folded over `seed` (stable_digest_hex's
/// lanes; serve/frame.cc's checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                                    std::uint64_t seed);

/// XXH64 as published (32-byte stripes over four lanes, little-endian
/// reads, any alignment); xxh64("", 0) = 0xef46db3751d8e999.
[[nodiscard]] std::uint64_t xxh64(std::span<const std::uint8_t> bytes,
                                  std::uint64_t seed);

/// The seeds of the store digest's two XXH64 lanes.
inline constexpr std::array<std::uint64_t, 2> kStoreDigestSeeds = {
    0x0000000000000000ULL, 0x9e3779b97f4a7c15ULL};

/// The store digest of stored artifact bytes as 32 lowercase hex
/// characters: xxh64 under kStoreDigestSeeds[0], then under
/// kStoreDigestSeeds[1], both lanes fed from one read of each stripe.
/// The upstream-artifact digest the staged cache keys chain on, and what a
/// `.scn` `digest` assertion pins.  Depends only on the bytes, never on
/// the process or platform.
[[nodiscard]] std::string store_digest_hex(std::span<const std::uint8_t> bytes);

/// Stable 128-bit digest of canonical text as 32 lowercase hex
/// characters: two 64-bit FNV-1a lanes.  Depends only on the bytes, never
/// on the process or platform.
[[nodiscard]] std::string stable_digest_hex(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::string stable_digest_hex(std::string_view text);

class ArtifactStore {
 public:
  /// Opens (and creates, including parents) the store directory.  Throws
  /// std::filesystem::filesystem_error when the path cannot be created.
  explicit ArtifactStore(std::filesystem::path root);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  /// The file a key resolves to (whether or not it exists yet).
  [[nodiscard]] std::filesystem::path path_for(std::string_view key) const;

  /// The bytes stored under `key`, or nullopt when absent or unreadable.
  /// Content integrity is the codec's job (header magic/version/checksum).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      std::string_view key) const;

  /// Atomically stores `bytes` under `key` (temp file + rename), replacing
  /// any previous entry.  Failures are swallowed: the store is a cache, a
  /// failed write only costs a future recompute.  Returns false on failure.
  bool put(std::string_view key, std::span<const std::uint8_t> bytes) const;

  [[nodiscard]] bool contains(std::string_view key) const;

  /// Removes the entry for `key`; returns true when something was removed.
  bool erase(std::string_view key) const;

  /// Number of artifacts currently on disk (diagnostics/tests).
  [[nodiscard]] std::size_t size() const;

  /// Total bytes of all artifacts currently on disk.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// One on-disk artifact as seen by a directory scan.  Keys are hashed
  /// into file names, so entries are addressed by path, not key.
  struct Entry {
    std::filesystem::path path;
    std::uint64_t bytes = 0;
    bool pinned = false;
    std::filesystem::file_time_type accessed{};
  };

  /// Every artifact currently on disk, sorted by file name (stable across
  /// runs).  Unreadable entries are skipped — the census, like gc(), is
  /// best-effort over a live directory.
  [[nodiscard]] std::vector<Entry> list() const;

  // ---- pinning: in-progress-run protection for gc() -------------------
  // A pin is a `<digest>.pin` sidecar next to the entry's file.  Runs pin
  // the Simulate chunk entries they are writing (core::Experiment) and
  // unpin when the merged stage artifact supersedes them, so a concurrent
  // gc() — possibly in another process (tools/store_gc) — never evicts the
  // chunks an in-progress run still needs for resume.  A killed run can
  // leave stale pins behind; clear_stale_pins() ages them out.

  /// Marks `key` as not-evictable; idempotent.  Returns false on IO error.
  bool pin(std::string_view key) const;
  /// Removes the pin for `key` (the entry itself is untouched).
  bool unpin(std::string_view key) const;
  [[nodiscard]] bool pinned(std::string_view key) const;
  /// Removes every pin sidecar older than `max_age`; returns how many.
  std::size_t clear_stale_pins(std::chrono::seconds max_age) const;

  // ---- gc: LRU eviction ----------------------------------------------
  struct GcResult {
    std::size_t scanned = 0;
    std::size_t evicted = 0;
    std::size_t pinned_kept = 0;
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;
  };

  /// Evicts least-recently-accessed artifacts until the store holds at
  /// most `max_bytes` (load() bumps an entry's timestamp, so "accessed"
  /// means read or written — filesystem atime is too unreliable to trust).
  /// Never evicts pinned entries or entries younger than `min_age` (both
  /// guards protect in-progress runs; entries are immutable files, so an
  /// evicted entry only ever costs a recompute).  Safe to run while
  /// writers are active and from a different process than the writers.
  GcResult gc(std::uint64_t max_bytes,
              std::chrono::seconds min_age = std::chrono::seconds(0)) const;

 private:
  std::filesystem::path root_;
};

}  // namespace bgpolicy::core
