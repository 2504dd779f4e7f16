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
// live name.  Loads never throw on bad content: a missing, empty or
// unreadable file is a miss, and decoding (io/artifact_codec.h) treats
// corrupted or version-mismatched bytes as misses upstream.
//
// Reads map the entry read-only (map(); load() copies out of a mapping).
// That rests on one invariant: the store never rewrites an entry in place.
// put() replaces an entry by rename and erase() and gc() remove it by
// unlink, and either leaves a live mapping reading the bytes it mapped.  A
// process that truncates a live entry in place instead can crash a reader
// of it with SIGBUS.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
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

/// The header every stored entry starts with: the artifact codec's frame
/// header (io::kArtifactHeaderBytes), whose last field is the XXH64
/// checksum of the payload after it.
inline constexpr std::size_t kEntryHeaderBytes = 24;

/// The two hashes a store read takes (io::CheckedArtifact).
struct EntryHashes {
  /// store_digest_hex of the whole entry.
  std::string digest;
  /// xxh64 of the payload: the bytes past the header, or none when the
  /// entry is shorter.
  std::uint64_t payload = 0;
};

/// store_digest_hex(bytes) and xxh64(bytes.subspan(min(kEntryHeaderBytes,
/// size)), seed) in one pass over `bytes`: each 32-byte stripe is read
/// once, and its words feed the digest's two lane sets and, three words
/// out of step, the payload's lanes, all three sharing each word's first
/// multiply.  Equal to the separate calls at every length.
[[nodiscard]] EntryHashes hash_entry(std::span<const std::uint8_t> bytes,
                                     std::uint64_t seed);

/// Stable 128-bit digest of canonical text as 32 lowercase hex
/// characters: two 64-bit FNV-1a lanes.  Depends only on the bytes, never
/// on the process or platform.
[[nodiscard]] std::string stable_digest_hex(std::span<const std::uint8_t> bytes);
[[nodiscard]] std::string stable_digest_hex(std::string_view text);

/// What a store has done since it was opened, counted where the work
/// happens: the bytes its reads map and copy, the hash passes over what
/// they mapped, and the bytes its puts write (ArtifactStore::work()).
/// Hashing that is not a store read, such as the encoder's checksum and
/// the digest a persist takes of the bytes it puts, is not counted here.
struct StoreWork {
  /// Entries map() mapped (load() reads through it) and their bytes.
  std::uint64_t entries_mapped = 0;
  std::uint64_t bytes_mapped = 0;
  /// Bytes load() copied out of its mappings.
  std::uint64_t bytes_copied = 0;
  /// Passes over mapped bytes (MappedEntry::hash) and the bytes they read.
  std::uint64_t hash_passes = 0;
  std::uint64_t bytes_hashed = 0;
  /// put() calls that stored their entry, and its bytes.
  std::uint64_t puts = 0;
  std::uint64_t bytes_written = 0;
};

/// The counters behind StoreWork, shared by a store, its copies and the
/// entries they map.
struct StoreWorkCounters;

/// A read-only mapping of one store entry (ArtifactStore::map, which maps
/// no empty entry); a default-constructed or moved-from one holds no
/// bytes.  It stays valid after the entry is erased, evicted or replaced
/// (the store never rewrites an entry in place; see the file comment),
/// and unmaps when destroyed.  Movable, not copyable.
class MappedEntry {
 public:
  MappedEntry() = default;
  MappedEntry(MappedEntry&& other) noexcept;
  MappedEntry& operator=(MappedEntry&& other) noexcept;
  MappedEntry(const MappedEntry&) = delete;
  MappedEntry& operator=(const MappedEntry&) = delete;
  ~MappedEntry();

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, size_};
  }

  /// hash_entry(bytes(), seed), counted in the mapping store's work
  /// record as one pass over bytes().
  [[nodiscard]] EntryHashes hash(std::uint64_t seed) const;

 private:
  friend class ArtifactStore;
  MappedEntry(const std::uint8_t* data, std::size_t size,
              std::shared_ptr<StoreWorkCounters> work);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<StoreWorkCounters> work_;
};

class ArtifactStore {
 public:
  /// Opens (and creates, including parents) the store directory.  Throws
  /// std::filesystem::filesystem_error when the path cannot be created.
  explicit ArtifactStore(std::filesystem::path root);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  /// The file a key resolves to (whether or not it exists yet).
  [[nodiscard]] std::filesystem::path path_for(std::string_view key) const;

  /// The entry stored under `key`, mapped read-only, or nullopt when it is
  /// absent, empty, not a regular file or unreadable.  The store's one
  /// file-reading path.  Content integrity is the codec's job (header
  /// magic/version/checksum).
  [[nodiscard]] std::optional<MappedEntry> map(std::string_view key) const;

  /// A copy of the bytes stored under `key`: map() and one copy, so
  /// nullopt exactly when map() finds nothing.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      std::string_view key) const;

  /// Atomically stores `bytes` under `key` (temp file + rename), replacing
  /// any previous entry.  Failures are swallowed: the store is a cache, a
  /// failed write only costs a future recompute.  Returns false on failure.
  bool put(std::string_view key, std::span<const std::uint8_t> bytes) const;

  /// The work record of this store and its copies (StoreWork).
  [[nodiscard]] StoreWork work() const;

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
  /// most `max_bytes` (map() bumps an entry's timestamp, so "accessed"
  /// means read or written — filesystem atime is too unreliable to trust).
  /// Never evicts pinned entries or entries younger than `min_age` (both
  /// guards protect in-progress runs; entries are immutable files, so an
  /// evicted entry only ever costs a recompute).  Safe to run while
  /// writers are active and from a different process than the writers.
  GcResult gc(std::uint64_t max_bytes,
              std::chrono::seconds min_age = std::chrono::seconds(0)) const;

 private:
  std::filesystem::path root_;
  std::shared_ptr<StoreWorkCounters> work_;
};

}  // namespace bgpolicy::core
