#include "core/artifact_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <system_error>
#include <vector>

namespace bgpolicy::core {

namespace {

constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ULL;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/// A second, independent basis so the two 64-bit halves of the 128-bit
/// digest never cancel each other.
constexpr std::uint64_t kFnvOffsetAlt = 0x6c62272e07bb0142ULL;

void append_hex64(std::string& out, std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(value >> shift) & 0xF];
  }
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const std::uint8_t byte : bytes) hash = (hash ^ byte) * kFnvPrime;
  return hash;
}

DigestWithTail stable_digest_with_tail(std::span<const std::uint8_t> bytes,
                                       std::size_t tail_from,
                                       std::uint64_t tail_seed) {
  // The two digest lanes, fnv1a64(bytes, kFnvOffset) and
  // fnv1a64(bytes, kFnvOffsetAlt), join the tail lane from `tail_from` on:
  // the multiply chains are independent, so the extra lanes run in the
  // first one's latency.
  std::uint64_t first = kFnvOffset;
  std::uint64_t second = kFnvOffsetAlt;
  std::uint64_t tail = tail_seed;
  const std::size_t head = std::min(tail_from, bytes.size());
  for (std::size_t i = 0; i < head; ++i) {
    first = (first ^ bytes[i]) * kFnvPrime;
    second = (second ^ bytes[i]) * kFnvPrime;
  }
  for (std::size_t i = head; i < bytes.size(); ++i) {
    first = (first ^ bytes[i]) * kFnvPrime;
    second = (second ^ bytes[i]) * kFnvPrime;
    tail = (tail ^ bytes[i]) * kFnvPrime;
  }
  DigestWithTail out;
  out.digest.reserve(32);
  append_hex64(out.digest, first);
  append_hex64(out.digest, second);
  out.tail = tail;
  return out;
}

std::string stable_digest_hex(std::span<const std::uint8_t> bytes) {
  return stable_digest_with_tail(bytes, bytes.size(), 0).digest;
}

std::string stable_digest_hex(std::string_view text) {
  return stable_digest_hex(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

ArtifactStore::ArtifactStore(std::filesystem::path root)
    : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
}

std::filesystem::path ArtifactStore::path_for(std::string_view key) const {
  return root_ / (stable_digest_hex(key) + ".art");
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    std::string_view key) const {
  const std::filesystem::path path = path_for(key);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size < 0) return std::nullopt;
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in) return std::nullopt;
  }
  // Best-effort access-time bump: gc() orders eviction by this timestamp
  // (filesystem atime is unreliable — often mounted noatime), so a read
  // counts as recent use.  Failure is harmless.
  std::error_code ignored;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ignored);
  return bytes;
}

bool ArtifactStore::put(std::string_view key,
                        std::span<const std::uint8_t> bytes) const {
  const std::filesystem::path target = path_for(key);
  // Temp name unique per writer: a concurrent writer of the same key races
  // only at the final rename, which atomically installs one of two
  // identical files.  (Even a pathological temp collision only yields
  // bytes the codec checksum rejects — a miss, never an error.)
  std::filesystem::path temp = target;
  temp += ".tmp" +
          std::to_string(static_cast<unsigned long long>(
              std::chrono::steady_clock::now().time_since_epoch().count())) +
          "." + std::to_string(static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(this)));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    // close() flushes the buffered tail: a failure there (disk full, file
    // size limit) must fail the put like one inside write().
    out.close();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(temp, ignored);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, target, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    return false;
  }
  return true;
}

bool ArtifactStore::contains(std::string_view key) const {
  std::error_code ec;
  return std::filesystem::exists(path_for(key), ec);
}

bool ArtifactStore::erase(std::string_view key) const {
  std::error_code ec;
  return std::filesystem::remove(path_for(key), ec);
}

std::size_t ArtifactStore::size() const {
  std::size_t count = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".art") ++count;
  }
  return count;
}

std::uint64_t ArtifactStore::total_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".art") continue;
    std::error_code size_ec;
    const std::uintmax_t size = it->file_size(size_ec);
    if (!size_ec) total += size;
  }
  return total;
}

// ------------------------------------------------------------------- pins --

namespace {

std::filesystem::path pin_path_for(const std::filesystem::path& art_path);

}  // namespace

std::vector<ArtifactStore::Entry> ArtifactStore::list() const {
  std::vector<Entry> entries;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".art") continue;
    std::error_code entry_ec;
    Entry entry;
    entry.path = it->path();
    entry.bytes = it->file_size(entry_ec);
    if (entry_ec) continue;
    entry.accessed = it->last_write_time(entry_ec);
    if (entry_ec) continue;
    std::error_code pin_ec;
    entry.pinned = std::filesystem::exists(pin_path_for(entry.path), pin_ec);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.path.filename() < b.path.filename();
            });
  return entries;
}

namespace {

std::filesystem::path pin_path_for(const std::filesystem::path& art_path) {
  std::filesystem::path pin = art_path;
  pin.replace_extension(".pin");
  return pin;
}

}  // namespace

bool ArtifactStore::pin(std::string_view key) const {
  std::ofstream out(pin_path_for(path_for(key)),
                    std::ios::binary | std::ios::trunc);
  return static_cast<bool>(out);
}

bool ArtifactStore::unpin(std::string_view key) const {
  std::error_code ec;
  return std::filesystem::remove(pin_path_for(path_for(key)), ec);
}

bool ArtifactStore::pinned(std::string_view key) const {
  std::error_code ec;
  return std::filesystem::exists(pin_path_for(path_for(key)), ec);
}

std::size_t ArtifactStore::clear_stale_pins(std::chrono::seconds max_age) const {
  const auto now = std::filesystem::file_time_type::clock::now();
  std::size_t cleared = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".pin") continue;
    std::error_code entry_ec;
    const auto written = it->last_write_time(entry_ec);
    if (entry_ec) continue;
    if (now - written >= max_age) {
      std::error_code remove_ec;
      if (std::filesystem::remove(it->path(), remove_ec)) ++cleared;
    }
  }
  return cleared;
}

// --------------------------------------------------------------------- gc --

ArtifactStore::GcResult ArtifactStore::gc(std::uint64_t max_bytes,
                                          std::chrono::seconds min_age) const {
  struct Entry {
    std::filesystem::path path;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type accessed;
  };

  GcResult result;
  const auto now = std::filesystem::file_time_type::clock::now();
  std::vector<Entry> evictable;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".art") continue;
    std::error_code entry_ec;
    const std::uintmax_t bytes = it->file_size(entry_ec);
    if (entry_ec) continue;
    const auto accessed = it->last_write_time(entry_ec);
    if (entry_ec) continue;
    ++result.scanned;
    result.bytes_before += bytes;
    std::error_code pin_ec;
    if (std::filesystem::exists(pin_path_for(it->path()), pin_ec)) {
      ++result.pinned_kept;
      continue;
    }
    if (now - accessed < min_age) continue;
    evictable.push_back({it->path(), bytes, accessed});
  }
  result.bytes_after = result.bytes_before;
  if (result.bytes_before <= max_bytes) return result;

  // Oldest access first; file-name tie-break keeps the order stable when
  // timestamps collide (coarse filesystem clocks).
  std::sort(evictable.begin(), evictable.end(),
            [](const Entry& a, const Entry& b) {
              if (a.accessed != b.accessed) return a.accessed < b.accessed;
              return a.path.filename() < b.path.filename();
            });
  for (const Entry& entry : evictable) {
    if (result.bytes_after <= max_bytes) break;
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path, remove_ec)) {
      ++result.evicted;
      result.bytes_after -= entry.bytes;
    }
  }
  return result;
}

}  // namespace bgpolicy::core
