#include "core/artifact_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <system_error>
#include <utility>
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

// XXH64's constants and steps, as published.
constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ULL;

template <typename T>
T read_le(const std::uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) value = __builtin_bswap64(value);
    if constexpr (sizeof(T) == 4) value = __builtin_bswap32(value);
  }
  return value;
}

constexpr std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kXxPrime2, 31) * kXxPrime1;
}

constexpr std::uint64_t xx_merge(std::uint64_t hash, std::uint64_t acc) {
  return (hash ^ xx_round(0, acc)) * kXxPrime1 + kXxPrime4;
}

constexpr std::size_t kStripeBytes = 32;

/// One 32-byte stripe as the four lanes' words.
using Stripe = std::array<std::uint64_t, 4>;

Stripe read_stripe(const std::uint8_t* p) {
  return {read_le<std::uint64_t>(p), read_le<std::uint64_t>(p + 8),
          read_le<std::uint64_t>(p + 16), read_le<std::uint64_t>(p + 24)};
}

/// One XXH64 computation, fed whole stripes and then finished over the
/// tail: the one implementation behind xxh64, store_digest_hex and
/// hash_entry, which differ only in how many run side by side and where
/// their stripes start.
class Xxh64 {
 public:
  explicit Xxh64(std::uint64_t seed)
      : seed_(seed),
        lanes_{seed + kXxPrime1 + kXxPrime2, seed + kXxPrime2, seed,
               seed - kXxPrime1} {}

  void lane(std::size_t i, std::uint64_t word) {
    lanes_[i] = xx_round(lanes_[i], word);
  }

  // Written out lane by lane: a loop over the lanes kept them in memory
  // (GCC -O2), where each round waited on a store and a reload.
  void stripe(const Stripe& words) {
    lane(0, words[0]);
    lane(1, words[1]);
    lane(2, words[2]);
    lane(3, words[3]);
  }

  /// The hash of `length` bytes: every whole stripe of them has been fed,
  /// and `tail` is the rest (length % 32 bytes).
  [[nodiscard]] std::uint64_t finish(std::span<const std::uint8_t> tail,
                                     std::uint64_t length) const {
    std::uint64_t h = seed_ + kXxPrime5;
    if (length >= kStripeBytes) {
      const Stripe& v = lanes_;
      h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
          std::rotl(v[3], 18);
      for (const std::uint64_t acc : v) h = xx_merge(h, acc);
    }
    h += length;
    const std::uint8_t* p = tail.data();
    const std::uint8_t* const end = p + tail.size();
    for (; end - p >= 8; p += 8) {
      h = std::rotl(h ^ xx_round(0, read_le<std::uint64_t>(p)), 27) *
              kXxPrime1 +
          kXxPrime4;
    }
    if (end - p >= 4) {
      h = std::rotl(h ^ (read_le<std::uint32_t>(p) * kXxPrime1), 23) *
              kXxPrime2 +
          kXxPrime3;
      p += 4;
    }
    for (; p < end; ++p) h = std::rotl(h ^ (*p * kXxPrime5), 11) * kXxPrime1;
    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  std::uint64_t seed_;
  Stripe lanes_;
};

/// The store digest's two lanes, fed from one read of each stripe.
class DigestLanes {
 public:
  DigestLanes() : first_(kStoreDigestSeeds[0]), second_(kStoreDigestSeeds[1]) {}

  void stripe(const Stripe& words) {
    first_.stripe(words);
    second_.stripe(words);
  }

  [[nodiscard]] std::string finish(std::span<const std::uint8_t> tail,
                                   std::uint64_t length) const {
    std::string out;
    out.reserve(32);
    append_hex64(out, first_.finish(tail, length));
    append_hex64(out, second_.finish(tail, length));
    return out;
  }

 private:
  Xxh64 first_;
  Xxh64 second_;
};

/// The bytes of `bytes` past its whole stripes.
std::span<const std::uint8_t> stripe_tail(std::span<const std::uint8_t> bytes) {
  return bytes.subspan(bytes.size() - bytes.size() % kStripeBytes);
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const std::uint8_t byte : bytes) hash = (hash ^ byte) * kFnvPrime;
  return hash;
}

std::uint64_t xxh64(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  Xxh64 hash(seed);
  const std::size_t stripes = bytes.size() / kStripeBytes;
  for (std::size_t i = 0; i < stripes; ++i) {
    hash.stripe(read_stripe(bytes.data() + i * kStripeBytes));
  }
  return hash.finish(stripe_tail(bytes), bytes.size());
}

std::string store_digest_hex(std::span<const std::uint8_t> bytes) {
  DigestLanes digest;
  const std::size_t stripes = bytes.size() / kStripeBytes;
  for (std::size_t i = 0; i < stripes; ++i) {
    digest.stripe(read_stripe(bytes.data() + i * kStripeBytes));
  }
  return digest.finish(stripe_tail(bytes), bytes.size());
}

namespace {

/// The header's length in words: word i of a digest stripe is word
/// i - kSkew of a payload stripe, or, when i < kSkew, word i + 4 - kSkew
/// of the payload stripe before it.
constexpr std::size_t kSkew = kEntryHeaderBytes / 8;
static_assert(kEntryHeaderBytes % 8 == 0 && kSkew < 4);

/// Feeds words [kFrom, kTo) of a digest stripe to the payload's lanes.
template <std::size_t kFrom, std::size_t kTo>
void feed_payload(Xxh64& payload, const Stripe& words) {
  [&]<std::size_t... kI>(std::index_sequence<kI...>) {
    (payload.lane((kFrom + kI + 4 - kSkew) % 4, words[kFrom + kI]), ...);
  }(std::make_index_sequence<kTo - kFrom>{});
}

}  // namespace

EntryHashes hash_entry(std::span<const std::uint8_t> bytes,
                       std::uint64_t seed) {
  const std::span<const std::uint8_t> payload_bytes =
      bytes.subspan(std::min(kEntryHeaderBytes, bytes.size()));
  const std::size_t stripes = bytes.size() / kStripeBytes;
  const std::size_t payload_stripes = payload_bytes.size() / kStripeBytes;
  DigestLanes digest;
  Xxh64 payload(seed);
  const auto read = [&](std::size_t k) {
    return read_stripe(bytes.data() + k * kStripeBytes);
  };
  // Each loop reads a stripe once; a word's first multiply is the same in
  // all three lane sets, so the compiler takes it once.
  const std::size_t both = std::min(stripes, payload_stripes);
  std::size_t k = 0;
  if (both > 0) {  // the header's words start no payload stripe
    const Stripe words = read(k++);
    digest.stripe(words);
    feed_payload<kSkew, 4>(payload, words);
  }
  for (; k < both; ++k) {
    const Stripe words = read(k);
    digest.stripe(words);
    feed_payload<0, 4>(payload, words);
  }
  for (; k < stripes; ++k) {  // at most one: it ends the last payload stripe
    const Stripe words = read(k);
    digest.stripe(words);
    if (k > 0) feed_payload<0, kSkew>(payload, words);
  }
  if (payload_stripes > 0 && payload_stripes == stripes) {
    // The last payload stripe ends in the digest's tail.
    Stripe words{};
    for (std::size_t i = 0; i < kSkew; ++i) {
      words[i] = read_le<std::uint64_t>(bytes.data() +
                                        stripes * kStripeBytes + 8 * i);
    }
    feed_payload<0, kSkew>(payload, words);
  }
  return {digest.finish(stripe_tail(bytes), bytes.size()),
          payload.finish(stripe_tail(payload_bytes), payload_bytes.size())};
}

std::string stable_digest_hex(std::span<const std::uint8_t> bytes) {
  // Two independent multiply chains: the second lane runs in the first
  // one's latency.
  std::uint64_t first = kFnvOffset;
  std::uint64_t second = kFnvOffsetAlt;
  for (const std::uint8_t byte : bytes) {
    first = (first ^ byte) * kFnvPrime;
    second = (second ^ byte) * kFnvPrime;
  }
  std::string out;
  out.reserve(32);
  append_hex64(out, first);
  append_hex64(out, second);
  return out;
}

std::string stable_digest_hex(std::string_view text) {
  return stable_digest_hex(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

struct StoreWorkCounters {
  std::atomic<std::uint64_t> entries_mapped{0};
  std::atomic<std::uint64_t> bytes_mapped{0};
  std::atomic<std::uint64_t> bytes_copied{0};
  std::atomic<std::uint64_t> hash_passes{0};
  std::atomic<std::uint64_t> bytes_hashed{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> bytes_written{0};
};

MappedEntry::MappedEntry(const std::uint8_t* data, std::size_t size,
                         std::shared_ptr<StoreWorkCounters> work)
    : data_(data), size_(size), work_(std::move(work)) {}

MappedEntry::MappedEntry(MappedEntry&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      work_(std::move(other.work_)) {}

MappedEntry& MappedEntry::operator=(MappedEntry&& other) noexcept {
  if (this != &other) {
    MappedEntry old(std::move(*this));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    work_ = std::move(other.work_);
  }
  return *this;
}

MappedEntry::~MappedEntry() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

EntryHashes MappedEntry::hash(std::uint64_t seed) const {
  if (work_) {
    ++work_->hash_passes;
    work_->bytes_hashed += size_;
  }
  return hash_entry(bytes(), seed);
}

ArtifactStore::ArtifactStore(std::filesystem::path root)
    : root_(std::move(root)), work_(std::make_shared<StoreWorkCounters>()) {
  std::filesystem::create_directories(root_);
}

std::filesystem::path ArtifactStore::path_for(std::string_view key) const {
  return root_ / (stable_digest_hex(key) + ".art");
}

std::optional<MappedEntry> ArtifactStore::map(std::string_view key) const {
  const std::filesystem::path path = path_for(key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  // An empty file never reaches mmap, which rejects a zero length; a
  // directory or device under an entry's name is no entry either.
  struct stat status {};
  void* data = MAP_FAILED;
  std::size_t size = 0;
  if (::fstat(fd, &status) == 0 && S_ISREG(status.st_mode) &&
      status.st_size > 0) {
    size = static_cast<std::size_t>(status.st_size);
    data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);  // the mapping keeps the file
  if (data == MAP_FAILED) return std::nullopt;
  // Best-effort access-time bump: gc() orders eviction by this timestamp
  // (filesystem atime is unreliable — often mounted noatime), so a read
  // counts as recent use.  Failure is harmless.
  std::error_code ignored;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ignored);
  ++work_->entries_mapped;
  work_->bytes_mapped += size;
  return MappedEntry(static_cast<const std::uint8_t*>(data), size, work_);
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::load(
    std::string_view key) const {
  const std::optional<MappedEntry> entry = map(key);
  if (!entry) return std::nullopt;
  const std::span<const std::uint8_t> bytes = entry->bytes();
  work_->bytes_copied += bytes.size();
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

StoreWork ArtifactStore::work() const {
  StoreWork out;
  out.entries_mapped = work_->entries_mapped;
  out.bytes_mapped = work_->bytes_mapped;
  out.bytes_copied = work_->bytes_copied;
  out.hash_passes = work_->hash_passes;
  out.bytes_hashed = work_->bytes_hashed;
  out.puts = work_->puts;
  out.bytes_written = work_->bytes_written;
  return out;
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
  ++work_->puts;
  work_->bytes_written += bytes.size();
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
