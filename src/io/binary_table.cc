#include "io/binary_table.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace bgpolicy::io {

namespace {

constexpr std::uint16_t kVersion = 2;
constexpr char kMagic[4] = {'B', 'G', 'P', 'T'};

/// Bytes of the header, of one prefix's and of one row's fixed columns.
constexpr std::size_t kHeaderBytes = 4 + 2 + 4 + 4 * 4;
constexpr std::size_t kPrefixBytes = 4 + 1 + 4;
constexpr std::size_t kRowBytes = 4 + 4 + 4 + 1 + 2 + 2;

std::uint64_t table_bytes(std::uint64_t prefixes, std::uint64_t rows,
                          std::uint64_t hops, std::uint64_t communities) {
  return kHeaderBytes + kPrefixBytes * prefixes + kRowBytes * rows +
         sizeof(std::uint32_t) * (hops + communities);
}

template <typename T>
constexpr bool kStoredAsIs =
    std::is_trivially_copyable_v<T> &&
    (sizeof(T) == sizeof(std::uint32_t) || sizeof(T) == 1);

/// Writes through a cursor into bytes the caller has already sized.
class Writer {
 public:
  explicit Writer(std::uint8_t* cursor) : cursor_(cursor) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(cursor_, &value, sizeof(T));
    cursor_ += sizeof(T);
  }

  /// A column in one copy.
  template <typename T>
  void put_column(const std::vector<T>& column) {
    static_assert(kStoredAsIs<T>);
    if (column.empty()) return;
    std::memcpy(cursor_, column.data(), column.size() * sizeof(T));
    cursor_ += column.size() * sizeof(T);
  }

  /// The lengths of the slices `offsets` delimit, as `Length` values.
  template <typename Length>
  void put_lengths(const std::vector<std::uint32_t>& offsets) {
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      put(static_cast<Length>(offsets[i] - offsets[i - 1]));
    }
  }

  [[nodiscard]] const std::uint8_t* cursor() const { return cursor_; }

 private:
  std::uint8_t* cursor_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > bytes_.size()) {
      throw std::invalid_argument("binary table: truncated input");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// `count` stored values copied into a column.  The caller has checked
  /// the total size, so the bytes are there.
  template <typename T>
  std::vector<T> column(std::size_t count) {
    static_assert(kStoredAsIs<T>);
    std::vector<T> out(count);
    if (count != 0) {
      std::memcpy(out.data(), bytes_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return out;
  }

  /// `count` stored `Length` values turned into count + 1 offsets; throws
  /// unless they sum to `total`.
  template <typename Length>
  std::vector<std::uint32_t> offsets(std::size_t count, std::uint64_t total) {
    std::vector<std::uint32_t> out(count + 1);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Length length;
      std::memcpy(&length, bytes_.data() + pos_, sizeof(Length));
      pos_ += sizeof(Length);
      sum += length;
      if (sum > total) break;
      out[i + 1] = static_cast<std::uint32_t>(sum);
    }
    if (sum != total) {
      throw std::invalid_argument("binary table: lengths miss their total");
    }
    return out;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_table(const bgp::BgpTable& table, std::vector<std::uint8_t>& out) {
  const bgp::BgpTable::Columns& c = table.columns();
  const std::size_t start = out.size();
  out.resize(start + table_bytes(c.prefixes.size(), c.learned_from.size(),
                                 c.hops.size(), c.communities.size()));

  Writer w(out.data() + start);
  for (const char ch : kMagic) w.put(static_cast<std::uint8_t>(ch));
  w.put(kVersion);
  w.put(table.owner().value());
  w.put(static_cast<std::uint32_t>(c.prefixes.size()));
  w.put(static_cast<std::uint32_t>(c.learned_from.size()));
  w.put(static_cast<std::uint32_t>(c.hops.size()));
  w.put(static_cast<std::uint32_t>(c.communities.size()));
  for (const bgp::Prefix& prefix : c.prefixes) w.put(prefix.network());
  for (const bgp::Prefix& prefix : c.prefixes) w.put(prefix.length());
  w.put_lengths<std::uint32_t>(c.row_offsets);
  w.put_column(c.learned_from);
  w.put_column(c.local_pref);
  w.put_column(c.med);
  w.put_column(c.origin);
  w.put_lengths<std::uint16_t>(c.hop_offsets);
  w.put_lengths<std::uint16_t>(c.community_offsets);
  w.put_column(c.hops);
  w.put_column(c.communities);
  assert(w.cursor() == out.data() + out.size());
}

std::vector<std::uint8_t> serialize_table(const bgp::BgpTable& table) {
  std::vector<std::uint8_t> out;
  append_table(table, out);
  return out;
}

bgp::BgpTable deserialize_table(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  char magic[4];
  for (char& ch : magic) ch = static_cast<char>(r.get<std::uint8_t>());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::invalid_argument("binary table: bad magic");
  }
  if (r.get<std::uint16_t>() != kVersion) {
    throw std::invalid_argument("binary table: unsupported version");
  }
  const util::AsNumber owner(r.get<std::uint32_t>());
  const std::uint32_t prefixes = r.get<std::uint32_t>();
  const std::uint32_t rows = r.get<std::uint32_t>();
  const std::uint32_t hops = r.get<std::uint32_t>();
  const std::uint32_t communities = r.get<std::uint32_t>();
  if (bytes.size() != table_bytes(prefixes, rows, hops, communities)) {
    throw std::invalid_argument("binary table: size does not match counts");
  }

  bgp::BgpTable::Columns c;
  const std::vector<std::uint32_t> networks =
      r.column<std::uint32_t>(prefixes);
  const std::vector<std::uint8_t> lengths = r.column<std::uint8_t>(prefixes);
  c.prefixes.reserve(prefixes);
  for (std::size_t i = 0; i < prefixes; ++i) {
    if (lengths[i] > 32) {
      throw std::invalid_argument("binary table: bad length");
    }
    const bgp::Prefix prefix(networks[i], lengths[i]);
    if (prefix.network() != networks[i]) {
      throw std::invalid_argument("binary table: host bits set");
    }
    c.prefixes.push_back(prefix);
  }
  c.row_offsets = r.offsets<std::uint32_t>(prefixes, rows);
  c.learned_from = r.column<util::AsNumber>(rows);
  c.local_pref = r.column<std::uint32_t>(rows);
  c.med = r.column<std::uint32_t>(rows);
  c.origin = r.column<bgp::Origin>(rows);
  c.hop_offsets = r.offsets<std::uint16_t>(rows, hops);
  c.community_offsets = r.offsets<std::uint16_t>(rows, communities);
  c.hops = r.column<util::AsNumber>(hops);
  c.communities = r.column<bgp::Community>(communities);
  return bgp::BgpTable::adopt(owner, std::move(c));
}

}  // namespace bgpolicy::io
