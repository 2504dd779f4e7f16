#include "io/binary_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace bgpolicy::io {

namespace {

constexpr std::uint16_t kVersion = 1;
constexpr char kMagic[4] = {'B', 'G', 'P', 'T'};

/// Bytes of the table header (magic, version, owner, route count) and of
/// one route before its variable-length hop and community lists.
constexpr std::size_t kHeaderBytes = 4 + 2 + 4 + 8;
constexpr std::size_t kRouteFixedBytes = 4 + 1 + 4 + 4 + 4 + 1 + 2 + 2;

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

  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void append_table(const bgp::BgpTable& table, std::vector<std::uint8_t>& out) {
  std::size_t bytes = kHeaderBytes;
  table.for_each([&](const bgp::Prefix&, std::span<const bgp::Route> routes) {
    for (const bgp::Route& route : routes) {
      bytes += kRouteFixedBytes +
               sizeof(std::uint32_t) *
                   (route.path.length() + route.communities.size());
    }
  });
  const std::size_t start = out.size();
  out.resize(start + bytes);

  Writer w(out.data() + start);
  for (const char c : kMagic) w.put(static_cast<std::uint8_t>(c));
  w.put(kVersion);
  w.put(table.owner().value());
  w.put(static_cast<std::uint64_t>(table.route_count()));
  table.for_each([&](const bgp::Prefix& prefix,
                     std::span<const bgp::Route> routes) {
    for (const bgp::Route& route : routes) {
      w.put(prefix.network());
      w.put(prefix.length());
      w.put(route.learned_from.value());
      w.put(route.local_pref);
      w.put(route.med);
      w.put(static_cast<std::uint8_t>(route.origin));
      w.put(static_cast<std::uint16_t>(route.path.length()));
      for (const auto hop : route.path.hops()) w.put(hop.value());
      w.put(static_cast<std::uint16_t>(route.communities.size()));
      for (const auto c : route.communities) w.put(c.raw());
    }
  });
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
  bgp::BgpTable table{util::AsNumber(r.get<std::uint32_t>())};
  const std::uint64_t route_count = r.get<std::uint64_t>();

  std::vector<bgp::Route> routes;
  // route_count is untrusted input: cap the reservation by what the
  // remaining bytes could possibly encode (a route is ≥ 22 bytes), so a
  // corrupted header fails with invalid_argument below, not bad_alloc.
  routes.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(route_count, bytes.size() / 22 + 1)));
  for (std::uint64_t i = 0; i < route_count; ++i) {
    bgp::Route route;
    const std::uint32_t network = r.get<std::uint32_t>();
    const std::uint8_t length = r.get<std::uint8_t>();
    if (length > 32) throw std::invalid_argument("binary table: bad length");
    route.prefix = bgp::Prefix(network, length);
    route.learned_from = util::AsNumber(r.get<std::uint32_t>());
    route.local_pref = r.get<std::uint32_t>();
    route.med = r.get<std::uint32_t>();
    const std::uint8_t origin = r.get<std::uint8_t>();
    if (origin > 2) throw std::invalid_argument("binary table: bad origin");
    route.origin = static_cast<bgp::Origin>(origin);
    const std::uint16_t path_len = r.get<std::uint16_t>();
    std::vector<util::AsNumber> hops;
    hops.reserve(path_len);
    for (std::uint16_t h = 0; h < path_len; ++h) {
      hops.emplace_back(r.get<std::uint32_t>());
    }
    route.path = bgp::AsPath(std::move(hops));
    const std::uint16_t community_count = r.get<std::uint16_t>();
    route.communities.reserve(community_count);
    for (std::uint16_t c = 0; c < community_count; ++c) {
      route.add_community(bgp::Community(r.get<std::uint32_t>()));
    }
    route.router_id = route.learned_from.value();
    routes.push_back(std::move(route));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("binary table: trailing bytes");
  }
  table.add_batch(std::move(routes));
  return table;
}

}  // namespace bgpolicy::io
