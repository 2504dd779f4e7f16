// The symmetric archive behind the stored artifacts (io/artifact_codec.h)
// and the query service's payloads (serve/query.h): a Writer and a checked
// Reader that walk each type's one field list (util/fields.h), so a type's
// stored or served form is written out once.
//
// Field encoding, each value in native (little-endian) byte order:
//   bool                      u8 0 or 1
//   enum                      its underlying integer
//   integer, double           as laid out (std::size_t is u64)
//   util::AsNumber            u32
//   bgp::Prefix               u32 network | u8 length
//   std::string               count | bytes
//   std::vector<T>            count | each T (integers and AS numbers as one
//                             column copy)
//   std::optional<T>          u8 flag | T when set
//   std::unordered_map<K, V>  count | K, V per entry in ascending key order,
//                             so the bytes are a function of content
//   std::pair<A, B>           A | B
//   a type with a list        its fields in list order
//   anything else             its hand-written encode_field/decode_field
//                             overloads, found by argument-dependent lookup
//                             (the artifact codec's table blobs, AS graph
//                             and observation buffers)
//
// `Count` is the width of every count: u64 in stored artifacts, u32 in the
// query service's payloads, u16 in its what-if request.
//
// The Reader throws std::invalid_argument on truncated input, on a flag
// other than 0 or 1, on an enum value outside the range its enum_range()
// overload declares, on a prefix length past 32, on a repeated map key and
// on every count that cannot fit in the bytes left: each element takes at
// least min_bytes, the encoded size of an element whose every string,
// container and optional is empty, read off the element's own list.  A
// type whose fields constrain one another declares check_fields(const T&),
// which the Reader calls once they are read.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/prefix.h"
#include "util/fields.h"
#include "util/ids.h"

namespace bgpolicy::io {

namespace archive_detail {

template <typename T, template <typename...> typename Template>
inline constexpr bool kIs = false;
template <template <typename...> typename Template, typename... Args>
inline constexpr bool kIs<Template<Args...>, Template> = true;

template <typename T>
concept Listed = requires(util::fields_detail::Counter& v, T& value) {
  fields(v, value);
};

/// Stored as one copy of the vector's memory.
template <typename T>
concept Column = (std::is_arithmetic_v<T> && !std::same_as<T, bool>) ||
                 std::same_as<T, util::AsNumber>;

template <typename T>
concept Sequence = std::same_as<T, std::string> || kIs<T, std::vector> ||
                   kIs<T, std::unordered_map>;

/// Key-sorted view over a map's entries (no copies): encoding must be a
/// pure function of content, not of hash-table iteration order.
template <typename Map>
std::vector<const typename Map::value_type*> sorted_entries(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    return a->first < b->first;
  });
  return entries;
}

}  // namespace archive_detail

template <typename Count>
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  template <typename T>
  void operator()(const char* /*name*/, const T& value) {
    write(value);
  }

  template <typename T>
  void write(const T& value) {
    using namespace archive_detail;
    if constexpr (requires { encode_field(*this, value); }) {
      encode_field(*this, value);
    } else if constexpr (Listed<T>) {
      // Lists take a mutable reference for the Reader; writing reads only.
      fields(*this, const_cast<T&>(value));
    } else if constexpr (std::same_as<T, bool>) {
      put(static_cast<std::uint8_t>(value));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(value));
    } else if constexpr (std::is_arithmetic_v<T>) {
      put(value);
    } else if constexpr (std::same_as<T, util::AsNumber>) {
      put(value.value());
    } else if constexpr (std::same_as<T, bgp::Prefix>) {
      put(value.network());
      put(value.length());
    } else if constexpr (std::same_as<T, std::string>) {
      put_count(value.size());
      put_bytes(value.data(), value.size());
    } else if constexpr (kIs<T, std::vector>) {
      put_count(value.size());
      if constexpr (Column<typename T::value_type>) {
        put_column(std::span<const typename T::value_type>(value));
      } else {
        for (const auto& element : value) write(element);
      }
    } else if constexpr (kIs<T, std::optional>) {
      put(static_cast<std::uint8_t>(value.has_value()));
      if (value) write(*value);
    } else if constexpr (kIs<T, std::unordered_map>) {
      const auto entries = sorted_entries(value);
      put_count(entries.size());
      for (const auto* entry : entries) {
        write(entry->first);
        write(entry->second);
      }
    } else {
      static_assert(kIs<T, std::pair>, "no stored form for this type");
      write(value.first);
      write(value.second);
    }
  }

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out_->insert(out_->end(), raw, raw + sizeof(T));
  }

  /// Throws std::length_error for a count past the archive's width rather
  /// than write one its reader would misread.
  void put_count(std::size_t count) {
    if (count > std::numeric_limits<Count>::max()) {
      throw std::length_error("archive: count past its width");
    }
    put(static_cast<Count>(count));
  }

  /// A column of values as laid out in memory, in one copy.
  template <typename T>
  void put_column(std::span<const T> column) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(column.data(), column.size_bytes());
  }

  [[nodiscard]] std::vector<std::uint8_t>& buffer() { return *out_; }

 private:
  void put_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }

  std::vector<std::uint8_t>* out_;
};

/// Sums the least encoded size of a value: every string, container and
/// optional counts as empty, every other field as its encoding.
template <typename Count>
struct MinBytes {
  std::size_t total = 0;

  template <typename T>
  void operator()(const char* /*name*/, T& value) {
    using namespace archive_detail;
    if constexpr (!requires(Writer<Count>& w) { encode_field(w, value); } &&
                  Listed<T>) {
      fields(*this, value);
    } else if constexpr (Sequence<T>) {
      total += sizeof(Count);
    } else if constexpr (kIs<T, std::optional>) {
      total += 1;
    } else if constexpr (kIs<T, std::pair>) {
      (*this)("first", value.first);
      (*this)("second", value.second);
    } else {
      std::vector<std::uint8_t> out;
      Writer<Count>(out).write(value);
      total += out.size();
    }
  }
};

/// The least encoded size of a T, computed once per type.
template <typename Count, typename T>
std::size_t min_bytes() {
  static const std::size_t bytes = [] {
    MinBytes<Count> sizer;
    T value{};
    sizer("", value);
    return sizer.total;
  }();
  return bytes;
}

template <typename Count>
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  void operator()(const char* /*name*/, T& value) {
    read(value);
  }

  template <typename T>
  void read(T& value) {
    using namespace archive_detail;
    if constexpr (requires { decode_field(*this, value); }) {
      decode_field(*this, value);
    } else if constexpr (Listed<T>) {
      fields(*this, value);
      if constexpr (requires { check_fields(std::as_const(value)); }) {
        check_fields(std::as_const(value));
      }
    } else if constexpr (std::same_as<T, bool>) {
      const auto raw = get<std::uint8_t>();
      if (raw > 1) fail("bad flag");
      value = raw != 0;
    } else if constexpr (std::is_enum_v<T>) {
      using Raw = std::underlying_type_t<T>;
      const Raw raw = get<Raw>();
      const auto [first, last] = enum_range(T{});
      if (raw < static_cast<Raw>(first) || raw > static_cast<Raw>(last)) {
        fail("enum value out of range");
      }
      value = static_cast<T>(raw);
    } else if constexpr (std::is_arithmetic_v<T>) {
      value = get<T>();
    } else if constexpr (std::same_as<T, util::AsNumber>) {
      value = util::AsNumber(get<std::uint32_t>());
    } else if constexpr (std::same_as<T, bgp::Prefix>) {
      const auto network = get<std::uint32_t>();
      const auto length = get<std::uint8_t>();
      if (length > 32) fail("bad prefix length");
      value = bgp::Prefix(network, length);
    } else if constexpr (std::same_as<T, std::string>) {
      const std::span<const std::uint8_t> text = take(get_count(1));
      value.assign(reinterpret_cast<const char*>(text.data()), text.size());
    } else if constexpr (kIs<T, std::vector>) {
      using Element = typename T::value_type;
      const std::size_t count = get_count(min_bytes<Count, Element>());
      if constexpr (Column<Element>) {
        value = get_column<Element>(count);
      } else {
        value.clear();
        value.reserve(count);
        for (std::size_t i = 0; i < count; ++i) read(value.emplace_back());
      }
    } else if constexpr (kIs<T, std::optional>) {
      bool set = false;
      read(set);
      if (set) {
        read(value.emplace());
      } else {
        value.reset();
      }
    } else if constexpr (kIs<T, std::unordered_map>) {
      using Key = typename T::key_type;
      const std::size_t count =
          get_count(min_bytes<Count, Key>() +
                    min_bytes<Count, typename T::mapped_type>());
      for (std::size_t i = 0; i < count; ++i) {
        Key key{};
        read(key);
        const auto [it, inserted] = value.try_emplace(std::move(key));
        if (!inserted) fail("repeated key");
        read(it->second);
      }
    } else {
      static_assert(kIs<T, std::pair>, "no stored form for this type");
      read(value.first);
      read(value.second);
    }
  }

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// A count that still has to fit in the remaining input at
  /// `min_element_bytes` an element — the untrusted-count guard every
  /// container read goes through.
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes) {
    const Count count = get<Count>();
    if (count > remaining() / std::max<std::size_t>(1, min_element_bytes)) {
      fail("implausible element count");
    }
    return static_cast<std::size_t>(count);
  }

  /// The next `size` bytes.
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t size) {
    if (size > remaining()) fail("truncated input");
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, size);
    pos_ += size;
    return out;
  }

  /// `count` stored values copied into a column: one bounds check and one
  /// copy.
  template <typename T>
  [[nodiscard]] std::vector<T> get_column(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) fail("truncated input");
    std::vector<T> out(count);
    if (count != 0) {
      std::memcpy(out.data(), take(count * sizeof(T)).data(),
                  count * sizeof(T));
    }
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Trailing bytes mean the writer and the reader disagree about the
  /// shape: better a loud error than a silently ignored suffix.
  void expect_end() const {
    if (pos_ != bytes_.size()) fail("trailing bytes");
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::invalid_argument(std::string("archive: ") + what);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// `value`'s fields as a standalone payload.
template <typename Count, typename T>
[[nodiscard]] std::vector<std::uint8_t> write_fields(const T& value) {
  std::vector<std::uint8_t> out;
  // GCC 12 at -O3 flags the first insert into a vector it can see is empty
  // (-Wstringop-overflow, a false positive); room reserved up front avoids
  // that path.
  out.reserve(sizeof(T));
  Writer<Count>(out).write(value);
  return out;
}

/// The T `bytes` hold, all of them.
template <typename T, typename Count>
[[nodiscard]] T read_fields(std::span<const std::uint8_t> bytes) {
  Reader<Count> r(bytes);
  T value{};
  r.read(value);
  r.expect_end();
  return value;
}

/// "name=value;" per field, in list order: the canonical text of a type
/// whose fields are numbers and flags (the Infer store key's parameter
/// part).  Doubles print in their shortest round-trip form, so distinct
/// values print distinct text.
template <typename T>
[[nodiscard]] std::string field_text(const T& value) {
  std::string out;
  auto visit = [&out](const char* name, const auto& field) {
    using Field = std::remove_cvref_t<decltype(field)>;
    static_assert(std::is_arithmetic_v<Field>, "field_text takes numbers");
    char text[32];
    const auto end =
        std::to_chars(text, text + sizeof(text),
                      std::conditional_t<std::same_as<Field, bool>, int,
                                         Field>(field))
            .ptr;
    out.append(name).append("=").append(text, end).append(";");
  };
  fields(visit, const_cast<T&>(value));
  return out;
}

}  // namespace bgpolicy::io
