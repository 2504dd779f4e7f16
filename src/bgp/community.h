// BGP COMMUNITY attribute (RFC 1997).
//
// Communities are the paper's verification instrument (Section 4.3 +
// Appendix): ASes tag routes with values that encode the relationship with
// the announcing neighbor (Table 11), and well-known values such as
// NO_EXPORT implement the "announce to the provider but no further"
// selective-announcement flavor (Section 5.1.5, Case 3).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/ids.h"

namespace bgpolicy::bgp {

class Community {
 public:
  constexpr Community() = default;

  /// Builds "asn:value" (both 16-bit halves of the 32-bit attribute).
  constexpr Community(std::uint16_t asn, std::uint16_t value)
      : raw_((static_cast<std::uint32_t>(asn) << 16) | value) {}

  constexpr explicit Community(std::uint32_t raw) : raw_(raw) {}

  /// Parses "asn:value" (e.g. "12859:1000").
  [[nodiscard]] static Community parse(std::string_view text);
  [[nodiscard]] static std::optional<Community> try_parse(
      std::string_view text) noexcept;

  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }
  [[nodiscard]] constexpr std::uint16_t asn() const {
    return static_cast<std::uint16_t>(raw_ >> 16);
  }
  [[nodiscard]] constexpr std::uint16_t value() const {
    return static_cast<std::uint16_t>(raw_ & 0xFFFF);
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(Community, Community) = default;

 private:
  std::uint32_t raw_ = 0;
};

/// A sorted, duplicate-free community set read in place: a slice of a
/// recorded table's community arena (bgp::RouteView::communities) or a
/// route's own set.
class CommunitySpan {
 public:
  constexpr CommunitySpan() = default;
  constexpr explicit CommunitySpan(std::span<const Community> communities)
      : communities_(communities) {}

  [[nodiscard]] constexpr std::size_t size() const {
    return communities_.size();
  }
  [[nodiscard]] constexpr bool empty() const { return communities_.empty(); }
  [[nodiscard]] constexpr Community operator[](std::size_t i) const {
    return communities_[i];
  }
  [[nodiscard]] constexpr auto begin() const { return communities_.begin(); }
  [[nodiscard]] constexpr auto end() const { return communities_.end(); }

  [[nodiscard]] bool has_community(Community community) const {
    return std::binary_search(communities_.begin(), communities_.end(),
                              community);
  }

 private:
  std::span<const Community> communities_;
};

/// RFC 1997 well-known communities.
inline constexpr Community kNoExport{0xFFFFFF01};
inline constexpr Community kNoAdvertise{0xFFFFFF02};
inline constexpr Community kNoExportSubconfed{0xFFFFFF03};

[[nodiscard]] constexpr bool is_well_known(Community c) {
  return (c.raw() & 0xFFFF0000U) == 0xFFFF0000U;
}

/// An action community of the "do not announce to AS x" family that the
/// paper cites (via the Quoitin-Bonaventure survey [20]) as a common
/// traffic-engineering mechanism.  We encode it as tagger_asn:(3000+slot),
/// where the tagging AS publishes the slot -> target-AS mapping; the sim
/// layer owns those mappings.
struct NoExportToTarget {
  util::AsNumber tagger;
  util::AsNumber target;
};

std::ostream& operator<<(std::ostream& os, Community community);

}  // namespace bgpolicy::bgp

template <>
struct std::hash<bgpolicy::bgp::Community> {
  std::size_t operator()(bgpolicy::bgp::Community c) const noexcept {
    return std::hash<std::uint32_t>{}(c.raw());
  }
};
