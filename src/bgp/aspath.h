// BGP AS_PATH attribute.
//
// Stored leftmost-first: element 0 is the neighbor that announced the route
// ("next hop AS" in the paper's terminology), the last element is the origin
// AS.  The paper's inference algorithms operate almost entirely on AS paths.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"

namespace bgpolicy::bgp {

using util::AsNumber;

/// An AS path read in place: a slice of a recorded table's hop arena
/// (bgp::RouteView::path) or an AsPath's hops.  hops()[0] is the
/// announcing neighbor, the last hop the origin AS.
class HopSpan {
 public:
  constexpr HopSpan() = default;
  constexpr explicit HopSpan(std::span<const AsNumber> hops) : hops_(hops) {}

  [[nodiscard]] constexpr std::span<const AsNumber> hops() const {
    return hops_;
  }
  [[nodiscard]] constexpr bool empty() const { return hops_.empty(); }
  [[nodiscard]] constexpr std::size_t length() const { return hops_.size(); }
  [[nodiscard]] constexpr AsNumber operator[](std::size_t i) const {
    return hops_[i];
  }
  [[nodiscard]] constexpr auto begin() const { return hops_.begin(); }
  [[nodiscard]] constexpr auto end() const { return hops_.end(); }

  /// The neighbor AS the route was learned from; empty path has none.
  [[nodiscard]] constexpr std::optional<AsNumber> next_hop_as() const {
    if (hops_.empty()) return std::nullopt;
    return hops_.front();
  }

  /// The AS that originated the prefix (rightmost); empty path has none.
  [[nodiscard]] constexpr std::optional<AsNumber> origin_as() const {
    if (hops_.empty()) return std::nullopt;
    return hops_.back();
  }

  /// True if `as_a` appears immediately before `as_b` somewhere in the
  /// path (used by the Case-3 "is the provider adjacent to the customer in
  /// any observed path" test).
  [[nodiscard]] constexpr bool has_adjacent(AsNumber as_a,
                                            AsNumber as_b) const {
    for (std::size_t i = 0; i + 1 < hops_.size(); ++i) {
      if (hops_[i] == as_a && hops_[i + 1] == as_b) return true;
    }
    return false;
  }

 private:
  std::span<const AsNumber> hops_;
};

class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<AsNumber> hops) : hops_(std::move(hops)) {}
  AsPath(std::initializer_list<AsNumber> hops) : hops_(hops) {}

  /// Parses a space-separated path, e.g. "7018 701 3356"; leftmost first.
  [[nodiscard]] static AsPath parse(std::string_view text);

  [[nodiscard]] bool empty() const { return hops_.empty(); }
  [[nodiscard]] std::size_t length() const { return hops_.size(); }
  [[nodiscard]] std::span<const AsNumber> hops() const { return hops_; }
  [[nodiscard]] HopSpan view() const { return HopSpan(hops_); }
  [[nodiscard]] AsNumber at(std::size_t i) const { return hops_.at(i); }

  [[nodiscard]] std::optional<AsNumber> next_hop_as() const {
    return view().next_hop_as();
  }
  [[nodiscard]] std::optional<AsNumber> origin_as() const {
    return view().origin_as();
  }

  /// True when `as` already appears in the path (BGP loop detection;
  /// receiving routers discard such announcements, paper Section 2.2.1).
  [[nodiscard]] bool contains(AsNumber as) const;

  /// Returns a new path with `as` prepended (possibly `times` > 1 for AS
  /// path prepending, a traffic-engineering knob from Section 2.2.2).
  [[nodiscard]] AsPath prepend(AsNumber as, std::size_t times = 1) const;

  [[nodiscard]] bool has_adjacent(AsNumber as_a, AsNumber as_b) const {
    return view().has_adjacent(as_a, as_b);
  }

  [[nodiscard]] std::string to_string() const;

  friend auto operator<=>(const AsPath&, const AsPath&) = default;

 private:
  std::vector<AsNumber> hops_;
};

std::ostream& operator<<(std::ostream& os, const AsPath& path);

}  // namespace bgpolicy::bgp

template <>
struct std::hash<bgpolicy::bgp::AsPath> {
  std::size_t operator()(const bgpolicy::bgp::AsPath& path) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const auto as : path.hops()) {
      h ^= std::hash<bgpolicy::util::AsNumber>{}(as);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};
