// A BGP route: one prefix plus the path attributes the paper's decision
// process (Section 2.2.1) and inference algorithms consume.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "bgp/aspath.h"
#include "bgp/community.h"
#include "bgp/prefix.h"
#include "util/ids.h"

namespace bgpolicy::bgp {

/// ORIGIN attribute; lower is preferred (decision step 3).
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

[[nodiscard]] std::string to_string(Origin origin);

struct Route {
  Prefix prefix;

  /// AS path as received: hops().front() is the announcing neighbor (the
  /// paper's "next hop AS"), hops().back() the origin AS.  Empty for routes
  /// an AS originates itself.
  AsPath path;

  /// The neighbor this route was learned from.  Matches path.next_hop_as()
  /// for learned routes; equals the owning AS for self-originated routes.
  AsNumber learned_from;

  std::uint32_t local_pref = 100;  ///< decision step 1 (higher wins)
  std::uint32_t med = 0;           ///< decision step 4 (lower wins, same neighbor AS)
  Origin origin = Origin::kIgp;    ///< decision step 3 (lower wins)
  bool from_ebgp = true;           ///< decision step 5 (eBGP wins)
  std::uint32_t igp_metric = 0;    ///< decision step 6 (lower wins)
  std::uint32_t router_id = 0;     ///< decision step 7 (lower wins)

  /// Sorted, deduplicated community set.
  std::vector<Community> communities;

  [[nodiscard]] bool self_originated() const { return path.empty(); }

  [[nodiscard]] std::optional<AsNumber> next_hop_as() const {
    return path.next_hop_as();
  }

  /// Origin AS of the prefix: last path hop, or the learner for
  /// self-originated routes.
  [[nodiscard]] AsNumber origin_as() const {
    return path.empty() ? learned_from : *path.origin_as();
  }

  void add_community(Community community);
  [[nodiscard]] bool has_community(Community community) const {
    return CommunitySpan(communities).has_community(community);
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Route&, const Route&) = default;
};

std::ostream& operator<<(std::ostream& os, const Route& route);

}  // namespace bgpolicy::bgp
