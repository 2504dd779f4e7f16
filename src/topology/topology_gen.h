// Synthetic Internet topology generator.
//
// Substitute for the Nov-2002 RouteViews-derived AS graph (DESIGN.md §2):
// a tiered hierarchy — a Tier-1 peering clique, two transit tiers, and a
// large multihomed stub edge — with heavy-tailed degrees.  Tier-1 and
// vantage ASes are assigned the AS numbers the paper reports (AS1, AS3549,
// AS7018, ...) so the reproduced tables read like the originals; the
// numbers are labels only.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topology/as_graph.h"
#include "util/fields.h"
#include "util/rng.h"

namespace bgpolicy::topo {

enum class Tier : std::uint8_t { kTier1 = 1, kTier2 = 2, kTier3 = 3, kStub = 4 };

/// The values a stored Tier may hold (io/archive.h).
constexpr std::pair<Tier, Tier> enum_range(Tier) {
  return {Tier::kTier1, Tier::kStub};
}

[[nodiscard]] std::string to_string(Tier tier);

struct GeneratorParams {
  std::uint64_t seed = 2002;

  std::size_t tier1_count = 10;
  std::size_t tier2_count = 60;
  std::size_t tier3_count = 240;
  std::size_t stub_count = 2400;

  /// Probability that a stub is multihomed (paper Table 8 reports ~75% of
  /// SA-origin ASes multihomed; the base rate feeding that statistic).
  double stub_multihome_prob = 0.55;
  /// Providers per multihomed stub are drawn uniformly in [2, this].
  std::size_t max_stub_providers = 4;

  /// Expected extra peer links per Tier-2 AS (beyond the provider edges).
  double tier2_peer_mean = 4.0;
  /// Expected peer links per Tier-3 AS.
  double tier3_peer_mean = 1.5;
  /// Probability of a stub-stub peer edge per stub (IXP-style).
  double stub_peer_prob = 0.02;
  /// Probability that a Tier-3 AS attaches directly to a Tier-1 provider.
  double tier3_direct_tier1_prob = 0.20;
  /// Share of stub provider attachments that land on each tier.  Tier-1s
  /// must end up with the largest degrees — the real Internet's shape, and
  /// the property the degree-based inference heuristic [12] depends on.
  double stub_tier1_frac = 0.30;
  double stub_tier2_frac = 0.30;

  /// Zipf-ish skew exponent for provider popularity (bigger = more skewed
  /// degrees at the top providers).
  double provider_popularity_skew = 0.6;

  friend bool operator==(const GeneratorParams&, const GeneratorParams&) =
      default;
};

struct Topology {
  AsGraph graph;
  std::unordered_map<AsNumber, Tier> tier;
  std::vector<AsNumber> tier1;
  std::vector<AsNumber> tier2;
  std::vector<AsNumber> tier3;
  std::vector<AsNumber> stubs;

  [[nodiscard]] Tier tier_of(AsNumber as) const { return tier.at(as); }
  [[nodiscard]] bool is_transit(AsNumber as) const {
    return tier_of(as) != Tier::kStub;
  }
};

/// Topology's field list (util/fields.h); the artifact codec stores the
/// graph by hand, as its edge records in creation order.
template <typename V>
constexpr void fields(V& v, Topology& t) {
  v("graph", t.graph);
  v("tier", t.tier);
  v("tier1", t.tier1);
  v("tier2", t.tier2);
  v("tier3", t.tier3);
  v("stubs", t.stubs);
}
static_assert(util::lists_every_member<Topology>());

/// Generates a topology; deterministic in params.seed.
[[nodiscard]] Topology generate_topology(const GeneratorParams& params);

/// The AS numbers generate_topology gives each tier: the paper's labels
/// first, then synthetic numbers from the tier's base upward, past the
/// numbers an earlier tier took.  They depend only on the four tier
/// counts, and are kept as ranges, so a scenario's AS references can be
/// checked without generating the world, at any count.
class TierNumbering {
 public:
  explicit TierNumbering(const GeneratorParams& params);

  /// The tier numbered `as`, or nullopt when no tier is.
  [[nodiscard]] std::optional<Tier> tier_of(AsNumber as) const;

  /// A tier's ASes in generation order.
  [[nodiscard]] std::vector<AsNumber> ases(Tier tier) const;

  /// The first tier, in generation order, whose numbers run past 32-bit
  /// AS numbers, or nullopt when every tier fits (generate_topology
  /// requires that they do).
  [[nodiscard]] std::optional<Tier> first_tier_past_32_bits() const;

 private:
  /// One tier: the labels it takes, then every number in [begin, end)
  /// that is no label.
  struct Run {
    std::uint64_t count = 0;
    std::vector<AsNumber> labels;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  [[nodiscard]] bool labelled(AsNumber as) const;

  std::array<Run, 4> runs_;  // Tier-1, Tier-2, Tier-3, stubs
};

/// The well-known AS numbers used for Tier-1 and vantage roles (exposed so
/// scenarios and tests can refer to them symbolically).
namespace well_known {
inline constexpr std::uint32_t kGte = 1;           // AS1, Tier-1
inline constexpr std::uint32_t kUunet = 701;       // Tier-1
inline constexpr std::uint32_t kSprint = 1239;     // Tier-1
inline constexpr std::uint32_t kGlobalCrossing = 3549;  // Tier-1
inline constexpr std::uint32_t kAtt = 7018;        // Tier-1
inline constexpr std::uint32_t kCw = 3561;         // Tier-1
inline constexpr std::uint32_t kVerio = 2914;      // Tier-1
inline constexpr std::uint32_t kTeleglobe = 6453;  // Tier-1
inline constexpr std::uint32_t kQwest = 209;       // Tier-1
inline constexpr std::uint32_t kAbovenet = 6461;   // Tier-1
}  // namespace well_known

}  // namespace bgpolicy::topo
