// Canonical experiment scenarios.
//
// `internet2002()` is the workload every bench runs: a synthetic Internet
// sized to keep a full propagation under ~10s while preserving the paper's
// structure (Tier-1 clique of 10 named after the real Tier-1s, the paper's
// vantage and vantage-peer sets, heavy-tailed prefix counts).  `small()` is
// the fast variant the test suite uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/prefix.h"
#include "rpsl/generator.h"
#include "sim/policy_gen.h"
#include "sim/propagation.h"
#include "topology/prefix_alloc.h"
#include "topology/topology_gen.h"

namespace bgpolicy::core {

/// One per-AS policy edit applied on top of the generated policies during
/// Synthesize (after sim::generate_policies, before originations are
/// flattened).  Overrides are part of the scenario's upstream cache
/// identity (scenario_cache_key), so two scenarios differing only in an
/// override are distinct worlds.  The spec language's `override` block
/// (docs/SCENARIOS.md) parses into these; they can equally be pushed onto
/// a constructor-built Scenario in code.
struct PolicyOverride {
  enum class Kind : std::uint8_t {
    /// Import: `as` ranks routes from `neighbor` at local-pref `value`.
    kPreferNeighbor = 0,
    /// Import: `as` pins `prefix` to local-pref `value` for any neighbor.
    kPreferPrefix = 1,
    /// Export: `as` does not announce `prefix` (or, when absent, any
    /// route) to `neighbor` — selective announcement.
    kDeny = 2,
    /// Export: `as` prepends itself `value` extra times toward `neighbor`.
    kPrepend = 3,
    /// `as` conditionally advertises `prefix` to `neighbor` only while its
    /// session to `watch` is down (failover backup announcement).
    kConditional = 4,
    /// Enables (`value` != 0) or disables the relationship-tagging
    /// community scheme at `as`.
    kTagging = 5,
    /// Export: `as` announces `prefix` (or any route when absent) to
    /// `neighbor` tagged "do not propagate to your providers".
    kNoExportUpstream = 6,
  };

  Kind kind = Kind::kPreferNeighbor;
  std::uint32_t as = 0;
  std::uint32_t neighbor = 0;
  std::uint32_t watch = 0;
  std::optional<bgp::Prefix> prefix;
  std::uint32_t value = 0;

  friend bool operator==(const PolicyOverride&, const PolicyOverride&) =
      default;
};

/// A hand-written topology replacing the synthetic generator: the ASes,
/// their relationships, and the originated prefixes are listed explicitly
/// (the spec language's `topology { explicit ... }` mode).  Synthesize
/// builds the Topology/PrefixPlan directly from these instead of running
/// topo::generate_topology / topo::allocate_prefixes; policy generation
/// still runs over the explicit graph with the scenario's policy_params.
/// The same prefix may be originated by several ASes (anycast / MOAS —
/// see docs/SCENARIOS.md for how verification treats it).
struct ExplicitWorld {
  struct As {
    std::uint32_t number = 0;
    topo::Tier tier = topo::Tier::kStub;
    friend bool operator==(const As&, const As&) = default;
  };
  /// Provider->customer edge, or a peering when `peer` is set.
  struct Link {
    std::uint32_t a = 0;  ///< provider (or first peer)
    std::uint32_t b = 0;  ///< customer (or second peer)
    bool peer = false;
    friend bool operator==(const Link&, const Link&) = default;
  };
  struct Origination {
    std::uint32_t origin = 0;
    bgp::Prefix prefix;
    friend bool operator==(const Origination&, const Origination&) = default;
  };

  std::vector<As> ases;
  std::vector<Link> links;
  std::vector<Origination> originations;

  friend bool operator==(const ExplicitWorld&, const ExplicitWorld&) = default;
};

struct Scenario {
  std::string name;
  topo::GeneratorParams topo_params;
  topo::PrefixAllocParams alloc_params;
  sim::PolicyGenParams policy_params;
  rpsl::IrrGenParams irr_params;
  sim::PropagationOptions propagation;

  /// Looking-glass vantages (full Adj-RIB-In recorded) — the paper's 15.
  std::vector<std::uint32_t> looking_glass;
  /// Additional best-route-only vantages (the rest of Table 5's 16 ASes).
  std::vector<std::uint32_t> best_only;
  /// The 9 ASes whose relationships get community-verified (Table 4).
  std::vector<std::uint32_t> verification_ases;
  /// Collector peering breadth beyond the Tier-1s.
  std::size_t collector_tier2_peers = 25;
  std::size_t collector_tier3_peers = 10;

  /// Hand-written topology + originations replacing the generator (spec
  /// `topology { explicit ... }`); topo_params/alloc_params are ignored
  /// when set.
  std::optional<ExplicitWorld> explicit_world;
  /// Per-AS policy edits applied after policy generation, in order.
  std::vector<PolicyOverride> overrides;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// The three Tier-1s the export-policy sections focus on.
  [[nodiscard]] static std::vector<std::uint32_t> focus_tier1() {
    return {1, 3549, 7018};
  }

  [[nodiscard]] static Scenario internet2002(std::uint64_t seed = 2002);
  [[nodiscard]] static Scenario small(std::uint64_t seed = 42);
};

/// Calls `fn(role, as)` for every AS the scenario's vantage lists and
/// overrides name: the ids its topology must contain.  Synthesize checks
/// them against the built topology; the `.scn` parser checks a generated
/// world's against topo::TierNumbering, with positions.
template <typename Fn>
void for_each_required_as(const Scenario& scenario, Fn&& fn) {
  for (const std::uint32_t as : scenario.looking_glass) fn("looking_glass", as);
  for (const std::uint32_t as : scenario.best_only) fn("best_only", as);
  for (const std::uint32_t as : scenario.verification_ases) {
    fn("verification", as);
  }
  for (const PolicyOverride& o : scenario.overrides) {
    fn("override", o.as);
    switch (o.kind) {
      case PolicyOverride::Kind::kPreferNeighbor:
      case PolicyOverride::Kind::kDeny:
      case PolicyOverride::Kind::kPrepend:
      case PolicyOverride::Kind::kNoExportUpstream:
        fn("override neighbor", o.neighbor);
        break;
      case PolicyOverride::Kind::kConditional:
        fn("override neighbor", o.neighbor);
        fn("override watch", o.watch);
        break;
      case PolicyOverride::Kind::kPreferPrefix:
      case PolicyOverride::Kind::kTagging:
        break;
    }
  }
}

/// Deterministic region label for Table 1 flavor (NA/Eu/Au/As with roughly
/// the paper's 42/33/3/2 split).
[[nodiscard]] std::string region_of(util::AsNumber as);

}  // namespace bgpolicy::core
