// Per-AS routing-policy model: the ground truth the simulator executes and
// the inference algorithms (src/core) are later scored against.
//
// Import policies assign local preference (Section 2.2.1): a per-class base
// (customer/peer/provider), per-neighbor overrides (including atypical
// assignments), and per-prefix overrides (the deviations Fig. 2 quantifies).
//
// Export policies start from the Gao-Rexford relationship rules (Section
// 2.2.2) and layer the paper's traffic-engineering behaviors on top:
// selective announcement (deny rules), "announce but do not propagate
// further" community tags (Section 5.1.5 Case 3), provider aggregation
// (Case 2), and prefix splitting (Case 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/community.h"
#include "bgp/prefix.h"
#include "bgp/route.h"
#include "topology/as_graph.h"
#include "util/fields.h"
#include "util/ids.h"

namespace bgpolicy::sim {

using topo::RelKind;
using util::AsNumber;

/// Local preference an AS uses for routes it originates itself; above any
/// imported preference so self routes always win.
inline constexpr std::uint32_t kSelfLocalPref = 200;

/// Import policy: how an AS sets LOCAL_PREF on received routes.
struct ImportPolicy {
  std::uint32_t customer_pref = 120;
  std::uint32_t peer_pref = 100;
  std::uint32_t provider_pref = 80;

  /// Per-neighbor overrides (e.g. an atypical assignment that ranks one
  /// peer at customer level).  Applied before per-prefix overrides.
  std::unordered_map<AsNumber, std::uint32_t> neighbor_override;

  /// Per-prefix overrides: traffic engineering pins these prefixes to a
  /// specific preference regardless of neighbor.  These are what make a
  /// local-pref assignment *not* "based on next hop AS" (Fig. 2).
  std::unordered_map<bgp::Prefix, std::uint32_t> prefix_override;

  [[nodiscard]] std::uint32_t base_for(RelKind kind) const {
    switch (kind) {
      case RelKind::kCustomer: return customer_pref;
      case RelKind::kPeer: return peer_pref;
      case RelKind::kProvider: return provider_pref;
    }
    return peer_pref;  // unreachable
  }

  /// The preference assigned to a route for `prefix` learned from
  /// `neighbor` whose relationship (from this AS's perspective) is `kind`.
  /// Only the reference engine calls this now: the flat engine compiles
  /// the neighbor-override-or-base part onto its CSR arcs
  /// (`FlatSimContext::Arc::pref`) and probes `prefix_override` only for
  /// ASes that have pins.
  [[nodiscard]] std::uint32_t preference(AsNumber neighbor, RelKind kind,
                                         const bgp::Prefix& prefix) const {
    if (!prefix_override.empty()) {
      if (const auto it = prefix_override.find(prefix);
          it != prefix_override.end()) {
        return it->second;
      }
    }
    if (!neighbor_override.empty()) {
      if (const auto it = neighbor_override.find(neighbor);
          it != neighbor_override.end()) {
        return it->second;
      }
    }
    return base_for(kind);
  }
};

/// What an export rule does when it matches.
enum class ExportAction : std::uint8_t {
  /// Do not announce at all (selective announcement).
  kDeny,
  /// Announce, tagged with a community telling the receiving neighbor not
  /// to propagate the route to *its* providers.
  kTagNoExportUpstream,
  /// Announce, tagged with a community telling the receiving neighbor not
  /// to propagate the route to one specific AS (rule.target).
  kTagNoExportTo,
  /// Announce with the sender's AS number prepended `prepend_times` extra
  /// times — the inbound-deprioritization knob of Section 2.2.2.
  kPrepend,
};

/// The values a stored ExportAction may hold (io/archive.h).
constexpr std::pair<ExportAction, ExportAction> enum_range(ExportAction) {
  return {ExportAction::kDeny, ExportAction::kPrepend};
}

/// One export rule.  Matches a route when (prefix empty or equal) AND
/// (origin empty or equal to the route's origin AS).
struct ExportRule {
  std::optional<bgp::Prefix> prefix;
  std::optional<AsNumber> origin;
  ExportAction action = ExportAction::kDeny;
  AsNumber target;                 ///< only for kTagNoExportTo
  std::uint8_t prepend_times = 2;  ///< only for kPrepend (extra copies)

  [[nodiscard]] bool matches(const bgp::Prefix& p, AsNumber route_origin) const {
    if (prefix && *prefix != p) return false;
    if (origin && *origin != route_origin) return false;
    return true;
  }
};

/// Community bases for the action communities the sim understands.  An
/// action community is addressed to the AS in its high half: seeing
/// (X : kNoExportUpstreamValue) instructs AS X not to export upward.
inline constexpr std::uint16_t kNoExportUpstreamValue = 3100;
inline constexpr std::uint16_t kNoExportToBase = 3000;  // 3000 + slot
inline constexpr std::uint16_t kNoExportToSlots = 100;

/// Export policy: Gao-Rexford base rules (hard-coded in the engine) plus
/// per-neighbor rule lists.
struct ExportPolicy {
  /// Rules applying when exporting to one specific neighbor.
  std::unordered_map<AsNumber, std::vector<ExportRule>> per_neighbor;
  /// Rules applying to exports toward any neighbor (e.g. a provider that
  /// aggregates a customer-assigned prefix announces it to nobody).
  std::vector<ExportRule> any_neighbor;

  void add_rule_for(AsNumber neighbor, ExportRule rule) {
    per_neighbor[neighbor].push_back(rule);
  }
  void add_rule_any(ExportRule rule) { any_neighbor.push_back(rule); }

  /// Removes every per-neighbor rule for `neighbor` whose exact-prefix
  /// matcher equals `prefix` (used by the churn engine to flip selective
  /// announcements on and off).  Returns the number of rules removed.
  std::size_t remove_prefix_rules(AsNumber neighbor, const bgp::Prefix& prefix);

  /// The first matching rule for exporting (`prefix`, `origin`) to
  /// `neighbor`, or nullptr.
  [[nodiscard]] const ExportRule* match(AsNumber neighbor,
                                        const bgp::Prefix& prefix,
                                        AsNumber origin) const;
};

/// Relationship-tagging community scheme (Appendix, Table 11): when this AS
/// imports a route from a neighbor, it tags the route with a value that
/// encodes the neighbor's relationship class.  Value layout mirrors the
/// AS12859 example: peers 1000+, providers ("transit") 2000+, customers
/// 4000+.
struct CommunityProfile {
  bool enabled = false;
  /// Publishes the value semantics (e.g. in IRR), letting the verifier skip
  /// the gap-inference step.
  bool published = false;
  std::uint16_t peer_base = 1000;
  std::uint16_t provider_base = 2000;
  std::uint16_t customer_base = 4000;
  /// Distinct values per class; the slot for a neighbor is a stable hash of
  /// the neighbor AS so "12859:1010 and 12859:1020 are the same" cases
  /// (paper Appendix) occur.
  std::uint16_t values_per_class = 3;

  [[nodiscard]] std::uint16_t base_for(RelKind kind) const {
    switch (kind) {
      case RelKind::kCustomer: return customer_base;
      case RelKind::kPeer: return peer_base;
      case RelKind::kProvider: return provider_base;
    }
    return peer_base;  // unreachable
  }

  /// The tag this AS (`self`) applies to routes from `neighbor`.
  [[nodiscard]] bgp::Community tag(AsNumber self, AsNumber neighbor,
                                   RelKind kind) const;

  /// Decodes a community tagged by `self` back to a relationship class;
  /// nullopt when the value is not one of this profile's relationship tags.
  [[nodiscard]] std::optional<RelKind> classify(bgp::Community community,
                                                AsNumber self) const;
};

/// BGP conditional advertisement (paper Section 5.1.5, reference [18]):
/// advertise `prefix` to `advertise_to` only while the session to
/// `watch_provider` is down.  Used by multihomed ASes to keep a backup
/// announcement path without carrying inbound traffic on it normally.
struct ConditionalAdvertisement {
  bgp::Prefix prefix;
  AsNumber advertise_to;
  AsNumber watch_provider;
};

/// Everything one AS is configured with.
struct AsPolicy {
  ImportPolicy import;
  ExportPolicy export_;
  CommunityProfile community;
  /// Slot -> target mapping for kTagNoExportTo communities this AS honors.
  std::vector<AsNumber> no_export_targets;
  /// Conditional advertisements this AS runs.
  std::vector<ConditionalAdvertisement> conditional;

  /// Registers (or reuses) a no-export-to slot for `target`; returns the
  /// community value this AS publishes for it.
  std::uint16_t no_export_slot_for(AsNumber target);
};

/// The full policy configuration of the simulated Internet.
struct PolicySet {
  std::unordered_map<AsNumber, AsPolicy> by_as;

  [[nodiscard]] const AsPolicy& at(AsNumber as) const;
  [[nodiscard]] AsPolicy& at_mut(AsNumber as) { return by_as[as]; }
};

// ------------------------------------------------------------ field lists --
// Each type's stored fields, in stored order (util/fields.h).

template <typename V>
constexpr void fields(V& v, ImportPolicy& p) {
  v("customer_pref", p.customer_pref);
  v("peer_pref", p.peer_pref);
  v("provider_pref", p.provider_pref);
  v("neighbor_override", p.neighbor_override);
  v("prefix_override", p.prefix_override);
}
static_assert(util::lists_every_member<ImportPolicy>());

template <typename V>
constexpr void fields(V& v, ExportRule& r) {
  v("prefix", r.prefix);
  v("origin", r.origin);
  v("action", r.action);
  v("target", r.target);
  v("prepend_times", r.prepend_times);
}
static_assert(util::lists_every_member<ExportRule>());

template <typename V>
constexpr void fields(V& v, ExportPolicy& p) {
  v("per_neighbor", p.per_neighbor);
  v("any_neighbor", p.any_neighbor);
}
static_assert(util::lists_every_member<ExportPolicy>());

template <typename V>
constexpr void fields(V& v, CommunityProfile& p) {
  v("enabled", p.enabled);
  v("published", p.published);
  v("peer_base", p.peer_base);
  v("provider_base", p.provider_base);
  v("customer_base", p.customer_base);
  v("values_per_class", p.values_per_class);
}
static_assert(util::lists_every_member<CommunityProfile>());

template <typename V>
constexpr void fields(V& v, ConditionalAdvertisement& c) {
  v("prefix", c.prefix);
  v("advertise_to", c.advertise_to);
  v("watch_provider", c.watch_provider);
}
static_assert(util::lists_every_member<ConditionalAdvertisement>());

template <typename V>
constexpr void fields(V& v, AsPolicy& p) {
  v("import", p.import);
  v("export", p.export_);
  v("community", p.community);
  v("no_export_targets", p.no_export_targets);
  v("conditional", p.conditional);
}
static_assert(util::lists_every_member<AsPolicy>());

template <typename V>
constexpr void fields(V& v, PolicySet& s) {
  v("by_as", s.by_as);
}
static_assert(util::lists_every_member<PolicySet>());

}  // namespace bgpolicy::sim
