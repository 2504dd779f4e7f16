// RPSL (Routing Policy Specification Language) object model — the subset
// the paper's IRR analysis needs (Section 4.1, Table 3): aut-num objects
// with import lines carrying `pref` actions, plus relationship-community
// remarks of the kind ASes publish (Appendix, Table 11).
//
// Note RPSL `pref` is inverted relative to BGP LOCAL_PREF: smaller pref is
// more preferred (paper footnote 2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topology/as_graph.h"
#include "util/fields.h"
#include "util/ids.h"

namespace bgpolicy::rpsl {

using topo::RelKind;
using util::AsNumber;

/// One "attribute: value" line of an RPSL object (continuation lines are
/// folded by the parser).
struct Attribute {
  std::string name;
  std::string value;
};

/// A generic RPSL object: its class is the name of the first attribute.
struct Object {
  std::vector<Attribute> attributes;

  [[nodiscard]] std::string class_name() const {
    return attributes.empty() ? std::string{} : attributes.front().name;
  }
  [[nodiscard]] std::optional<std::string> first(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> all(const std::string& name) const;
};

/// "import: from AS2 action pref = 10; accept ANY"
struct ImportLine {
  AsNumber from;
  std::optional<std::uint32_t> pref;
  std::string accept = "ANY";
  friend bool operator==(const ImportLine&, const ImportLine&) = default;
};

/// "export: to AS2 announce AS1"
struct ExportLine {
  AsNumber to;
  std::string announce;
  friend bool operator==(const ExportLine&, const ExportLine&) = default;
};

/// "remarks: rel-community <class> <lo> <hi>" — a published community range
/// meaning "routes received from <class> carry values in [lo, hi]".
struct CommunityRemark {
  RelKind kind;
  std::uint16_t value_lo = 0;
  std::uint16_t value_hi = 0;
  friend bool operator==(const CommunityRemark&, const CommunityRemark&) =
      default;
};

struct AutNum {
  AsNumber as;
  std::string as_name;
  std::vector<ImportLine> imports;
  std::vector<ExportLine> exports;
  std::vector<CommunityRemark> community_remarks;
  /// YYYYMMDD from the last "changed" attribute; 0 when absent.
  std::uint32_t changed_date = 0;

  friend bool operator==(const AutNum&, const AutNum&) = default;
};

// ------------------------------------------------------------ field lists --
// Each stored type's fields, in stored order (util/fields.h).

template <typename V>
constexpr void fields(V& v, ImportLine& l) {
  v("from", l.from);
  v("pref", l.pref);
  v("accept", l.accept);
}
static_assert(util::lists_every_member<ImportLine>());

template <typename V>
constexpr void fields(V& v, ExportLine& l) {
  v("to", l.to);
  v("announce", l.announce);
}
static_assert(util::lists_every_member<ExportLine>());

template <typename V>
constexpr void fields(V& v, CommunityRemark& r) {
  v("kind", r.kind);
  v("value_lo", r.value_lo);
  v("value_hi", r.value_hi);
}
static_assert(util::lists_every_member<CommunityRemark>());

template <typename V>
constexpr void fields(V& v, AutNum& a) {
  v("as", a.as);
  v("as_name", a.as_name);
  v("imports", a.imports);
  v("exports", a.exports);
  v("community_remarks", a.community_remarks);
  v("changed_date", a.changed_date);
}
static_assert(util::lists_every_member<AutNum>());

}  // namespace bgpolicy::rpsl
