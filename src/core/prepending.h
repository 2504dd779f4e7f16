// AS-path prepending analysis (paper Section 2.2.2 lists prepending among
// the export-policy knobs; this module measures how often it shows up in
// observed tables).
//
// A prepended path carries consecutive duplicates of one AS
// ("701 701 701 64512"); the duplicate count minus one is the prepend
// depth.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "bgp/table.h"
#include "util/ids.h"
#include "util/stats.h"

namespace bgpolicy::core {

struct PrependingAnalysis {
  util::AsNumber vantage;
  std::size_t total_routes = 0;
  std::size_t prepended_routes = 0;
  double percent_prepended = 0.0;
  /// ASes observed prepending anywhere in a path.
  std::unordered_set<util::AsNumber> prepending_ases;
  /// Prepend depth (extra copies) -> number of routes.
  util::Histogram depth_histogram;
};

[[nodiscard]] PrependingAnalysis analyze_prepending(const bgp::BgpTable& table);

/// The maximum consecutive-duplicate run length minus one ("prepend
/// depth") of a path; 0 for unprepended paths.  Exposed for tests.
[[nodiscard]] std::size_t prepend_depth(bgp::HopSpan hops);

}  // namespace bgpolicy::core
