// Multihomed vs single-homed distribution of SA-prefix origins
// (paper Section 5.1.5, Table 8 and Fig. 8).
#pragma once

#include <vector>

#include "core/export_inference.h"
#include "topology/as_graph.h"

namespace bgpolicy::core {

struct HomingDistribution {
  AsNumber provider;
  std::size_t multihomed_ases = 0;
  std::size_t singlehomed_ases = 0;
  double percent_multihomed = 0.0;
  double percent_singlehomed = 0.0;
};

template <typename V>
constexpr void fields(V& v, HomingDistribution& h) {
  v("provider", h.provider);
  v("multihomed_ases", h.multihomed_ases);
  v("singlehomed_ases", h.singlehomed_ases);
  v("percent_multihomed", h.percent_multihomed);
  v("percent_singlehomed", h.percent_singlehomed);
}
static_assert(util::lists_every_member<HomingDistribution>());

/// Groups the SA prefixes by origin AS and classifies each origin by its
/// provider count in the annotated graph (>= 2 providers = multihomed).
[[nodiscard]] HomingDistribution analyze_homing(const SaAnalysis& analysis,
                                                const topo::AsGraph& annotated);

}  // namespace bgpolicy::core
