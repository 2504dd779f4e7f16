#include "core/path_availability.h"

#include <optional>
#include <vector>

#include "topology/customer_cone.h"

namespace bgpolicy::core {

PathAvailability analyze_path_availability(const bgp::BgpTable& full_rib,
                                           AsNumber vantage,
                                           const topo::AsGraph& annotated) {
  PathAvailability out;
  out.vantage = vantage;

  // Scope: customer prefixes, as in the SA analysis (Phase 2).  Each
  // neighbor's cone is walked the first time that neighbor is asked about;
  // `neighbor_cones[i]` belongs to `neighbors[i]`.
  const topo::CustomerCone cone(annotated, vantage);
  const std::span<const topo::Neighbor> neighbors =
      annotated.neighbors(vantage);
  std::vector<std::optional<topo::CustomerCone>> neighbor_cones(
      neighbors.size());
  const auto in_neighbor_cone = [&](std::size_t i, AsNumber origin) {
    if (!neighbor_cones[i]) {
      neighbor_cones[i].emplace(annotated, neighbors[i].as);
    }
    return neighbor_cones[i]->contains(origin);
  };

  std::size_t total_available = 0;
  std::size_t total_potential = 0;

  for (const bgp::TableEntry entry : full_rib) {
    const AsNumber origin = entry.best().origin_as();
    if (!cone.contains(origin)) continue;
    ++out.customer_prefixes;

    const std::size_t available = entry.size();
    total_available += available;
    out.available_histogram.add(static_cast<std::int64_t>(available));
    if (available == 1) ++out.single_path_prefixes;

    // A provider can always supply *some* route to the prefix; a customer
    // or peer only one from its own cone.
    std::size_t potential = 0;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i].kind == RelKind::kProvider ||
          neighbors[i].as == origin || in_neighbor_cone(i, origin)) {
        ++potential;
      }
    }
    total_potential += potential;
  }

  if (out.customer_prefixes > 0) {
    out.mean_available = static_cast<double>(total_available) /
                         static_cast<double>(out.customer_prefixes);
    out.mean_potential = static_cast<double>(total_potential) /
                         static_cast<double>(out.customer_prefixes);
  }
  if (out.mean_potential > 0) {
    out.availability_ratio = out.mean_available / out.mean_potential;
  }
  return out;
}

}  // namespace bgpolicy::core
