#include "sim/router_partition.h"

#include "util/rng.h"

namespace bgpolicy::sim {

namespace {

// Order-independent pseudo-random double in [0,1) from mixed words.
double hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a * 0x9E3779B97F4A7C15ULL ^ b;
  (void)util::splitmix64(state);
  state ^= c * 0xD1B54A32D192ED03ULL;
  const std::uint64_t z = util::splitmix64(state);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<RouterView> partition_routers(const bgp::BgpTable& lg_table,
                                          const RouterPartitionParams& params) {
  std::vector<RouterView> views;
  views.reserve(params.router_count);
  for (std::size_t r = 0; r < params.router_count; ++r) {
    views.push_back({util::RouterId(static_cast<std::uint32_t>(r)),
                     bgp::BgpTable(lg_table.owner())});
  }
  if (params.router_count == 0) return views;

  // Per-router deviation rates, decided once.
  std::vector<double> deviation(params.router_count, 0.0);
  for (std::size_t r = 0; r < params.router_count; ++r) {
    if (hash01(params.seed, r, 1) < params.deviant_router_prob) {
      deviation[r] = hash01(params.seed, r, 2) * params.max_deviation_rate;
    }
  }

  for (const bgp::TableEntry entry : lg_table) {
    const bgp::Prefix& prefix = entry.prefix();
    for (const bgp::RouteView route : entry) {
      // Each neighbor session terminates on exactly one border router,
      // whose id is its view's RouterView::router.
      std::uint64_t mix = params.seed ^ route.learned_from().value();
      const std::size_t r = static_cast<std::size_t>(util::splitmix64(mix)) %
                            params.router_count;
      bgp::Route copy = route.to_route();
      if (deviation[r] > 0.0 &&
          hash01(params.seed ^ r, prefix.network(), prefix.length()) <
              deviation[r]) {
        copy.local_pref =
            60 + static_cast<std::uint32_t>(
                     hash01(params.seed ^ 0xBEEF, prefix.network(), r) * 70.0);
      }
      views[r].table.add(std::move(copy));
    }
  }
  return views;
}

}  // namespace bgpolicy::sim
