#include "topology/prefix_alloc.h"

#include <algorithm>

#include "util/ensure.h"

namespace bgpolicy::topo {

namespace {

using bgp::Prefix;
using util::Rng;

// Sequential aligned allocator over the 32-bit address space, starting at
// 8.0.0.0 (everything below is left unused, like the real bogon ranges).
class AddressPool {
 public:
  explicit AddressPool(std::uint32_t start) : cursor_(start) {}

  Prefix allocate(std::uint8_t length) {
    util::ensure(length >= 1 && length <= 32, "AddressPool: bad length");
    const std::uint32_t size = length == 0 ? 0 : (1U << (32 - length));
    // Align the cursor up to the block size.
    const std::uint32_t aligned = (cursor_ + size - 1) & ~(size - 1);
    util::ensure_state(aligned + (size - 1) >= aligned,
                       "AddressPool: address space exhausted");
    cursor_ = aligned + size;
    return Prefix(aligned, length);
  }

 private:
  std::uint32_t cursor_;
};

// Tracks sub-allocation inside one transit block.
struct BlockCursor {
  Prefix block;
  std::uint32_t next_index = 0;  // next free /24-unit inside the block
};

}  // namespace

PrefixPlan allocate_prefixes(const Topology& topo,
                             const PrefixAllocParams& params) {
  Rng rng(params.seed);
  PrefixPlan plan;
  AddressPool transit_pool(0x08000000);   // 8.0.0.0
  AddressPool independent_pool(0xC0000000);  // 192.0.0.0 for PI space

  std::unordered_map<AsNumber, BlockCursor> cursors;

  const auto add = [&](Prefix prefix, AsNumber origin,
                       std::optional<AsNumber> allocated_from) {
    plan.add({prefix, origin, allocated_from});
  };

  // Transit ASes: one top-level block each (size by tier) plus a few
  // more-specifics they originate themselves.
  const auto allocate_transit = [&](std::span<const AsNumber> group,
                                    std::uint8_t block_len) {
    for (const AsNumber as : group) {
      const Prefix block = transit_pool.allocate(block_len);
      plan.transit_block.emplace(as, block);
      cursors.emplace(as, BlockCursor{block, 0});
      add(block, as, std::nullopt);
      const std::uint64_t extra =
          rng.pareto(1.3, params.max_transit_extra) - 1;
      for (std::uint64_t i = 0; i < extra; ++i) {
        // Originate a /20 more-specific out of the AS's own block.
        const std::uint64_t slots = block.subnet_count(20);
        if (slots == 0) break;
        add(block.subnet(20, static_cast<std::uint32_t>(rng.uniform(0, slots - 1))),
            as, std::nullopt);
      }
    }
  };
  allocate_transit(topo.tier1, 12);
  allocate_transit(topo.tier2, 14);
  allocate_transit(topo.tier3, 16);

  // Stubs: heavy-tailed prefix counts; each prefix is either carved from a
  // provider block (provider-assigned, aggregatable) or independent.
  for (const AsNumber as : topo.stubs) {
    const auto count = rng.pareto(params.count_alpha, params.max_stub_prefixes);
    const auto providers = topo.graph.providers(as);
    for (std::uint64_t i = 0; i < count; ++i) {
      // Prefix length: mostly /24, some /23 and /22 (the shorter ones give
      // the splitting behavior something to split).
      const double roll = rng.uniform01();
      const std::uint8_t length = roll < 0.70 ? 24 : (roll < 0.90 ? 23 : 22);
      const bool provider_space =
          !providers.empty() && rng.chance(params.provider_space_prob);
      if (provider_space) {
        const AsNumber provider = providers[rng.index(providers.size())];
        auto cursor_it = cursors.find(provider);
        if (cursor_it != cursors.end()) {
          BlockCursor& cursor = cursor_it->second;
          const std::uint64_t units = std::uint64_t{1} << (24 - length);
          const std::uint64_t total_units = cursor.block.subnet_count(24);
          // Reserve the top half of each provider block for customers; keep
          // sub-blocks aligned to their own size so /22s and /23s stay
          // canonical.
          const std::uint64_t base = total_units / 2;
          const std::uint64_t aligned =
              (cursor.next_index + units - 1) & ~(units - 1);
          if (base + aligned + units <= total_units) {
            const auto unit_index = static_cast<std::uint32_t>(base + aligned);
            cursor.next_index = static_cast<std::uint32_t>(aligned + units);
            const Prefix sub = cursor.block.subnet(24, unit_index);
            add(Prefix(sub.network(), length), as, provider);
            continue;
          }
        }
      }
      add(independent_pool.allocate(length), as, std::nullopt);
    }
  }

  return plan;
}

}  // namespace bgpolicy::topo
