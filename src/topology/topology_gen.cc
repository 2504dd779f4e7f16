#include "topology/topology_gen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <span>

#include "util/ensure.h"

namespace bgpolicy::topo {

namespace {

using util::Rng;

// AS numbers from the paper's tables, used as labels for generated nodes so
// bench output rows read like the originals.
// Ordered so the paper's three focus Tier-1s receive the largest customer
// bases (the popularity skew favors earlier entries), mirroring the real
// degree ranking (AT&T's 1330 was the largest in Table 1).
constexpr std::array<std::uint32_t, 10> kTier1Names = {
    7018, 1, 3549, 701, 1239, 3561, 2914, 6453, 209, 6461};

constexpr std::array<std::uint32_t, 20> kTier2Names = {
    5511, 7474, 6762, 1299, 3320, 3300, 3292, 3215, 5400,  1740,
    4000, 6830, 3344, 5503, 8434, 2518, 13127, 6863, 4004, 12322};

constexpr std::array<std::uint32_t, 41> kTier3Names = {
    577,   6539,  6667,  2578,  513,   559,   12359, 12859, 8262,  12635,
    15498, 12306, 8341,  8650,  5615,  12390, 5607,  1140,  5427,  12781,
    6873,  8365,  1901,  852,   15290, 8527,  3313,  9191,  12731, 5466,
    15435, 5597,  3216,  12868, 2118,  5594,  1103,  13129, 21392, 9013,
    6538};

constexpr std::array<std::uint32_t, 10> kStubNames = {
    376, 6280, 10910, 11647, 14743, 15087, 19024, 19916, 13768, 8736};

// Draws a provider index with Zipf-ish popularity skew: low indices (the
// "big" providers) are proportionally more likely, producing heavy-tailed
// provider degrees.
std::size_t skewed_pick(Rng& rng, std::size_t n, double skew) {
  if (n == 1) return 0;
  const double u = rng.uniform01();
  const double x = std::pow(u, 1.0 + skew);  // concentrates mass near 0
  auto idx = static_cast<std::size_t>(x * static_cast<double>(n));
  return std::min(idx, n - 1);
}

// Picks `k` distinct providers from `pool` with popularity skew.
std::vector<AsNumber> pick_providers(Rng& rng, std::span<const AsNumber> pool,
                                     std::size_t k, double skew) {
  k = std::min(k, pool.size());
  std::vector<AsNumber> out;
  out.reserve(k);
  std::size_t guard = 0;
  while (out.size() < k && guard < 1000) {
    ++guard;
    const AsNumber candidate = pool[skewed_pick(rng, pool.size(), skew)];
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
  return out;
}

// Poisson-ish small count with the given mean (geometric approximation is
// fine for link-count draws; the exact distribution is not load-bearing).
std::size_t small_count(Rng& rng, double mean) {
  std::size_t count = 0;
  const double p = mean / (mean + 1.0);
  while (rng.chance(p) && count < 32) ++count;
  return count;
}

}  // namespace

std::string to_string(Tier tier) {
  switch (tier) {
    case Tier::kTier1: return "tier-1";
    case Tier::kTier2: return "tier-2";
    case Tier::kTier3: return "tier-3";
    case Tier::kStub: return "stub";
  }
  return "?";
}

TierNumbering::TierNumbering(const GeneratorParams& params) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::array<std::span<const std::uint32_t>, 4> names = {
      kTier1Names, kTier2Names, kTier3Names, kStubNames};
  const std::array<std::uint64_t, 4> counts = {
      params.tier1_count, params.tier2_count, params.tier3_count,
      params.stub_count};
  const std::array<std::uint64_t, 4> bases = {100, 2000, 16000, 20000};
  std::set<std::uint32_t> labels;  // ascending
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    Run& run = runs_[i];
    run.count = counts[i];
    for (const std::uint32_t name : names[i]) {
      if (run.labels.size() == run.count) break;
      if (tier_of(AsNumber(name))) continue;  // an earlier tier took it
      run.labels.emplace_back(name);
      labels.insert(name);
    }
    // Synthetic numbers count up from the tier's base, past every number
    // an earlier tier took: the earlier runs, which end below this one's
    // begin, and the labels inside it, each of which pushes its end up.
    run.begin = std::max(bases[i], i == 0 ? 0 : runs_[i - 1].end);
    const std::uint64_t synthetic = run.count - run.labels.size();
    run.end = synthetic > kMax - run.begin ? kMax : run.begin + synthetic;
    for (const std::uint32_t label : labels) {
      if (label >= run.begin && label < run.end && run.end != kMax) ++run.end;
    }
  }
}

bool TierNumbering::labelled(AsNumber as) const {
  return std::any_of(runs_.begin(), runs_.end(), [&](const Run& run) {
    return std::find(run.labels.begin(), run.labels.end(), as) !=
           run.labels.end();
  });
}

std::optional<Tier> TierNumbering::tier_of(AsNumber as) const {
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const auto& labels = runs_[i].labels;
    if (std::find(labels.begin(), labels.end(), as) != labels.end()) {
      return static_cast<Tier>(i + 1);
    }
  }
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (as.value() >= runs_[i].begin && as.value() < runs_[i].end) {
      return static_cast<Tier>(i + 1);
    }
  }
  return std::nullopt;
}

std::vector<AsNumber> TierNumbering::ases(Tier tier) const {
  const Run& run = runs_[static_cast<std::size_t>(tier) - 1];
  std::vector<AsNumber> out;
  out.reserve(run.count);
  out.assign(run.labels.begin(), run.labels.end());
  for (std::uint64_t n = run.begin; n < run.end; ++n) {
    const AsNumber as{static_cast<std::uint32_t>(n)};
    if (!labelled(as)) out.push_back(as);
  }
  return out;
}

std::optional<Tier> TierNumbering::first_tier_past_32_bits() const {
  constexpr std::uint64_t kAsNumbers = std::uint64_t{1} << 32;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].end > kAsNumbers) return static_cast<Tier>(i + 1);
  }
  return std::nullopt;
}

Topology generate_topology(const GeneratorParams& params) {
  util::ensure(params.tier1_count >= 2, "topology: need >= 2 Tier-1 ASs");
  util::ensure(params.tier2_count >= 1, "topology: need >= 1 Tier-2 AS");
  util::ensure(params.tier3_count >= 1, "topology: need >= 1 Tier-3 AS");
  util::ensure(params.max_stub_providers >= 2,
               "topology: max_stub_providers must allow multihoming");

  Rng rng(params.seed);
  Rng rng_t2 = rng.fork();
  Rng rng_t3 = rng.fork();
  Rng rng_stub = rng.fork();

  Topology topo;
  const TierNumbering numbering(params);
  util::ensure(!numbering.first_tier_past_32_bits(),
               "topology: tier counts need AS numbers past 32 bits");
  const std::array<std::pair<Tier, std::vector<AsNumber>*>, 4> tiers = {{
      {Tier::kTier1, &topo.tier1},
      {Tier::kTier2, &topo.tier2},
      {Tier::kTier3, &topo.tier3},
      {Tier::kStub, &topo.stubs}}};
  for (const auto& [tier, list] : tiers) {
    *list = numbering.ases(tier);
    for (const AsNumber as : *list) topo.tier.emplace(as, tier);
  }

  AsGraph& g = topo.graph;
  for (const auto& group : {topo.tier1, topo.tier2, topo.tier3, topo.stubs}) {
    for (const AsNumber as : group) g.add_as(as);
  }

  // Tier-1: full peering clique (default-free core).
  for (std::size_t i = 0; i < topo.tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < topo.tier1.size(); ++j) {
      g.add_peer_peer(topo.tier1[i], topo.tier1[j]);
    }
  }

  const double skew = params.provider_popularity_skew;

  // Weighted 1/2/3 provider multiplicity: single-homing dominates, which
  // keeps Tier-1 customer cones from being multiply covered (the paper-era
  // structure that makes selective announcement effective).
  const auto provider_multiplicity = [](Rng& rng) -> std::size_t {
    const double roll = rng.uniform01();
    return roll < 0.50 ? 1 : (roll < 0.85 ? 2 : 3);
  };

  // Tier-2: Tier-1 providers plus a sparse Tier-2 peer mesh.
  for (const AsNumber as : topo.tier2) {
    const std::size_t provider_count = provider_multiplicity(rng_t2);
    for (const AsNumber p :
         pick_providers(rng_t2, topo.tier1, provider_count, skew)) {
      g.add_provider_customer(p, as);
    }
  }
  for (const AsNumber as : topo.tier2) {
    const std::size_t want = small_count(rng_t2, params.tier2_peer_mean / 2.0);
    for (std::size_t k = 0; k < want; ++k) {
      const AsNumber other = topo.tier2[rng_t2.index(topo.tier2.size())];
      if (other == as || g.relationship(as, other)) continue;
      g.add_peer_peer(as, other);
    }
  }

  // Tier-3: providers from Tier-2 (occasionally a Tier-1 directly), plus a
  // very sparse Tier-3 peer mesh.
  for (const AsNumber as : topo.tier3) {
    const std::size_t provider_count = provider_multiplicity(rng_t3);
    for (const AsNumber p :
         pick_providers(rng_t3, topo.tier2, provider_count, skew)) {
      g.add_provider_customer(p, as);
    }
    if (rng_t3.chance(params.tier3_direct_tier1_prob)) {
      const AsNumber p =
          topo.tier1[skewed_pick(rng_t3, topo.tier1.size(), skew)];
      if (!g.relationship(as, p)) g.add_provider_customer(p, as);
    }
  }
  for (const AsNumber as : topo.tier3) {
    const std::size_t want = small_count(rng_t3, params.tier3_peer_mean / 2.0);
    for (std::size_t k = 0; k < want; ++k) {
      const AsNumber other = topo.tier3[rng_t3.index(topo.tier3.size())];
      if (other == as || g.relationship(as, other)) continue;
      g.add_peer_peer(as, other);
    }
  }

  // Stubs: single- or multihomed into tiers 1-3 (mostly 2-3), rare
  // stub-stub peering.
  for (const AsNumber as : topo.stubs) {
    const bool multihomed = rng_stub.chance(params.stub_multihome_prob);
    const std::size_t provider_count =
        multihomed ? 2 + rng_stub.index(params.max_stub_providers - 1) : 1;
    std::size_t attached = 0;
    std::size_t guard = 0;
    while (attached < provider_count && guard < 100) {
      ++guard;
      const double roll = rng_stub.uniform01();
      AsNumber p{};
      if (roll < params.stub_tier1_frac) {
        p = topo.tier1[skewed_pick(rng_stub, topo.tier1.size(), skew)];
      } else if (roll < params.stub_tier1_frac + params.stub_tier2_frac) {
        p = topo.tier2[skewed_pick(rng_stub, topo.tier2.size(), skew)];
      } else {
        p = topo.tier3[skewed_pick(rng_stub, topo.tier3.size(), skew)];
      }
      if (g.relationship(as, p)) continue;
      g.add_provider_customer(p, as);
      ++attached;
    }
  }
  for (const AsNumber as : topo.stubs) {
    if (!rng_stub.chance(params.stub_peer_prob)) continue;
    const AsNumber other = topo.stubs[rng_stub.index(topo.stubs.size())];
    if (other == as || g.relationship(as, other)) continue;
    g.add_peer_peer(as, other);
  }

  return topo;
}

}  // namespace bgpolicy::topo
