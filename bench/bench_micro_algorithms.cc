// Microbenchmarks (google-benchmark) for the core algorithms, including
// the ablations called out in DESIGN.md §5:
//   * per-prefix route propagation cost vs topology size,
//   * SA inference from best routes vs a full Adj-RIB-In scan,
//   * Gao inference with and without the clique/peer refinements,
//   * prefix-trie covering scans vs brute force,
//   * decision process, RPSL parsing, table serialization.
#include <benchmark/benchmark.h>

#include "asrel/gao_inference.h"
#include "bgp/decision.h"
#include "bgp/prefix_trie.h"
#include "core/export_inference.h"
#include "core/experiment.h"
#include "io/binary_table.h"
#include "rpsl/generator.h"
#include "rpsl/parser.h"
#include "sim/flat_engine.h"
#include "sim/policy_gen.h"
#include "sim/simulation.h"
#include "testing/propagation_reference.h"
#include "util/rng.h"

namespace {

using namespace bgpolicy;

struct World {
  topo::Topology topo;
  topo::PrefixPlan plan;
  sim::GeneratedPolicies gen;
  std::vector<sim::Origination> originations;
};

const World& world(std::size_t stubs) {
  static std::map<std::size_t, std::unique_ptr<World>> cache;
  auto& entry = cache[stubs];
  if (!entry) {
    entry = std::make_unique<World>();
    topo::GeneratorParams params;
    params.seed = 99;
    params.tier1_count = 8;
    params.tier2_count = 24;
    params.tier3_count = 80;
    params.stub_count = stubs;
    entry->topo = topo::generate_topology(params);
    topo::PrefixAllocParams alloc;
    alloc.max_stub_prefixes = 8;
    entry->plan = topo::allocate_prefixes(entry->topo, alloc);
    entry->gen = sim::generate_policies(entry->topo, entry->plan, {});
    entry->originations = sim::all_originations(entry->plan, entry->gen);
  }
  return *entry;
}

const core::Experiment& small_experiment() {
  static const core::Experiment exp = [] {
    core::RunOptions options;
    options.until = core::Stage::kInfer;
    core::Experiment built(core::Scenario::small(42), options);
    built.run();
    return built;
  }();
  return exp;
}

void BM_PropagateOnePrefix(benchmark::State& state) {
  const World& w = world(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& origination = w.originations[i++ % w.originations.size()];
    benchmark::DoNotOptimize(sim::compute_prefix(
        w.topo.graph, w.gen.policies, origination, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.topo.graph.as_count()));
}
BENCHMARK(BM_PropagateOnePrefix)->Arg(200)->Arg(600)->Arg(1200);

// The flat-core before/after pair: identical per-prefix fixpoints through
// the dense-id engine (warmed context + scratch, the production shape) and
// the seed per-event program it replaced.  Throughput counters report
// process events and materialized routes per second; the flat row also
// reports its scratch high-water mark.
void BM_ComputePrefixFlat(benchmark::State& state) {
  const World& w = world(static_cast<std::size_t>(state.range(0)));
  const sim::FlatSimContext context(w.topo.graph, w.gen.policies);
  sim::FlatScratch scratch;
  std::size_t i = 0;
  std::int64_t events = 0;
  std::int64_t routes = 0;
  for (auto _ : state) {
    const auto& origination = w.originations[i++ % w.originations.size()];
    const auto routing =
        sim::compute_prefix_flat(context, origination, nullptr, {}, scratch);
    events += static_cast<std::int64_t>(routing.process_events);
    routes += static_cast<std::int64_t>(routing.best.size());
    benchmark::DoNotOptimize(routing);
  }
  state.counters["process_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["routes_per_sec"] = benchmark::Counter(
      static_cast<double>(routes), benchmark::Counter::kIsRate);
  state.counters["peak_scratch_bytes"] =
      static_cast<double>(scratch.peak_bytes());
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ComputePrefixFlat)->Arg(200)->Arg(600)->Arg(1200);

void BM_ComputePrefixReference(benchmark::State& state) {
  const World& w = world(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  std::int64_t events = 0;
  std::int64_t routes = 0;
  for (auto _ : state) {
    const auto& origination = w.originations[i++ % w.originations.size()];
    const auto routing = testing::compute_prefix_reference(
        w.topo.graph, w.gen.policies, origination, nullptr, {});
    events += static_cast<std::int64_t>(routing.process_events);
    routes += static_cast<std::int64_t>(routing.best.size());
    benchmark::DoNotOptimize(routing);
  }
  state.counters["process_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["routes_per_sec"] = benchmark::Counter(
      static_cast<double>(routes), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ComputePrefixReference)->Arg(200)->Arg(600)->Arg(1200);

void BM_SaInference_BestRoutes(benchmark::State& state) {
  const auto& exp = small_experiment();
  const auto view = exp.view();
  const util::AsNumber provider{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::infer_sa_prefixes(view.table_for(provider), provider,
                                *view.inferred_graph, view.inferred_oracle()));
  }
}
BENCHMARK(BM_SaInference_BestRoutes);

void BM_SaInference_FullRib(benchmark::State& state) {
  const auto& exp = small_experiment();
  const auto view = exp.view();
  const util::AsNumber provider{1};
  const auto& lg = exp.sim().sim.looking_glass.at(provider);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sa_from_full_rib(
        lg, provider, *view.inferred_graph, view.inferred_oracle()));
  }
}
BENCHMARK(BM_SaInference_FullRib);

void BM_GaoInference(benchmark::State& state) {
  const auto& exp = small_experiment();
  asrel::GaoInference gao;
  for (const bgp::TableEntry entry : exp.sim().sim.collector) {
    for (const bgp::RouteView route : entry) gao.add_path(route.path().hops());
  }
  asrel::GaoParams params;
  params.detect_peers = state.range(0) != 0;
  params.detect_clique = state.range(0) != 0;
  double accuracy = 0;
  for (auto _ : state) {
    const auto rels = gao.infer(params);
    accuracy = rels.accuracy_against(exp.truth().topo.graph);
    benchmark::DoNotOptimize(rels);
  }
  state.counters["accuracy_pct"] = 100.0 * accuracy;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(gao.path_count()));
}
BENCHMARK(BM_GaoInference)->Arg(0)->Arg(1)->ArgNames({"refinements"});

void BM_TrieCoveringScan(benchmark::State& state) {
  util::Rng rng(5);
  bgp::PrefixTrie<int> trie;
  std::vector<bgp::Prefix> queries;
  for (int i = 0; i < 4096; ++i) {
    const auto network = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFF));
    const auto length = static_cast<std::uint8_t>(rng.uniform(8, 24));
    trie.insert(bgp::Prefix(network, length), i);
    queries.emplace_back(network, 24);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    trie.for_each_covering(queries[i++ % queries.size()],
                           [&](const bgp::Prefix&, const int&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TrieCoveringScan);

void BM_DecisionSelectBest(benchmark::State& state) {
  std::vector<bgp::Route> candidates;
  util::Rng rng(6);
  for (int i = 0; i < 8; ++i) {
    bgp::Route route;
    route.prefix = bgp::Prefix::parse("10.0.0.0/24");
    std::vector<util::AsNumber> hops;
    for (std::uint64_t h = 0; h < 2 + rng.uniform(0, 3); ++h) {
      hops.emplace_back(static_cast<std::uint32_t>(rng.uniform(1, 65000)));
    }
    route.path = bgp::AsPath(std::move(hops));
    route.learned_from = route.path.hops().front();
    route.local_pref = static_cast<std::uint32_t>(rng.uniform(60, 130));
    route.router_id = route.learned_from.value();
    candidates.push_back(std::move(route));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::select_best(candidates));
  }
}
BENCHMARK(BM_DecisionSelectBest);

void BM_RpslParse(benchmark::State& state) {
  const World& w = world(200);
  rpsl::IrrGenParams params;
  params.coverage = 1.0;
  const std::string db = rpsl::generate_irr(w.topo, w.gen.policies, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpsl::parse_aut_nums(db));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(db.size()));
}
BENCHMARK(BM_RpslParse);

void BM_TableSerializeRoundTrip(benchmark::State& state) {
  const auto& exp = small_experiment();
  const auto& table = exp.sim().sim.collector;
  for (auto _ : state) {
    const auto bytes = io::serialize_table(table);
    benchmark::DoNotOptimize(io::deserialize_table(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.route_count()));
}
BENCHMARK(BM_TableSerializeRoundTrip);

}  // namespace

BENCHMARK_MAIN();
