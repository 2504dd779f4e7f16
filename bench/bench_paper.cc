// The paper's exhibits from one internet2002 run.
//
// Runs the canonical internet2002 scenario (DESIGN.md §4) through Analyze
// once and prints every table and figure of Wang & Gao (IMC 2003) in paper
// order, with the paper's numbers beside the measured ones where a direct
// comparison exists.  The per-vantage analyses (SA inference, homing,
// causes, import typicality, SA verification) are read from the stored
// AnalysisSuite, never recomputed.  Absolute values are not expected to
// match (different substrate, smaller scale); the shape is what
// reproduces, and the run ends with one line per checked claim.
//
// Takes no arguments.  Exit status: 0 when every claim holds or is a
// listed known deviation; 1 when a claim fails that is not listed, when a
// listed deviation holds (the list is stale), or when Fig. 6's incremental
// and cold churn studies diverge; 77 in sanitizer builds, where the run is
// too slow (ctest's SKIP_RETURN_CODE).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/nexthop_consistency.h"
#include "core/path_availability.h"
#include "core/peer_export.h"
#include "core/persistence.h"
#include "core/prepending.h"
#include "sim/router_partition.h"
#include "topology/customer_cone.h"
#include "util/text_table.h"

namespace {

using namespace bgpolicy;
using util::AsNumber;

constexpr int kSkipped = 77;

/// The compile-time test behind testing::sanitizer_build().
constexpr bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// One of the paper's claims, checked against this run.
struct Claim {
  std::string exhibit;
  std::string paper;
  std::string measured;
  std::string predicate;
  bool holds = false;
};

/// Claims the synthetic world misses, by exhibit, each with its reason.  A
/// listed claim that holds fails the run, so no entry outlives its
/// deviation; the bound itself is never widened to make a claim pass.
const std::map<std::string, std::string> kKnownDeviations = {
    {"Table 3",
     "AS16008 registers a real backup preference for one customer below "
     "its providers, and AS16065's object ranks provider AS5511 above its "
     "customers against its configuration (irr_wrong_pref_prob); with 8 "
     "and 15 comparable pairs one such line costs 25 and 33 points, where "
     "the paper kept only objects with more than 50 neighbors"},
    {"Table 7",
     "359 of the 360 step-2 failures are SA prefixes whose origin has all "
     "of its prefixes SA at that Tier-1, so no active customer path can "
     "exist; the generator withholds above the origin "
     "(intermediate_selective_prob) about twice as often as the paper's "
     "data shows"},
};

std::vector<AsNumber> focus_tier1() {
  std::vector<AsNumber> out;
  for (const auto as : core::Scenario::focus_tier1()) out.emplace_back(as);
  return out;
}

/// Appends "AS1 75.0%" to a claim's comma-separated measured values.
void add_value(std::string& values, AsNumber as, const std::string& value) {
  values += (values.empty() ? "" : ", ") + util::to_string(as) + " " + value;
}

std::string ratio(std::size_t part, std::size_t whole) {
  return std::to_string(part) + "/" + std::to_string(whole);
}

void banner(const std::string& exhibit, const std::string& paper_claim) {
  std::cout << "================================================================\n"
            << exhibit << "\n"
            << "Paper: " << paper_claim << "\n"
            << "================================================================\n";
}

/// The run's artifacts, the products one exhibit hands to a later one,
/// and the claims checked so far.
struct Paper {
  const core::Experiment& exp;
  core::ExperimentView view;
  // Table 4's community verifications, which Fig. 9 reads.
  std::map<AsNumber, asrel::CommunityVerification> verifications{};
  core::PersistenceStudy daily{};     // Fig. 6(a), incremental
  core::PersistenceStudy intraday{};  // Fig. 6(b)
  bool churn_modes_match = false;
  std::vector<Claim> claims{};

  /// The stored Analyze bundle of a recorded vantage.
  const core::VantageAnalysis& analysis(AsNumber as) const {
    const core::VantageAnalysis* found = exp.analyses().find(as);
    if (found == nullptr) {
      throw std::logic_error("no stored analysis for " + util::to_string(as));
    }
    return *found;
  }
};

void table1(Paper& p) {
  const auto& vantage = p.exp.sim().vantage;
  const auto& graph = p.exp.truth().topo.graph;
  banner("Table 1 — data-source characteristics",
         "Oregon RouteViews peering with 56 ASs plus 15 looking-glass "
         "vantages; degrees 14..1330 across NA/Eu/Au/As");
  std::map<std::string, int> collector_regions;
  for (const auto as : vantage.collector_peers) {
    ++collector_regions[core::region_of(as)];
  }
  std::cout << "Collector AS" << vantage.collector_as.value() << " peers with "
            << vantage.collector_peers.size() << " ASs (";
  bool first = true;
  for (const auto& [region, count] : collector_regions) {
    std::cout << (first ? "" : ", ") << region << " " << count;
    first = false;
  }
  std::cout << ")\n\n";

  util::TextTable table({"AS number", "role", "degree", "location"});
  for (const auto as : vantage.looking_glass) {
    table.add_row({util::to_string(as),
                   "looking glass (tier " +
                       std::to_string(p.exp.inference().tiers.level_of(as)) +
                       ")",
                   std::to_string(graph.degree(as)), core::region_of(as)});
  }
  for (const auto as : vantage.best_only) {
    table.add_row({util::to_string(as), "table-5 vantage",
                   std::to_string(graph.degree(as)), core::region_of(as)});
  }
  std::cout << table.render("Vantage ASs (paper Table 1)") << "\n";
  std::size_t min_degree = SIZE_MAX, max_degree = 0;
  for (const auto as : vantage.looking_glass) {
    min_degree = std::min(min_degree, graph.degree(as));
    max_degree = std::max(max_degree, graph.degree(as));
  }
  std::cout << "Vantage degree range: " << min_degree << ".." << max_degree
            << " (paper: 14..1330)\n";
}

void table2(Paper& p) {
  banner("Table 2 — typical local preference at 15 vantages",
         "94.3%..100% of prefixes conform to customer > peer > provider at "
         "every vantage");
  const std::map<std::uint32_t, double> paper{
      {577, 94.3},    {5511, 96.5},  {3549, 99.7},  {6667, 99.94},
      {7474, 99.955}, {12359, 99.98}, {7018, 99.99}, {1, 99.994},
      {2578, 99.9982}, {513, 100},   {6762, 100},   {559, 100},
      {12859, 100},   {8262, 100},   {6539, 100}};
  util::TextTable table({"AS", "comparable prefixes", "% typical (measured)",
                         "% typical (paper)"});
  std::size_t above90 = 0;
  std::size_t reported = 0;
  for (const auto vantage : p.exp.sim().vantage.looking_glass) {
    const core::ImportTypicality& result =
        p.analysis(vantage).import_typicality.value();
    const auto it = paper.find(vantage.value());
    table.add_row({util::to_string(vantage),
                   std::to_string(result.comparable_prefixes),
                   util::fmt(result.percent_typical, 2),
                   it == paper.end() ? "-" : util::fmt(it->second, 2)});
    if (result.comparable_prefixes >= 10) {
      ++reported;
      if (result.percent_typical > 90.0) ++above90;
    }
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 2", "15/15 vantages above 94%",
       ratio(above90, reported) + " above 90%",
       "every vantage with >= 10 comparable prefixes above 90% typical",
       above90 == reported});
}

void table3(Paper& p) {
  banner("Table 3 — typical local preference from the IRR",
         "62 usable aut-num objects; typicality 80%..100%, most at or near "
         "100%");
  std::vector<core::IrrTypicality> rows;
  std::size_t discarded_stale = 0;
  std::size_t discarded_small = 0;
  for (const auto& aut_num : p.exp.observations().irr_objects) {
    if (aut_num.changed_date / 10000 < 2002) {
      ++discarded_stale;
      continue;
    }
    // The paper used ">50 neighbors"; our synthetic ASes are smaller, so
    // scale the floor down while keeping the filter's spirit.
    if (aut_num.imports.size() < 8) {
      ++discarded_small;
      continue;
    }
    const auto result =
        core::analyze_irr_typicality(aut_num, p.view.inferred_oracle());
    if (result.comparable_pairs < 5) continue;
    rows.push_back(result);
  }
  std::sort(rows.begin(), rows.end(),
            [](const core::IrrTypicality& a, const core::IrrTypicality& b) {
              return a.as < b.as;
            });
  util::TextTable table({"AS", "neighbors w/ pref", "comparable pairs",
                         "% typical"});
  std::size_t above80 = 0;
  std::string below;
  for (const auto& row : rows) {
    table.add_row({util::to_string(row.as),
                   std::to_string(row.neighbors_with_pref),
                   std::to_string(row.comparable_pairs),
                   util::fmt(row.percent_typical, 1)});
    if (row.percent_typical >= 80.0) {
      ++above80;
    } else {
      add_value(below, row.as, util::fmt(row.percent_typical, 1) + "%");
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "Usable objects: " << rows.size() << " (discarded "
            << discarded_stale << " stale, " << discarded_small
            << " too small)\n";
  p.claims.push_back(
      {"Table 3", "62/62 at >= 80%",
       ratio(above80, rows.size()) +
           (below.empty() ? "" : " (below: " + below + ")"),
       "every usable object at >= 80% typical", above80 == rows.size()});
}

void fig2(Paper& p) {
  const auto& sim = p.exp.sim();
  banner("Fig. 2 — local preference keyed on next-hop AS",
         "(a) most of 14 ASs near 100%; (b) most of AT&T's 30 routers near "
         "100%, a few lower");
  util::TextTable per_as({"AS", "routes", "% next-hop keyed"});
  std::size_t high = 0;
  for (const auto vantage : sim.vantage.looking_glass) {
    const auto result = core::analyze_nexthop_consistency(
        sim.sim.looking_glass.at(vantage));
    per_as.add_row({util::to_string(vantage),
                    std::to_string(result.total_routes),
                    util::fmt(result.percent_consistent, 1)});
    if (result.percent_consistent > 90.0) ++high;
  }
  std::cout << per_as.render("Fig. 2(a): per-AS consistency") << "\n";
  const std::size_t vantages = sim.vantage.looking_glass.size();
  p.claims.push_back(
      {"Fig. 2(a)", "most of 14 ASs near 100%",
       ratio(high, vantages) + " above 90%",
       "a majority of vantages above 90% next-hop keyed",
       2 * high > vantages});

  // (b) Per-router consistency inside AS7018 (the AT&T substitute).
  sim::RouterPartitionParams params;
  params.router_count = 30;
  const auto views = sim::partition_routers(
      sim.sim.looking_glass.at(AsNumber(7018)), params);
  util::TextTable per_router({"router", "routes", "% next-hop keyed"});
  std::size_t populated = 0;
  std::size_t router_high = 0;
  for (const auto& view : views) {
    const auto result = core::analyze_nexthop_consistency(view.table);
    per_router.add_row({util::to_string(view.router),
                        std::to_string(result.total_routes),
                        util::fmt(result.percent_consistent, 1)});
    if (result.total_routes == 0) continue;
    ++populated;
    if (result.percent_consistent > 90.0) ++router_high;
  }
  std::cout << per_router.render(
                   "Fig. 2(b): per-router consistency inside AS7018")
            << "\n";
  p.claims.push_back(
      {"Fig. 2(b)", "most of 30 routers near 100%, a few lower",
       ratio(router_high, populated) + " above 90%",
       "a majority of populated routers above 90% next-hop keyed",
       2 * router_high > populated});
}

void table4(Paper& p) {
  banner("Table 4 — AS relationships verified via BGP communities",
         "94.1%..99.55% of vantage-adjacent relationships verified for 9 "
         "ASs");
  const std::map<std::uint32_t, double> paper{
      {1, 95.65},    {577, 98.9},   {3549, 96.28}, {5511, 99.4},
      {6539, 96.45}, {6667, 97.46}, {7018, 99.55}, {12359, 94.1},
      {12859, 98.2}};
  const auto& graph = p.exp.truth().topo.graph;
  util::TextTable table({"AS", "# neighbors", "comparable",
                         "% verified (measured)", "% verified (paper)",
                         "truth agreement"});
  for (const auto as_value : p.exp.scenario().verification_ases) {
    const AsNumber as{as_value};
    if (!p.exp.sim().sim.looking_glass.contains(as)) continue;
    const auto& result =
        p.verifications.emplace(as, p.view.community_verification(as))
            .first->second;
    // Extra column the paper could not print: agreement of the
    // community-derived classes with the simulator's ground truth.
    std::size_t truth_ok = 0;
    std::size_t truth_total = 0;
    for (const auto& obs : result.neighbors) {
      if (!obs.community_rel) continue;
      const auto truth = graph.relationship(as, obs.neighbor);
      if (!truth) continue;
      ++truth_total;
      if (*obs.community_rel == *truth) ++truth_ok;
    }
    const auto it = paper.find(as_value);
    table.add_row({util::to_string(as), std::to_string(graph.degree(as)),
                   std::to_string(result.comparable),
                   util::fmt(result.percent_verified, 2),
                   it == paper.end() ? "-" : util::fmt(it->second, 2),
                   util::fmt(util::percent(truth_ok, truth_total), 2)});
  }
  std::cout << table.render() << "\n";

  // Table 11 flavor: one vantage's published tagging scheme.
  const AsNumber example{12859};
  if (const auto* aut_num = p.view.irr_for(example);
      aut_num != nullptr && !aut_num->community_remarks.empty()) {
    util::TextTable scheme({"community range", "meaning"});
    for (const auto& remark : aut_num->community_remarks) {
      scheme.add_row({std::to_string(example.value()) + ":" +
                          std::to_string(remark.value_lo) + "-" +
                          std::to_string(remark.value_hi),
                      "route received from " + topo::to_string(remark.kind)});
    }
    std::cout << scheme.render(
                     "Published tagging scheme of AS12859 (paper Table 11)")
              << "\n";
  } else {
    std::cout << "(AS12859 did not publish its scheme in this run; the gap "
                 "heuristic was used instead)\n";
  }
}

void table5(Paper& p) {
  banner("Table 5 — prevalence of SA prefixes at 16 ASs",
         "Tier-1s carry significant SA shares (AS1 32%, AS3549 23%, AS7018 "
         "22%, AS6453 48.6%); small vantages near 0%");
  const std::map<std::uint32_t, double> paper{
      {1, 32},    {7018, 22},   {3549, 23},  {701, 27.8}, {6453, 48.6},
      {6461, 4},  {1239, 29.4}, {3561, 5.2}, {2914, 14},  {209, 38},
      {5511, 18}, {577, 17},    {6538, 11},  {6667, 13},  {12359, 0},
      {12859, 0}};
  util::TextTable table({"AS", "customer prefixes", "SA prefixes",
                         "% SA (measured)", "% SA (paper)"});
  std::size_t tier1_double_digit = 0;
  std::size_t tier1_count = 0;
  for (const auto& [as_value, paper_pct] : paper) {
    const AsNumber as{as_value};
    const core::VantageAnalysis* stored = p.exp.analyses().find(as);
    if (stored == nullptr) continue;
    const core::SaAnalysis& sa = stored->sa;
    table.add_row({util::to_string(as), std::to_string(sa.customer_prefixes),
                   std::to_string(sa.sa_count), util::fmt(sa.percent_sa, 1),
                   util::fmt(paper_pct, 1)});
    if (p.exp.inference().tiers.level_of(as) == 1) {
      ++tier1_count;
      if (sa.percent_sa >= 10.0) ++tier1_double_digit;
    }
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 5", "most Tier-1s 14%..48.6% SA",
       ratio(tier1_double_digit, tier1_count) + " Tier-1s at >= 10%",
       "a majority of Tier-1 vantages at >= 10% SA",
       2 * tier1_double_digit > tier1_count});
}

void table6(Paper& p) {
  banner("Table 6 — SA prefixes per customer w.r.t. AS1/AS3549/AS7018",
         "8 multi-prefix customers show 17%..97% of their prefixes SA for "
         "all three providers at once");
  const std::vector<AsNumber> providers = focus_tier1();
  std::vector<const bgp::BgpTable*> tables;
  for (const auto as : providers) tables.push_back(&p.view.table_for(as));

  // Candidates: multi-prefix customers sitting in all three customer
  // cones.  The paper "selected 8 ASs which originate a significant number
  // of prefixes" — implicitly ones exhibiting the effect — so rank all
  // candidates and keep the 8 with the most intersection-SA prefixes.
  std::vector<topo::CustomerCone> cones;
  for (const auto as : providers) {
    cones.emplace_back(*p.view.inferred_graph, as);
  }
  std::vector<AsNumber> candidates;
  for (const auto as : p.exp.truth().topo.stubs) {
    if (p.exp.truth().plan.count_for(as) < 3) continue;
    if (std::all_of(cones.begin(), cones.end(),
                    [&](const auto& cone) { return cone.contains(as); })) {
      candidates.push_back(as);
    }
  }
  auto rows = core::sa_per_customer(tables, providers, candidates,
                                    *p.view.inferred_graph,
                                    p.view.inferred_oracle());
  std::sort(rows.begin(), rows.end(),
            [](const core::CustomerSa& a, const core::CustomerSa& b) {
              if ((a.sa_count > 0) != (b.sa_count > 0)) {
                return a.sa_count > 0;
              }
              return a.prefix_count != b.prefix_count
                         ? a.prefix_count > b.prefix_count
                         : a.customer < b.customer;
            });
  if (rows.size() > 8) rows.resize(8);
  util::TextTable table({"customer", "# prefixes", "# SA for all three",
                         "% SA"});
  std::size_t with_sa = 0;
  for (const auto& row : rows) {
    table.add_row({util::to_string(row.customer),
                   std::to_string(row.prefix_count),
                   std::to_string(row.sa_count),
                   util::fmt(row.percent_sa, 0)});
    if (row.sa_count > 0) ++with_sa;
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 6", "8/8 customers, 17%..97% SA",
       ratio(with_sa, rows.size()) + " with SA prefixes",
       "every listed customer has a prefix SA at all three Tier-1s",
       with_sa == rows.size()});
}

void table7(Paper& p) {
  banner("Table 7 — verification of SA prefixes",
         "95%..97.6% of SA prefixes verified at the three Tier-1s");
  const std::map<std::uint32_t, double> paper{
      {1, 97.6}, {3549, 95.0}, {7018, 97.0}};
  util::TextTable table({"provider", "# SA prefixes", "% verified (measured)",
                         "% verified (paper)", "step-1 failures",
                         "step-2 failures"});
  std::size_t verified95 = 0;
  std::string rates;
  const auto focus = focus_tier1();
  for (const auto as : focus) {
    const core::SaVerification& result =
        p.analysis(as).sa_verification.value();
    table.add_row({util::to_string(as), std::to_string(result.sa_total),
                   util::fmt(result.percent_verified, 1),
                   util::fmt(paper.at(as.value()), 1),
                   std::to_string(result.step1_failures),
                   std::to_string(result.step2_failures)});
    if (result.percent_verified >= 95.0) ++verified95;
    add_value(rates, as, util::fmt(result.percent_verified, 1) + "%");
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 7", "95.0%..97.6% verified",
       ratio(verified95, focus.size()) + " (" + rates + ")",
       ">= 95% of SA prefixes verified at each focus Tier-1",
       verified95 == focus.size()});
}

void print_series(const core::PersistenceStudy& study, const char* unit) {
  util::TextTable table(
      {std::string(unit), "all prefixes", "customer prefixes", "SA prefixes"});
  for (const auto& snap : study.series) {
    table.add_row({std::to_string(snap.step + 1),
                   std::to_string(snap.total_prefixes),
                   std::to_string(snap.customer_prefixes),
                   std::to_string(snap.sa_prefixes)});
  }
  std::cout << table.render() << "\n";
}

/// Fig. 6(a) runs twice, once with incremental (warm-start delta) churn
/// stepping and once with cold per-prefix recomputation: the delta-vs-cold
/// column pins the two studies byte-identical (sim/delta_engine.h
/// determinism contract) while the steps/sec rows show what the warm path
/// buys at figure scale.
void fig6(Paper& p) {
  const core::GroundTruth& truth = p.exp.truth();
  const auto& propagation = p.exp.scenario().propagation;
  banner("Fig. 6 — persistence of SA prefixes at AS1",
         "SA prefixes are consistently present: a stable band far below the "
         "total, over 31 days and over one day");
  const AsNumber watch{1};
  const auto study = [&](std::uint64_t seed, double flip_fraction,
                         std::size_t steps, bool incremental,
                         double* seconds) {
    sim::ChurnParams params;
    params.propagation = propagation;
    params.seed = seed;
    params.flip_fraction = flip_fraction;
    params.incremental = incremental;
    sim::ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                              truth.originations, truth.gen.truth, {watch},
                              params);
    const auto start = std::chrono::steady_clock::now();
    auto result = core::run_persistence_study(
        churn, watch, *p.view.inferred_graph, p.view.inferred_oracle(), steps,
        propagation.threads);
    if (seconds != nullptr) {
      *seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    }
    return result;
  };

  // (a) 31 daily steps with the default churn rate, both stepping modes.
  double incremental_seconds = 0;
  double cold_seconds = 0;
  p.daily = study(31, 0.006, 31, true, &incremental_seconds);
  const auto cold = study(31, 0.006, 31, false, &cold_seconds);
  p.churn_modes_match =
      core::canonical_serialize(p.daily) == core::canonical_serialize(cold);
  std::cout << "Fig. 6(a): daily snapshots, March-2002 equivalent\n";
  print_series(p.daily, "day");
  util::TextTable timing({"stepping mode", "31-step wall", "steps/sec",
                          "delta vs cold"});
  timing.add_row({"cold recompute", util::fmt(cold_seconds, 2) + " s",
                  util::fmt(31.0 / cold_seconds, 1), "baseline"});
  timing.add_row({"incremental (delta)",
                  util::fmt(incremental_seconds, 2) + " s",
                  util::fmt(31.0 / incremental_seconds, 1),
                  p.churn_modes_match ? "identical" : "DIVERGED"});
  std::cout << timing.render("churn stepping cost, series (a)") << "\n";

  // (b) 12 intra-day steps with much lower churn.
  p.intraday = study(15, 0.002, 12, true, nullptr);
  std::cout << "Fig. 6(b): intra-day snapshots, March 15 equivalent\n";
  print_series(p.intraday, "interval");

  bool band = true;
  std::string measured;
  for (const auto* series : {&p.daily, &p.intraday}) {
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto& snap : series->series) {
      lo = std::min(lo, snap.sa_prefixes);
      hi = std::max(hi, snap.sa_prefixes);
      band = band && snap.sa_prefixes > 0 &&
             2 * snap.sa_prefixes < snap.total_prefixes;
    }
    band = band && 2 * lo >= hi;
    measured += (measured.empty() ? "SA " : ", ") + std::to_string(lo) +
                ".." + std::to_string(hi);
  }
  p.claims.push_back(
      {"Fig. 6", "SA present every day, flat, ~9k of ~120k",
       measured + " per series",
       "every snapshot 0 < SA < total/2; per series min SA >= max/2", band});
}

void print_histogram(const core::PersistenceStudy& study, const char* unit) {
  util::TextTable table({std::string("uptime (") + unit + ")", "remaining SA",
                         "shifted SA->non-SA"});
  for (const auto& bucket : study.uptime_histogram) {
    table.add_row({std::to_string(bucket.uptime),
                   std::to_string(bucket.remaining_sa),
                   std::to_string(bucket.shifted)});
  }
  std::cout << table.render() << "\n";
  std::cout << "ever-SA prefixes: " << study.ever_sa << ", shifted: "
            << study.shifted_total << " ("
            << util::fmt(study.percent_shifted, 1) << "%)\n\n";
}

/// Fig. 7 reads the histograms of Fig. 6's incremental studies: the paper
/// draws both figures from the same snapshots.
void fig7(Paper& p) {
  banner("Fig. 7 — SA-prefix uptime at AS1",
         "about one sixth of SA prefixes shift to non-SA over a month; "
         "almost all are stable within one day");
  std::cout << "Fig. 7(a): month-scale churn\n";
  print_histogram(p.daily, "days");
  std::cout << "Fig. 7(b): day-scale churn\n";
  print_histogram(p.intraday, "hours");
  p.claims.push_back(
      {"Fig. 7(a)", "about 1/6 (16.7%) shift over a month",
       util::fmt(p.daily.percent_shifted, 1) + "% shifted",
       "a minority shifts (< 50%)", p.daily.percent_shifted < 50.0});
  p.claims.push_back(
      {"Fig. 7(b)", "almost all stable within a day",
       util::fmt(p.intraday.percent_shifted, 1) + "% shifted",
       "a minority shifts (< 50%)", p.intraday.percent_shifted < 50.0});
}

void table8(Paper& p) {
  banner("Table 8 — homing of SA-prefix origins",
         "~75% of ASs whose prefixes are SA are multihomed (AS1 75%, "
         "AS3549 75%, AS7018 77%)");
  const std::map<std::uint32_t, double> paper{
      {1, 75.0}, {3549, 75.0}, {7018, 77.0}};
  util::TextTable table({"provider", "multihomed ASs", "single-homed ASs",
                         "% multihomed (measured)", "% multihomed (paper)"});
  bool majority_everywhere = true;
  std::string measured;
  for (const auto as : focus_tier1()) {
    const core::HomingDistribution& homing = p.analysis(as).homing;
    table.add_row({util::to_string(as),
                   util::fmt_count_pct(homing.multihomed_ases,
                                       homing.percent_multihomed),
                   util::fmt_count_pct(homing.singlehomed_ases,
                                       homing.percent_singlehomed),
                   util::fmt(homing.percent_multihomed, 1),
                   util::fmt(paper.at(as.value()), 1)});
    if (homing.percent_multihomed <= 50.0) majority_everywhere = false;
    add_value(measured, as, util::fmt(homing.percent_multihomed, 1) + "%");
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 8", "~75% multihomed (75/75/77%)", measured,
       "> 50% multihomed at each focus Tier-1", majority_everywhere});
}

void table9(Paper& p) {
  banner("Table 9 — causes of SA prefixes",
         "splitting (127/9120) and aggregating (218/9120) are negligible; "
         "Case 3: ~21% announce to the direct provider (capped), ~79% "
         "withhold entirely");
  struct PaperRow {
    std::size_t sa, splitting, aggregating;
  };
  const std::map<std::uint32_t, PaperRow> paper{{1, {9120, 127, 218}},
                                                {3549, {3431, 63, 104}},
                                                {7018, {4374, 71, 179}}};
  util::TextTable table({"provider", "# SA", "# splitting", "# aggregating",
                         "paper (SA/split/aggr)"});
  util::TextTable case3({"provider", "% identified", "% announce to direct",
                         "% withheld from direct"});
  bool minor_everywhere = true;
  std::string measured;
  for (const auto as : focus_tier1()) {
    const core::CausesAnalysis& causes = p.analysis(as).causes;
    const auto& row = paper.at(as.value());
    table.add_row({util::to_string(as), std::to_string(causes.sa_total),
                   std::to_string(causes.splitting),
                   std::to_string(causes.aggregating),
                   std::to_string(row.sa) + "/" +
                       std::to_string(row.splitting) + "/" +
                       std::to_string(row.aggregating)});
    case3.add_row({util::to_string(as),
                   util::fmt(causes.percent_identified, 1),
                   util::fmt(causes.percent_announce, 1),
                   util::fmt(causes.percent_withheld, 1)});
    const std::size_t minor = causes.splitting + causes.aggregating;
    if (2 * minor > causes.sa_total) minor_everywhere = false;
    add_value(measured, as, ratio(minor, causes.sa_total));
  }
  std::cout << table.render("Case 1/2 counts (paper Table 9)") << "\n";
  std::cout << case3.render("Case 3: origin behavior toward direct providers "
                            "(paper, AS1: 90% identified; 21% / 79%)")
            << "\n";
  p.claims.push_back(
      {"Table 9", "splitting+aggregating 345 of 9,120 at AS1", measured,
       "splitting+aggregating <= half of SA at each focus Tier-1",
       minor_everywhere});
}

void table10(Paper& p) {
  banner("Table 10 — export to peers",
         "86% / 100% / 89% of peers announce their own prefixes directly to "
         "AS1 / AS3549 / AS7018");
  const std::map<std::uint32_t, double> paper{
      {1, 86.0}, {3549, 100.0}, {7018, 89.0}};
  util::TextTable table({"AS", "# peers", "% announcing all (measured)",
                         "% announcing all (paper)",
                         "# announcing most (>=80%)"});
  bool majority_everywhere = true;
  std::string measured;
  for (const auto as : focus_tier1()) {
    const auto result = core::analyze_peer_export(
        p.view.table_for(as), as, p.view.inferred_graph->peers(as));
    table.add_row({util::to_string(as), std::to_string(result.peer_count),
                   util::fmt(result.percent_announcing, 0),
                   util::fmt(paper.at(as.value()), 0),
                   std::to_string(result.announcing_most)});
    if (result.percent_announcing <= 50.0) majority_everywhere = false;
    add_value(measured, as, util::fmt(result.percent_announcing, 0) + "%");
  }
  std::cout << table.render() << "\n";
  p.claims.push_back(
      {"Table 10", "86% / 100% / 89% announce all", measured,
       "> 50% of peers announce all directly at each focus Tier-1",
       majority_everywhere});
}

/// The paper plots AS1, AS3549 (Tier-1s) and AS8736 (a small multihomed
/// AS); the stand-ins are the two Tier-1 looking glasses plus the smallest
/// looking-glass vantage, all three Table 4 vantages.
void fig9(Paper& p) {
  banner("Fig. 9 — prefixes per next-hop AS (rank order)",
         "AS1/AS3549: peers announce the most (no providers); AS8736 "
         "equivalents: one provider announces ~full table; customers "
         "announce 1-2 prefixes");
  const std::vector<AsNumber> subjects{AsNumber(1), AsNumber(3549),
                                       AsNumber(12859)};
  bool gaps = true;
  std::string measured;
  for (const auto as : subjects) {
    const auto& series = p.verifications.at(as).rank_series;
    std::cout << util::render_rank_series(series) << "\n";
    // The gap statistic the Appendix reasons about.
    double gap = 0.0;
    if (series.values.size() >= 2) {
      gap = static_cast<double>(series.values.front()) /
            std::max(1.0, static_cast<double>(series.values.back()));
      std::cout << "  top/bottom announcement ratio: " << util::fmt(gap, 1)
                << " (paper: orders of magnitude)\n\n";
    }
    gaps = gaps && gap >= 100.0;
    add_value(measured, as, util::fmt(gap, 0));
  }
  p.claims.push_back(
      {"Fig. 9", "top/bottom gap of orders of magnitude", measured,
       "top/bottom announcement ratio >= 100 at each subject", gaps});
}

/// Paper Sections 1 and 5.1, no numbered exhibit: selective announcement
/// means "much less available paths in the Internet than shown in the AS
/// connectivity graph" — available vs potential next-hop diversity for
/// customer prefixes at the focus Tier-1s, plus the prevalence of the
/// softer AS-path-prepending knob.
void impact(Paper& p) {
  const auto& sim = p.exp.sim().sim;
  banner("Impact — connectivity vs reachability",
         "policy withdraws a visible share of the paths the AS graph "
         "promises; some customer prefixes are one failure from "
         "unreachable");
  util::TextTable table({"provider", "customer prefixes",
                         "mean available paths", "mean potential paths",
                         "availability ratio", "single-path prefixes"});
  bool below_one = true;
  std::string measured;
  for (const auto as : focus_tier1()) {
    const auto result = core::analyze_path_availability(
        sim.looking_glass.at(as), as, p.exp.inference().inferred_graph);
    table.add_row({util::to_string(as),
                   std::to_string(result.customer_prefixes),
                   util::fmt(result.mean_available, 2),
                   util::fmt(result.mean_potential, 2),
                   util::fmt(result.availability_ratio, 3),
                   util::fmt_count_pct(
                       result.single_path_prefixes,
                       util::percent(result.single_path_prefixes,
                                     result.customer_prefixes))});
    below_one = below_one && result.availability_ratio < 1.0;
    add_value(measured, as, util::fmt(result.availability_ratio, 3));
  }
  std::cout << table.render("Available vs potential paths at the Tier-1s")
            << "\n";
  const auto prepending = core::analyze_prepending(sim.collector);
  std::cout << "AS-path prepending (Section 2.2.2 knob): "
            << prepending.prepended_routes << " of "
            << prepending.total_routes << " collector routes ("
            << util::fmt(prepending.percent_prepended, 2) << "%) from "
            << prepending.prepending_ases.size() << " distinct ASs";
  if (!prepending.depth_histogram.bins().empty()) {
    std::cout << "; depth histogram:";
    for (const auto& [depth, count] : prepending.depth_histogram.bins()) {
      std::cout << " " << depth << "x->" << count;
    }
  }
  std::cout << "\n\n";
  p.claims.push_back(
      {"Impact", "connectivity overstates reachability", measured,
       "availability ratio < 1 at each focus Tier-1", below_one});
}

/// Prints one line per claim and the known deviations' reasons; false
/// when a claim fails unlisted or a listed deviation holds or names no
/// claim.
bool report(const std::vector<Claim>& claims) {
  util::TextTable table(
      {"exhibit", "paper", "measured", "predicate", "verdict"});
  bool ok = true;
  for (const Claim& c : claims) {
    const bool listed = kKnownDeviations.contains(c.exhibit);
    const char* verdict = c.holds ? (listed ? "STALE DEVIATION" : "pass")
                                  : (listed ? "known deviation" : "FAIL");
    table.add_row({c.exhibit, c.paper, c.measured, c.predicate, verdict});
    ok = ok && c.holds != listed;
  }
  std::cout << table.render("Claims") << "\n";
  for (const auto& [exhibit, reason] : kKnownDeviations) {
    const bool claimed =
        std::any_of(claims.begin(), claims.end(),
                    [&](const Claim& c) { return c.exhibit == exhibit; });
    std::cout << "Known deviation, " << exhibit << ": " << reason
              << (claimed ? "" : " (NO SUCH CLAIM)") << "\n";
    ok = ok && claimed;
  }
  return ok;
}

}  // namespace

int main() {
  if constexpr (sanitizer_build()) {
    std::cout << "bench_paper: skipped in sanitizer builds (internet2002 is "
                 "too slow there)\n";
    return kSkipped;
  }
  std::cout << "[paper] running the internet2002 scenario through Analyze "
               "(topology + policies + propagation + inference + "
               "analyses)...\n";
  const auto start = std::chrono::steady_clock::now();
  core::Experiment experiment(core::Scenario::internet2002());
  experiment.run();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  const core::Experiment& exp = experiment;
  const auto& truth = exp.truth();
  const auto& inferred = exp.inference().inferred;
  const auto coverage = inferred.coverage_against(truth.topo.graph);
  const auto covered = [](const asrel::TypeCoverage& type) {
    return std::to_string(type.observed) + "/" + std::to_string(type.links) +
           " observed (" +
           util::fmt(util::percent(type.observed, type.links), 1) + "%), " +
           std::to_string(type.correct) + " correct";
  };
  std::cout << "[paper] " << truth.topo.graph.as_count() << " ASs, "
            << truth.originations.size() << " prefixes, "
            << exp.sim().sim.collector.route_count()
            << " collector routes; built in " << elapsed.count() << " ms\n"
            << "[paper] inference accuracy vs truth "
            << util::fmt(100.0 * inferred.accuracy_against(truth.topo.graph),
                         2)
            << "% over the classified links; p2c links "
            << covered(coverage.provider_customer) << "; p2p links "
            << covered(coverage.peer) << "\n\n";

  Paper p{.exp = exp, .view = exp.view()};
  for (const auto exhibit :
       {table1, table2, table3, fig2, table4, table5, table6, table7, fig6,
        fig7, table8, table9, table10, fig9, impact}) {
    exhibit(p);
  }
  bool ok = report(p.claims);
  if (!p.churn_modes_match) {
    std::cerr << "DELTA EQUIVALENCE FAILED: incremental and cold studies "
                 "diverged\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
