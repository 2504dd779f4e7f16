#include "core/analysis_suite.h"

#include <algorithm>

#include "util/parallel.h"

namespace bgpolicy::core {

namespace {

VantageAnalysis analyze_vantage(const ExperimentView& view, AsNumber as) {
  VantageAnalysis out;
  out.vantage = as;
  const bgp::BgpTable& table = view.table_for(as);
  const RelationshipOracle rels = view.inferred_oracle();

  out.sa = infer_sa_prefixes(table, as, *view.inferred_graph, rels);
  out.homing = analyze_homing(out.sa, *view.inferred_graph);
  out.causes =
      analyze_causes(out.sa, table, *view.paths, *view.inferred_graph, rels);

  if (view.sim->looking_glass.contains(as)) {
    out.looking_glass = true;
    out.import_typicality = analyze_import_typicality(table, rels);
    out.sa_verification = verify_sa_prefixes(
        out.sa, *view.paths, view.community_verified_neighbors(as), rels);
  }
  return out;
}

void append_counter(std::string& out, const char* name, std::size_t value) {
  out += ' ';
  out += name;
  out += '=';
  out += std::to_string(value);
}

}  // namespace

const VantageAnalysis* AnalysisSuite::find(AsNumber as) const {
  for (const VantageAnalysis& v : vantages) {
    if (v.vantage == as) return &v;
  }
  return nullptr;
}

std::vector<AsNumber> recorded_vantages(const sim::SimResult& sim) {
  std::vector<AsNumber> out;
  out.reserve(sim.looking_glass.size() + sim.best_only.size());
  for (const auto& [as, table] : sim.looking_glass) out.push_back(as);
  for (const auto& [as, table] : sim.best_only) out.push_back(as);
  std::sort(out.begin(), out.end());
  return out;
}

AnalysisSuite run_analysis_suite(const ExperimentView& view,
                                 std::span<const AsNumber> vantages,
                                 std::size_t threads,
                                 const util::Executor* executor) {
  AnalysisSuite suite;
  suite.vantages.reserve(vantages.size());
  // Each vantage's bundle reads only the immutable view; merging in
  // vantage order makes the suite independent of scheduling.
  std::unique_ptr<util::Executor> owned;
  const util::Executor& exec =
      util::executor_or(executor, threads, vantages.size(), owned);
  util::shard_and_merge(
      exec, vantages.size(),
      [&](std::size_t i) { return analyze_vantage(view, vantages[i]); },
      [&](std::size_t, VantageAnalysis& bundle) {
        suite.vantages.push_back(std::move(bundle));
      });
  return suite;
}

std::string canonical_serialize(const AnalysisSuite& suite) {
  std::string out;
  for (const VantageAnalysis& v : suite.vantages) {
    out += "as=";
    out += std::to_string(v.vantage.value());
    append_counter(out, "lg", v.looking_glass ? 1 : 0);
    append_counter(out, "sa_customer_prefixes", v.sa.customer_prefixes);
    append_counter(out, "sa_count", v.sa.sa_count);
    append_counter(out, "homing_multi", v.homing.multihomed_ases);
    append_counter(out, "homing_single", v.homing.singlehomed_ases);
    append_counter(out, "causes_splitting", v.causes.splitting);
    append_counter(out, "causes_aggregating", v.causes.aggregating);
    append_counter(out, "causes_identified", v.causes.identified);
    append_counter(out, "causes_announce", v.causes.announce_to_direct);
    append_counter(out, "causes_withheld", v.causes.withheld_from_direct);
    if (v.import_typicality) {
      append_counter(out, "import_comparable",
                     v.import_typicality->comparable_prefixes);
      append_counter(out, "import_typical",
                     v.import_typicality->typical_prefixes);
    }
    if (v.sa_verification) {
      append_counter(out, "verify_total", v.sa_verification->sa_total);
      append_counter(out, "verify_ok", v.sa_verification->verified);
      append_counter(out, "verify_step1_fail",
                     v.sa_verification->step1_failures);
      append_counter(out, "verify_step2_fail",
                     v.sa_verification->step2_failures);
    }
    out += '\n';
  }
  return out;
}

}  // namespace bgpolicy::core
