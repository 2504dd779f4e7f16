#include "core/spec_verify.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "bgp/decision.h"
#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "io/artifact_codec.h"
#include "sim/delta_engine.h"
#include "sim/propagation.h"

namespace bgpolicy::core {

std::size_t VerifyReport::failure_count() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const CheckResult& r) { return !r.passed; }));
}

namespace {

std::string fmt_pct(double value) {
  std::ostringstream out;
  out.precision(4);
  out << value;
  return out.str();
}

std::string path_to_string(std::span<const std::uint32_t> path) {
  std::string out;
  for (const std::uint32_t as : path) {
    if (!out.empty()) out += ' ';
    out += std::to_string(as);
  }
  return out;
}

// ------------------------------------------------------ event timeline --

/// Steps the spec's event script, exposing the world (failed edges +
/// active originations) after the first k events.
///
/// Converged per-origination states are cached across `advance_to` calls:
/// the first query of an origination cold-converges a warm
/// `sim::DeltaState`; later timeline points re-sync it by applying only
/// the edge-set delta between the state's failure world and the current
/// one (sim/delta_engine.h) instead of re-running the full fixpoint.  A
/// withdraw drops the cached state; a re-announce cold-converges afresh.
class Timeline {
 public:
  Timeline(const ScenarioSpec& spec, const GroundTruth& truth)
      : spec_(spec),
        engine_(truth.topo.graph, truth.gen.policies,
                spec.scenario.propagation),
        active_(truth.originations) {}

  /// Advances to the world after `k` events; `k` must be non-decreasing
  /// across calls (the evaluator sorts checks by timeline point).
  void advance_to(std::size_t k) {
    while (applied_ < k && applied_ < spec_.events.size()) {
      apply(spec_.events[applied_]);
      ++applied_;
    }
  }

  /// The winning route for `prefix` at `vantage` in the current world, or
  /// nullopt when unreachable.  Candidates come from every active
  /// origination of the prefix (independent fixpoints; decision-process
  /// tie-break across them — the MOAS approximation).
  [[nodiscard]] std::optional<bgp::Route> best_route(std::uint32_t vantage,
                                                     const bgp::Prefix& prefix) {
    std::vector<bgp::Route> candidates;
    for (const sim::Origination& origination : active_) {
      if (origination.prefix != prefix) continue;
      const sim::DeltaState& state = state_for(origination);
      if (auto route = engine_.route_at(state, util::AsNumber(vantage))) {
        candidates.push_back(std::move(*route));
      }
    }
    if (candidates.empty()) return std::nullopt;
    const auto winner = bgp::select_best(candidates);
    return candidates[winner.value_or(0)];
  }

 private:
  // (network << 8 | length, origin) — the cache key of one origination.
  using StateKey = std::pair<std::uint64_t, std::uint32_t>;

  static StateKey key_of(const sim::Origination& o) {
    return {(static_cast<std::uint64_t>(o.prefix.network()) << 8) |
                o.prefix.length(),
            o.origin.value()};
  }

  /// The cached converged state of `origination`, re-synced to the current
  /// failure world via the edge-set delta.
  const sim::DeltaState& state_for(const sim::Origination& origination) {
    auto& slot = states_[key_of(origination)];
    if (slot == nullptr) {
      slot = std::make_unique<sim::DeltaState>();
      engine_.converge(origination, &failed_, *slot, scratch_);
    } else {
      const sim::Perturbation delta =
          sim::Perturbation::edge_delta(slot->failed(), failed_);
      if (!delta.empty()) (void)engine_.apply(*slot, delta, scratch_);
    }
    return *slot;
  }

  void apply(const SpecEvent& event) {
    switch (event.kind) {
      case SpecEvent::Kind::kWithdraw: {
        const sim::Origination o{event.prefix, util::AsNumber(event.as_a)};
        std::erase_if(active_, [&](const sim::Origination& a) {
          return a.prefix == o.prefix && a.origin == o.origin;
        });
        states_.erase(key_of(o));
        break;
      }
      case SpecEvent::Kind::kAnnounce: {
        const sim::Origination o{event.prefix, util::AsNumber(event.as_a)};
        if (std::find(active_.begin(), active_.end(), o) == active_.end()) {
          active_.push_back(o);
        }
        break;
      }
      case SpecEvent::Kind::kFailLink:
        failed_.fail(util::AsNumber(event.as_a), util::AsNumber(event.as_b));
        break;
      case SpecEvent::Kind::kRestoreLink:
        failed_.restore(util::AsNumber(event.as_a),
                        util::AsNumber(event.as_b));
        break;
    }
  }

  const ScenarioSpec& spec_;
  sim::DeltaEngine engine_;
  sim::FailedEdges failed_;
  std::vector<sim::Origination> active_;
  std::map<StateKey, std::unique_ptr<sim::DeltaState>> states_;
  sim::FlatScratch scratch_;
  std::size_t applied_ = 0;
};

bool is_route_check(const SpecCheck& check) {
  switch (check.kind) {
    case SpecCheck::Kind::kRouteVia:
    case SpecCheck::Kind::kRouteOrigin:
    case SpecCheck::Kind::kRoutePath:
    case SpecCheck::Kind::kUnreachable:
      return true;
    default:
      return false;
  }
}

CheckResult eval_route_check(const SpecCheck& check, Timeline& timeline) {
  CheckResult result{check, false, ""};
  const std::optional<bgp::Route> route =
      timeline.best_route(check.vantage, check.prefix);

  if (check.kind == SpecCheck::Kind::kUnreachable) {
    result.passed = !route.has_value();
    result.detail =
        result.passed
            ? "no route, as asserted"
            : "expected no route, but AS " + std::to_string(check.vantage) +
                  " holds one via " +
                  std::to_string(
                      route->next_hop_as().value_or(route->learned_from)
                          .value());
    return result;
  }
  if (!route) {
    result.detail = "AS " + std::to_string(check.vantage) +
                    " has no route to " + check.prefix.to_string();
    return result;
  }
  switch (check.kind) {
    case SpecCheck::Kind::kRouteVia: {
      const std::uint32_t via =
          route->next_hop_as().value_or(route->learned_from).value();
      result.passed = via == check.expect_as;
      result.detail = "expected via " + std::to_string(check.expect_as) +
                      ", observed via " + std::to_string(via);
      break;
    }
    case SpecCheck::Kind::kRouteOrigin: {
      const std::uint32_t origin = route->origin_as().value();
      result.passed = origin == check.expect_as;
      result.detail = "expected origin " + std::to_string(check.expect_as) +
                      ", observed origin " + std::to_string(origin);
      break;
    }
    case SpecCheck::Kind::kRoutePath: {
      std::vector<std::uint32_t> hops;
      hops.reserve(route->path.length());
      for (const util::AsNumber as : route->path.hops()) {
        hops.push_back(as.value());
      }
      result.passed = hops == check.expect_path;
      result.detail = "expected path [" + path_to_string(check.expect_path) +
                      "], observed [" + path_to_string(hops) + "]";
      break;
    }
    default:
      break;
  }
  return result;
}

// ------------------------------------------------- analysis assertions --

CheckResult eval_bounds(const SpecCheck& check, const char* metric,
                        std::optional<double> observed) {
  CheckResult result{check, false, ""};
  if (!observed) {
    result.detail = std::string(metric) + " unavailable at vantage " +
                    std::to_string(check.vantage) +
                    " (no recorded table, or not a looking glass)";
    return result;
  }
  result.passed = *observed >= check.lo && *observed <= check.hi;
  result.detail = std::string(metric) + " = " + fmt_pct(*observed) +
                  "%, bounds [" + fmt_pct(check.lo) + ", " +
                  fmt_pct(check.hi) + "]";
  return result;
}

CheckResult eval_analysis_check(const SpecCheck& check,
                                Experiment& experiment) {
  const VantageAnalysis* analysis =
      experiment.analyses().find(util::AsNumber(check.vantage));
  std::optional<double> observed;
  const char* metric = "";
  switch (check.kind) {
    case SpecCheck::Kind::kSaPrevalence:
      metric = "SA prevalence";
      if (analysis) observed = analysis->sa.percent_sa;
      break;
    case SpecCheck::Kind::kHomingMultihomed:
      metric = "multihomed share";
      if (analysis) observed = analysis->homing.percent_multihomed;
      break;
    case SpecCheck::Kind::kImportTypical:
      metric = "import typicality";
      if (analysis && analysis->import_typicality) {
        observed = analysis->import_typicality->percent_typical;
      }
      break;
    default:
      break;
  }
  return eval_bounds(check, metric, observed);
}

CheckResult eval_digest_check(const SpecCheck& check, Experiment& experiment) {
  CheckResult result{check, false, ""};
  std::vector<std::uint8_t> bytes;
  switch (check.stage) {
    case Stage::kSynthesize: bytes = io::encode(experiment.truth()); break;
    case Stage::kSimulate: bytes = io::encode(experiment.sim()); break;
    case Stage::kObserve: bytes = io::encode(experiment.observations()); break;
    case Stage::kInfer: bytes = io::encode(experiment.inference()); break;
    case Stage::kAnalyze: bytes = io::encode(experiment.analyses()); break;
  }
  const std::string observed = store_digest_hex(bytes);
  result.passed = observed == check.digest;
  result.detail = std::string(to_string(check.stage)) +
                  " digest = " + observed + ", pinned " + check.digest;
  return result;
}

}  // namespace

std::string describe_check(const SpecCheck& check) {
  const auto at_suffix = [&]() -> std::string {
    return check.at_event == SpecCheck::kAtEnd
               ? ""
               : " at " + std::to_string(check.at_event);
  };
  switch (check.kind) {
    case SpecCheck::Kind::kConverged:
      return "converged";
    case SpecCheck::Kind::kRouteVia:
      return "route " + std::to_string(check.vantage) + " " +
             check.prefix.to_string() + " via " +
             std::to_string(check.expect_as) + at_suffix();
    case SpecCheck::Kind::kRouteOrigin:
      return "route " + std::to_string(check.vantage) + " " +
             check.prefix.to_string() + " origin " +
             std::to_string(check.expect_as) + at_suffix();
    case SpecCheck::Kind::kRoutePath:
      return "route " + std::to_string(check.vantage) + " " +
             check.prefix.to_string() + " path " +
             path_to_string(check.expect_path) + at_suffix();
    case SpecCheck::Kind::kUnreachable:
      return "unreachable " + std::to_string(check.vantage) + " " +
             check.prefix.to_string() + at_suffix();
    case SpecCheck::Kind::kSaPrevalence:
      return "sa_prevalence " + std::to_string(check.vantage) + " [" +
             fmt_pct(check.lo) + ", " + fmt_pct(check.hi) + "]";
    case SpecCheck::Kind::kHomingMultihomed:
      return "homing_multihomed " + std::to_string(check.vantage) + " [" +
             fmt_pct(check.lo) + ", " + fmt_pct(check.hi) + "]";
    case SpecCheck::Kind::kImportTypical:
      return "import_typical " + std::to_string(check.vantage) + " [" +
             fmt_pct(check.lo) + ", " + fmt_pct(check.hi) + "]";
    case SpecCheck::Kind::kInferenceAccuracy:
      return "inference_accuracy >= " + fmt_pct(check.lo);
    case SpecCheck::Kind::kDigest:
      return std::string("digest ") + to_string(check.stage) + " " +
             check.digest;
  }
  return "?";
}

VerifyReport run_spec_checks(const ScenarioSpec& spec,
                             Experiment& experiment) {
  VerifyReport report;
  report.source = spec.source;
  report.results.resize(spec.checks.size());

  // Route-level checks are evaluated along the (single, forward-stepping)
  // event timeline, grouped by timeline point; everything else is
  // evaluated directly against the experiment's artifacts.
  std::map<std::size_t, std::vector<std::size_t>> by_point;
  for (std::size_t i = 0; i < spec.checks.size(); ++i) {
    const SpecCheck& check = spec.checks[i];
    if (is_route_check(check)) {
      const std::size_t point = check.at_event == SpecCheck::kAtEnd
                                    ? spec.events.size()
                                    : check.at_event;
      by_point[point].push_back(i);
      continue;
    }
    CheckResult result{check, false, ""};
    switch (check.kind) {
      case SpecCheck::Kind::kConverged: {
        const std::size_t unconverged = experiment.sim().sim.unconverged_prefixes;
        result.passed = unconverged == 0;
        result.detail = result.passed
                            ? "all prefixes converged"
                            : std::to_string(unconverged) +
                                  " prefix(es) failed to converge";
        break;
      }
      case SpecCheck::Kind::kSaPrevalence:
      case SpecCheck::Kind::kHomingMultihomed:
      case SpecCheck::Kind::kImportTypical:
        result = eval_analysis_check(check, experiment);
        break;
      case SpecCheck::Kind::kInferenceAccuracy: {
        const double accuracy =
            experiment.inference().inferred.accuracy_against(
                experiment.truth().topo.graph) *
            100.0;
        result.passed = accuracy >= check.lo;
        result.detail = "relationship accuracy = " + fmt_pct(accuracy) +
                        "%, floor " + fmt_pct(check.lo) + "%";
        break;
      }
      case SpecCheck::Kind::kDigest:
        result = eval_digest_check(check, experiment);
        break;
      default:
        break;
    }
    report.results[i] = std::move(result);
  }

  if (!by_point.empty()) {
    Timeline timeline(spec, experiment.truth());
    for (const auto& [point, indices] : by_point) {
      timeline.advance_to(point);
      for (const std::size_t i : indices) {
        report.results[i] = eval_route_check(spec.checks[i], timeline);
      }
    }
  }
  return report;
}

}  // namespace bgpolicy::core
