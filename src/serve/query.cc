#include "serve/query.h"

#include <algorithm>
#include <array>
#include <exception>
#include <unordered_set>
#include <utility>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "bgp/decision.h"
#include "core/artifact_store.h"
#include "core/path_availability.h"
#include "io/archive.h"
#include "sim/delta_engine.h"

namespace bgpolicy::serve {

namespace {

using util::AsNumber;
/// Every payload's archive: counts and lengths are u32 (io/archive.h).
using Wire = io::Writer<std::uint32_t>;
using WireCount = std::uint32_t;

/// A response payload holding just its status byte; the body follows.
std::vector<std::uint8_t> response(QueryStatus status) {
  return {static_cast<std::uint8_t>(status)};
}

/// The kOk status byte, then `body`'s fields.
template <typename T>
std::vector<std::uint8_t> ok_response(const T& body) {
  std::vector<std::uint8_t> out = response(QueryStatus::kOk);
  Wire(out).write(body);
  return out;
}

std::vector<std::uint8_t> answer_server_info(const Snapshot& snapshot) {
  return ok_response(ServerInfo{
      snapshot.version, snapshot.scenario_name, snapshot.scenario_key,
      snapshot.analyses_digest, snapshot.analyses.vantages.size(),
      snapshot.observations.paths.path_count(),
      snapshot.inference.inferred.edge_count()});
}

/// kSaPrevalence and kCauses: `part` of the requested vantage's analyses
/// (paper Tables 5 and 9), as its field list.
template <typename Part>
std::vector<std::uint8_t> answer_analysis(
    std::span<const std::uint8_t> request, const Snapshot& snapshot,
    Part core::VantageAnalysis::*part) {
  const auto vantage = io::read_fields<AsNumber, WireCount>(request);
  const core::VantageAnalysis* analysis = snapshot.analyses.find(vantage);
  if (analysis == nullptr) {
    return error_response("no analysis recorded for AS " +
                          util::to_string(vantage));
  }
  return ok_response(analysis->*part);
}

std::vector<std::uint8_t> answer_homing(std::span<const std::uint8_t> request,
                                        const Snapshot& snapshot) {
  const auto prefix = io::read_fields<bgp::Prefix, WireCount>(request);

  // Observed origins of the prefix (rightmost hop of every indexed path),
  // classified by provider count in the *inferred* graph — multihomed at
  // >= 2 providers, the paper's Table 8 criterion.  Several origins means
  // MOAS/anycast.
  std::vector<AsNumber> origins;
  for (const auto path : snapshot.observations.paths.paths_for_prefix(prefix)) {
    if (!path.empty()) origins.push_back(path.back());
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  if (origins.empty()) {
    return error_response("prefix " + prefix.to_string() +
                          " not observed in any indexed path");
  }
  std::vector<std::uint8_t> out = response(QueryStatus::kOk);
  Wire body(out);
  body.put_count(origins.size());
  for (const AsNumber origin : origins) {
    const std::size_t providers =
        snapshot.inference.inferred_graph.providers(origin).size();
    body.write(origin);
    body.put(static_cast<std::uint32_t>(providers));
    body.write(providers >= 2);
  }
  return out;
}

std::vector<std::uint8_t> answer_path_availability(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  const auto vantage = io::read_fields<AsNumber, WireCount>(request);
  const auto it = snapshot.sim.sim.looking_glass.find(vantage);
  if (it == snapshot.sim.sim.looking_glass.end()) {
    return error_response("AS " + util::to_string(vantage) +
                          " is not a looking-glass vantage");
  }
  const core::PathAvailability availability = core::analyze_path_availability(
      it->second, vantage, snapshot.inference.inferred_graph);
  std::vector<std::uint8_t> out = response(QueryStatus::kOk);
  Wire body(out);
  body.write(availability.vantage);
  body.put(static_cast<std::uint64_t>(availability.customer_prefixes));
  body.put(availability.mean_available);
  body.put(availability.mean_potential);
  body.put(availability.availability_ratio);
  body.put(static_cast<std::uint64_t>(availability.single_path_prefixes));
  const auto& bins = availability.available_histogram.bins();
  body.put_count(bins.size());
  for (const auto& [key, weight] : bins) {
    body.put(static_cast<std::int64_t>(key));
    body.put(static_cast<std::uint64_t>(weight));
  }
  return out;
}

std::vector<std::uint8_t> answer_rerun_infer(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  auto params = io::read_fields<asrel::GaoParams, WireCount>(request);
  // Worker knobs never change products (determinism contract); one query
  // runs sequentially rather than spinning a pool per request.
  params.threads = 1;

  const core::InferenceProducts products =
      core::infer_relationships(snapshot.observations, params);

  std::array<std::uint64_t, 4> edge_counts{};
  products.inferred.for_each(
      [&](AsNumber, AsNumber, asrel::EdgeType type) {
        ++edge_counts[static_cast<std::size_t>(type)];
      });
  std::array<std::uint64_t, 4> level_counts{};
  for (const auto& [as, level] : products.tiers.level) {
    if (level >= 1 && level <= 4) ++level_counts[level - 1];
  }
  const std::string digest =
      core::stable_digest_hex(asrel::canonical_serialize(products.inferred) +
                              asrel::canonical_serialize(products.tiers));

  std::vector<std::uint8_t> out = response(QueryStatus::kOk);
  Wire body(out);
  body.put(static_cast<std::uint64_t>(products.inferred.edge_count()));
  for (const std::uint64_t count : edge_counts) body.put(count);
  body.write(products.tiers.tier1);
  for (const std::uint64_t count : level_counts) body.put(count);
  body.write(digest);
  return out;
}

std::vector<std::uint8_t> answer_what_if_failure(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  const auto [vantage, edges, filter] =
      io::read_fields<WhatIfRequest, std::uint16_t>(request);

  if (snapshot.what_if == nullptr) {
    return error_response("snapshot has no what-if substrate");
  }
  if (edges.empty()) {
    return error_response("what_if_failure requires at least one edge");
  }
  const core::GroundTruth& truth = snapshot.what_if->truth();
  const topo::AsGraph& graph = truth.topo.graph;
  if (!graph.contains(vantage)) {
    return error_response("AS " + util::to_string(vantage) +
                          " not in ground-truth graph");
  }
  for (const auto& [a, b] : edges) {
    if (!graph.contains(a) || !graph.contains(b)) {
      return error_response("edge endpoint AS " +
                            util::to_string(graph.contains(a) ? b : a) +
                            " not in ground-truth graph");
    }
  }

  // Distinct target prefixes in origination order — the deterministic
  // response order (MOAS prefixes appear once, candidates merged below).
  const std::unordered_set<bgp::Prefix> wanted(filter.begin(), filter.end());
  std::vector<const WhatIfBase::Target*> targets;
  for (const WhatIfBase::Target& target : snapshot.what_if->targets()) {
    if (wanted.empty() || wanted.contains(target.prefix)) {
      targets.push_back(&target);
    }
  }
  if (targets.empty()) {
    return error_response("no matching origination in snapshot");
  }

  sim::Perturbation perturbation;
  perturbation.fail_edges = edges;
  const sim::DeltaEngine& engine = snapshot.what_if->engine();
  sim::FlatScratch scratch;
  sim::DeltaState branch;

  const auto summarize = [](const std::optional<bgp::Route>& route) {
    WhatIfRouteState s;
    if (route.has_value()) {
      s.reachable = true;
      s.via = route->next_hop_as().value_or(route->learned_from).value();
      s.origin = route->origin_as().value();
      s.path_length = static_cast<std::uint32_t>(route->path.length());
    }
    return s;
  };

  WhatIfResult result;
  result.vantage = vantage.value();
  result.edge_count = static_cast<std::uint32_t>(edges.size());
  result.entries.reserve(targets.size());
  for (const WhatIfBase::Target* target : targets) {
    // MOAS: every active origination of the prefix contributes one
    // candidate per world; decision-process tie-break across them (the
    // same merge core/spec_verify.cc's Timeline does).
    std::vector<bgp::Route> before_cands;
    std::vector<bgp::Route> after_cands;
    for (const std::size_t i : target->originations) {
      const std::shared_ptr<const sim::DeltaState> base =
          snapshot.what_if->base_state(i);
      if (auto route = engine.route_at(*base, vantage)) {
        before_cands.push_back(std::move(*route));
      }
      // Branch a private deep copy and fail the sessions incrementally;
      // the shared base stays pristine for the next query.
      branch.assign_from(*base);
      result.wave_events += engine.apply(branch, perturbation, scratch).events;
      if (auto route = engine.route_at(branch, vantage)) {
        after_cands.push_back(std::move(*route));
      }
    }
    const auto pick = [](std::vector<bgp::Route>& cands)
        -> std::optional<bgp::Route> {
      if (cands.empty()) return std::nullopt;
      const auto winner = bgp::select_best(cands);
      return cands[winner.value_or(0)];
    };
    const std::optional<bgp::Route> before = pick(before_cands);
    const std::optional<bgp::Route> after = pick(after_cands);
    if (before.has_value()) ++result.reachable_before;
    if (after.has_value()) ++result.reachable_after;
    result.entries.push_back(
        {target->prefix, summarize(before), summarize(after), before != after});
  }
  return ok_response(result);
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kServerInfo:
      return "server_info";
    case QueryKind::kSaPrevalence:
      return "sa_prevalence";
    case QueryKind::kHoming:
      return "homing";
    case QueryKind::kCauses:
      return "causes";
    case QueryKind::kPathAvailability:
      return "path_availability";
    case QueryKind::kRerunInfer:
      return "rerun_infer";
    case QueryKind::kWhatIfFailure:
      return "what_if_failure";
  }
  return "unknown";
}

bool known_kind(std::uint16_t kind) {
  return kind >= static_cast<std::uint16_t>(QueryKind::kServerInfo) &&
         kind <= static_cast<std::uint16_t>(QueryKind::kWhatIfFailure);
}

std::vector<std::uint8_t> encode_server_info_request() { return {}; }

std::vector<std::uint8_t> encode_as_request(util::AsNumber as) {
  return io::write_fields<WireCount>(as);
}

std::vector<std::uint8_t> encode_prefix_request(const bgp::Prefix& prefix) {
  return io::write_fields<WireCount>(prefix);
}

std::vector<std::uint8_t> encode_infer_request(
    const asrel::GaoParams& params) {
  return io::write_fields<WireCount>(params);
}

std::vector<std::uint8_t> encode_what_if_request(
    util::AsNumber vantage,
    std::span<const std::pair<util::AsNumber, util::AsNumber>> edges,
    std::span<const bgp::Prefix> prefixes) {
  return io::write_fields<std::uint16_t>(WhatIfRequest{
      vantage, {edges.begin(), edges.end()}, {prefixes.begin(), prefixes.end()}});
}

std::optional<ResponseView> split_response(
    std::span<const std::uint8_t> payload) {
  if (payload.empty()) return std::nullopt;
  ResponseView view;
  if (payload[0] == static_cast<std::uint8_t>(QueryStatus::kOk)) {
    view.status = QueryStatus::kOk;
  } else if (payload[0] == static_cast<std::uint8_t>(QueryStatus::kError)) {
    view.status = QueryStatus::kError;
  } else {
    return std::nullopt;
  }
  view.body = payload.subspan(1);
  return view;
}

namespace {

/// The T a response body holds, or nullopt on malformed bytes.
template <typename T>
std::optional<T> decode_body(std::span<const std::uint8_t> body) {
  try {
    return io::read_fields<T, WireCount>(body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::vector<std::uint8_t> error_response(std::string_view message) {
  std::vector<std::uint8_t> out = response(QueryStatus::kError);
  Wire(out).write(std::string(message));
  return out;
}

std::string decode_error(std::span<const std::uint8_t> body) {
  return decode_body<std::string>(body).value_or(std::string());
}

std::optional<ServerInfo> decode_server_info(
    std::span<const std::uint8_t> body) {
  return decode_body<ServerInfo>(body);
}

std::optional<WhatIfResult> decode_what_if(
    std::span<const std::uint8_t> body) {
  return decode_body<WhatIfResult>(body);
}

std::vector<std::uint8_t> answer(QueryKind kind,
                                 std::span<const std::uint8_t> request,
                                 const Snapshot& snapshot) {
  try {
    switch (kind) {
      case QueryKind::kServerInfo:
        io::Reader<WireCount>(request).expect_end();
        return answer_server_info(snapshot);
      case QueryKind::kSaPrevalence:
        return answer_analysis(request, snapshot, &core::VantageAnalysis::sa);
      case QueryKind::kHoming:
        return answer_homing(request, snapshot);
      case QueryKind::kCauses:
        return answer_analysis(request, snapshot,
                               &core::VantageAnalysis::causes);
      case QueryKind::kPathAvailability:
        return answer_path_availability(request, snapshot);
      case QueryKind::kRerunInfer:
        return answer_rerun_infer(request, snapshot);
      case QueryKind::kWhatIfFailure:
        return answer_what_if_failure(request, snapshot);
    }
    return error_response("unknown query kind");
  } catch (const std::exception& error) {
    return error_response(error.what());
  }
}

}  // namespace bgpolicy::serve
