// The query kinds the policy-query service answers, their payload
// encodings, and the engine that evaluates them against one immutable
// Snapshot (serve/snapshot.h).
//
// Every answer is a *pure function* of (request payload, snapshot
// artifacts).  The artifacts themselves are byte-identical at any
// thread count (the repo-wide determinism contract), so a response is
// byte-identical whether it was computed by the daemon at --threads 16 or
// by calling `answer()` directly against library-built artifacts — the
// equivalence the end-to-end tests pin.
//
// Response payload shape (after the frame header, serve/frame.h):
//   u8 status            0 = ok, 1 = error
//   ok:    kind-specific body (docs/QUERY_SERVICE.md)
//   error: u32-length-prefixed message
//
// Payloads are written and read by the archive the artifact codec uses
// (io/archive.h), with u32 counts (u16 in the what-if request):
// ServerInfo, WhatIfResult, the what-if request, GaoParams, SaAnalysis and
// CausesAnalysis are their field lists.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "asrel/gao_inference.h"
#include "bgp/prefix.h"
#include "serve/snapshot.h"
#include "util/fields.h"
#include "util/ids.h"

namespace bgpolicy::serve {

enum class QueryKind : std::uint16_t {
  /// Snapshot identity: version, scenario, digests, corpus sizes.  The
  /// probe clients use to observe an atomic snapshot swap.
  kServerInfo = 1,
  /// SA-prevalence analysis of one vantage AS (paper Table 5): request
  /// u32 AS; response counters + the SA prefix list.
  kSaPrevalence = 2,
  /// Homing of one prefix (paper Table 8 flavor): request prefix; response
  /// the observed origin ASes with inferred provider counts.
  kHoming = 3,
  /// Cause attribution of one vantage's SA prefixes (paper Table 9):
  /// request u32 AS; response the Case-1/2/3 counters.
  kCauses = 4,
  /// Connectivity-vs-reachability for one looking-glass vantage (the
  /// paper's impact claim): request u32 AS; response availability means +
  /// histogram.
  kPathAvailability = 5,
  /// What-if re-inference: request client-supplied GaoParams; the server
  /// re-runs Infer against the snapshot's Observations and responds with
  /// the relationship/tier summary and its digest.
  kRerunInfer = 6,
  /// What-if session failure: request a vantage AS, hypothetical failed
  /// edges, and optional prefix filter; the server branches warm delta
  /// states off the snapshot's converged ground-truth routing
  /// (serve/what_if.h), applies the failures incrementally, and responds
  /// with the vantage's before/after route per prefix.
  kWhatIfFailure = 7,
};

/// Set on the kind field of every response frame (request kind | bit).
inline constexpr std::uint16_t kResponseBit = 0x8000;

[[nodiscard]] const char* to_string(QueryKind kind);
/// True for exactly the request kinds the engine can answer.
[[nodiscard]] bool known_kind(std::uint16_t kind);

/// Status byte leading every response payload.
enum class QueryStatus : std::uint8_t { kOk = 0, kError = 1 };

// ---------------------------------------------------------------- requests --
// Client-side request payload builders (the daemon decodes these).

[[nodiscard]] std::vector<std::uint8_t> encode_server_info_request();
/// kSaPrevalence / kCauses / kPathAvailability: one u32 AS number.
[[nodiscard]] std::vector<std::uint8_t> encode_as_request(util::AsNumber as);
/// kHoming: u32 network + u8 length.
[[nodiscard]] std::vector<std::uint8_t> encode_prefix_request(
    const bgp::Prefix& prefix);
/// kRerunInfer: the GaoParams knobs (threads excluded — worker counts
/// never change products, so they are not part of the query identity).
[[nodiscard]] std::vector<std::uint8_t> encode_infer_request(
    const asrel::GaoParams& params);
/// A kWhatIfFailure request; its counts are u16 on the wire: u32 vantage,
/// u16 edge count + (u32, u32) per failed session, u16 prefix count +
/// (u32 network, u8 length) per prefix.
struct WhatIfRequest {
  util::AsNumber vantage;
  std::vector<std::pair<util::AsNumber, util::AsNumber>> edges;
  /// Empty means "every originated prefix".
  std::vector<bgp::Prefix> prefixes;
};

template <typename V>
constexpr void fields(V& v, WhatIfRequest& r) {
  v("vantage", r.vantage);
  v("edges", r.edges);
  v("prefixes", r.prefixes);
}
static_assert(util::lists_every_member<WhatIfRequest>());

/// kWhatIfFailure: a WhatIfRequest of these parts.
[[nodiscard]] std::vector<std::uint8_t> encode_what_if_request(
    util::AsNumber vantage,
    std::span<const std::pair<util::AsNumber, util::AsNumber>> edges,
    std::span<const bgp::Prefix> prefixes = {});

// --------------------------------------------------------------- responses --

/// Decoded kServerInfo response body.
struct ServerInfo {
  std::uint64_t version = 0;
  std::string scenario_name;
  std::string scenario_key;
  std::string analyses_digest;
  std::uint64_t vantage_count = 0;
  std::uint64_t observed_paths = 0;
  std::uint64_t inferred_edges = 0;
};

template <typename V>
constexpr void fields(V& v, ServerInfo& i) {
  v("version", i.version);
  v("scenario_name", i.scenario_name);
  v("scenario_key", i.scenario_key);
  v("analyses_digest", i.analyses_digest);
  v("vantage_count", i.vantage_count);
  v("observed_paths", i.observed_paths);
  v("inferred_edges", i.inferred_edges);
}
static_assert(util::lists_every_member<ServerInfo>());

/// Splits a response payload into (status, body); nullopt when the payload
/// is empty.  On kError the body is the message string.
struct ResponseView {
  QueryStatus status = QueryStatus::kOk;
  std::span<const std::uint8_t> body;
};
[[nodiscard]] std::optional<ResponseView> split_response(
    std::span<const std::uint8_t> payload);

/// A kError response payload carrying `message`.
[[nodiscard]] std::vector<std::uint8_t> error_response(
    std::string_view message);

/// Decodes the error message of a kError response body (empty on defect).
[[nodiscard]] std::string decode_error(std::span<const std::uint8_t> body);

/// Decodes a kServerInfo ok-body; nullopt on malformed bytes.
[[nodiscard]] std::optional<ServerInfo> decode_server_info(
    std::span<const std::uint8_t> body);

/// One side (before or after) of a what-if entry.
struct WhatIfRouteState {
  bool reachable = false;
  std::uint32_t via = 0;          // next-hop AS (origin itself when local)
  std::uint32_t origin = 0;       // originating AS
  std::uint32_t path_length = 0;  // AS-path length (prepends included)
  friend bool operator==(const WhatIfRouteState&,
                         const WhatIfRouteState&) = default;
};

template <typename V>
constexpr void fields(V& v, WhatIfRouteState& s) {
  v("reachable", s.reachable);
  v("via", s.via);
  v("origin", s.origin);
  v("path_length", s.path_length);
}
static_assert(util::lists_every_member<WhatIfRouteState>());

/// Before/after route of the vantage for one prefix.
struct WhatIfEntry {
  bgp::Prefix prefix;
  WhatIfRouteState before;
  WhatIfRouteState after;
  /// True when the full route changed (not just the summarized fields).
  bool changed = false;
};

template <typename V>
constexpr void fields(V& v, WhatIfEntry& e) {
  v("prefix", e.prefix);
  v("before", e.before);
  v("after", e.after);
  v("changed", e.changed);
}
static_assert(util::lists_every_member<WhatIfEntry>());

/// Decoded kWhatIfFailure ok-body.
struct WhatIfResult {
  std::uint32_t vantage = 0;
  std::uint32_t edge_count = 0;
  std::vector<WhatIfEntry> entries;
  /// Total delta-wave process events spent answering (an effort measure:
  /// how much of the network the hypothetical failures actually touched).
  std::uint64_t wave_events = 0;
  std::uint32_t reachable_before = 0;
  std::uint32_t reachable_after = 0;
};

template <typename V>
constexpr void fields(V& v, WhatIfResult& r) {
  v("vantage", r.vantage);
  v("edge_count", r.edge_count);
  v("entries", r.entries);
  v("wave_events", r.wave_events);
  v("reachable_before", r.reachable_before);
  v("reachable_after", r.reachable_after);
}
static_assert(util::lists_every_member<WhatIfResult>());

/// Decodes a kWhatIfFailure ok-body; nullopt on malformed bytes.
[[nodiscard]] std::optional<WhatIfResult> decode_what_if(
    std::span<const std::uint8_t> body);

// ------------------------------------------------------------------ engine --

/// Evaluates one request against one snapshot and returns the response
/// payload (status byte + body).  Never throws: request-payload defects
/// and unknown vantages become kError responses.  Pure — equal (kind,
/// request, snapshot artifacts) always produce equal bytes, which is the
/// serving half of the determinism contract.
[[nodiscard]] std::vector<std::uint8_t> answer(
    QueryKind kind, std::span<const std::uint8_t> request,
    const Snapshot& snapshot);

}  // namespace bgpolicy::serve
