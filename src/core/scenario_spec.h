// The `.scn` scenario spec language: a small line-oriented declarative
// format that maps onto `core::Scenario`, plus event scripts and
// expected-property assertions — so growing scenario diversity is a
// data-file PR with an executable test, not a code PR.
//
//   scenario my-world
//   base small 42            # start from a constructor (default | small |
//                            # internet2002), optional seed
//   topology  { ... }        # generator knobs, or `explicit` AS/link lists
//   prefixes  { ... }        # allocation knobs, or explicit originations
//   policy    { ... }        # policy-generation + IRR knobs
//   vantage   { ... }        # looking-glass / best-only / verification sets
//   override  { ... }        # per-AS policy edits (core::PolicyOverride)
//   events    { ... }        # withdraw / announce / fail / restore script
//   verify    { ... }        # assertions evaluated against the experiment
//
// Full grammar and semantics: docs/SCENARIOS.md.  Parsing is strict —
// unknown keys, duplicate scalar keys, malformed values, and out-of-range
// numbers are errors carrying exact line/column positions (SpecError), so
// a failing corpus file names the offending token.  Every scalar knob of
// the topology/prefixes/policy/vantage blocks is one row of a table in
// scenario_spec.cc that the parser, dump() and `scenario_cache_key` (the
// scenario's canonical text) all read, so a spec-defined world and a
// constructor-built one with the same knobs share artifact-store entries.
//
// The verify evaluator lives in core/spec_verify.h; the corpus runner is
// tools/scenario_check.cc; every `scenarios/*.scn` file is registered as
// an individual ctest case.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"

namespace bgpolicy::core {

/// 1-based position of a token in the spec text.
struct SourceLoc {
  std::size_t line = 0;
  std::size_t column = 0;
  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

/// A parse (or spec-validation) failure.  what() is
/// "<source>:<line>:<column>: <message>"; the parts are also exposed
/// individually so tests can assert exact positions.
class SpecError : public std::runtime_error {
 public:
  SpecError(std::string source, SourceLoc loc, std::string message);

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] SourceLoc where() const { return loc_; }
  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::string source_;
  SourceLoc loc_;
  std::string message_;
};

/// One line of the `events` block: a scripted change applied after the
/// initial converged world, in file order (spec_verify.h executes these).
struct SpecEvent {
  enum class Kind : std::uint8_t {
    kWithdraw = 0,     ///< `withdraw <origin> <prefix>`
    kAnnounce = 1,     ///< `announce <origin> <prefix>` (hijack/anycast ok)
    kFailLink = 2,     ///< `fail <as> <as>`
    kRestoreLink = 3,  ///< `restore <as> <as>`
  };

  Kind kind = Kind::kWithdraw;
  std::uint32_t as_a = 0;  ///< origin, or first link endpoint
  std::uint32_t as_b = 0;  ///< second link endpoint
  bgp::Prefix prefix;      ///< withdraw/announce only
  SourceLoc loc;           ///< diagnostics; excluded from equality

  [[nodiscard]] bool operator==(const SpecEvent& other) const {
    return kind == other.kind && as_a == other.as_a && as_b == other.as_b &&
           prefix == other.prefix;
  }
};

/// One assertion of the `verify` block.  Kinds and their syntax are
/// documented in docs/SCENARIOS.md; spec_verify.h evaluates them.
struct SpecCheck {
  enum class Kind : std::uint8_t {
    kConverged = 0,          ///< `converged`
    kRouteVia = 1,           ///< `route V P via A [at K]`
    kRouteOrigin = 2,        ///< `route V P origin A [at K]`
    kRoutePath = 3,          ///< `route V P path A B ... [at K]`
    kUnreachable = 4,        ///< `unreachable V P [at K]`
    kSaPrevalence = 5,       ///< `sa_prevalence V LO HI`  (percent bounds)
    kHomingMultihomed = 6,   ///< `homing_multihomed V LO HI`
    kImportTypical = 7,      ///< `import_typical V LO HI`
    kInferenceAccuracy = 8,  ///< `inference_accuracy MIN`
    kDigest = 9,             ///< `digest <stage> <32-hex>`
  };

  /// at_event value meaning "after the whole event script".
  static constexpr std::size_t kAtEnd = static_cast<std::size_t>(-1);

  Kind kind = Kind::kConverged;
  std::uint32_t vantage = 0;
  bgp::Prefix prefix;
  std::uint32_t expect_as = 0;
  std::vector<std::uint32_t> expect_path;
  double lo = 0.0;
  double hi = 0.0;
  /// Timeline point for route/unreachable checks: evaluate after the
  /// first `at_event` events (0 = the initial converged world).
  std::size_t at_event = kAtEnd;
  Stage stage = Stage::kSimulate;  ///< kDigest only
  std::string digest;              ///< kDigest only (32 lowercase hex)
  SourceLoc loc;                   ///< diagnostics; excluded from equality

  [[nodiscard]] bool operator==(const SpecCheck& other) const {
    return kind == other.kind && vantage == other.vantage &&
           prefix == other.prefix && expect_as == other.expect_as &&
           expect_path == other.expect_path && lo == other.lo &&
           hi == other.hi && at_event == other.at_event &&
           stage == other.stage && digest == other.digest;
  }
};

/// A parsed, fully resolved scenario spec: the scenario itself (base
/// constructor + block assignments already applied), the event script, and
/// the verify assertions.
struct ScenarioSpec {
  /// Where the spec came from (file path or caller label) — diagnostics
  /// only, excluded from equality.
  std::string source;
  Scenario scenario;
  std::vector<SpecEvent> events;
  std::vector<SpecCheck> checks;

  /// Parses spec text; throws SpecError with exact line/column on any
  /// malformed, unknown, duplicate, or out-of-range input.
  [[nodiscard]] static ScenarioSpec parse(std::string_view text,
                                          std::string source_name = "<spec>");
  /// Parses a .scn file; throws SpecError (std::runtime_error for an
  /// unreadable file).
  [[nodiscard]] static ScenarioSpec parse_file(
      const std::filesystem::path& path);

  /// Canonical full-form serialization: every knob emitted explicitly, in
  /// a fixed order.  `parse(dump())` reproduces this spec exactly
  /// (round-trip identity — the parser-robustness suite pins this).
  [[nodiscard]] std::string dump() const;

  /// The deepest experiment stage the verify block needs (route/event
  /// checks only need Synthesize; digest/analysis checks pull deeper).
  [[nodiscard]] Stage required_stage() const;

  /// This spec as a sweep variant (label = scenario name) — the hook for
  /// feeding a whole corpus directory into core::sweep.
  [[nodiscard]] SweepVariant to_variant() const;

  [[nodiscard]] bool operator==(const ScenarioSpec& other) const {
    return scenario == other.scenario && events == other.events &&
           checks == other.checks;
  }
};

/// The number `text` spells in `.scn` syntax: the whole text one finite
/// decimal; nullopt for anything else (`nan`, `inf`, an out-of-range
/// exponent, trailing characters).  Knob values and the tools' numeric
/// flags (tools/tool_args.h) both parse through it.
[[nodiscard]] std::optional<double> parse_number(std::string_view text);

/// Every `*.scn` file in `dir`, sorted by filename — the corpus loader
/// scenario_check and sweep ingestion share.  Throws SpecError on the
/// first malformed file; std::runtime_error when the directory is missing.
[[nodiscard]] std::vector<ScenarioSpec> load_spec_dir(
    const std::filesystem::path& dir);

/// A corpus as sweep variants, in the given order.
[[nodiscard]] std::vector<SweepVariant> spec_sweep_variants(
    std::span<const ScenarioSpec> specs);

}  // namespace bgpolicy::core
