#include "core/scenario_spec.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <variant>

namespace bgpolicy::core {

// ------------------------------------------------------------- SpecError --

namespace {

std::string format_error(const std::string& source, SourceLoc loc,
                         const std::string& message) {
  return source + ":" + std::to_string(loc.line) + ":" +
         std::to_string(loc.column) + ": " + message;
}

}  // namespace

SpecError::SpecError(std::string source, SourceLoc loc, std::string message)
    : std::runtime_error(format_error(source, loc, message)),
      source_(std::move(source)),
      loc_(loc),
      message_(std::move(message)) {}

// ------------------------------------------------------------- tokenizer --

namespace {

struct Tok {
  std::string_view text;
  SourceLoc loc;
};

/// Splits one line into whitespace-separated tokens; `{` and `}` are
/// always standalone tokens, `#` starts a comment.  Columns are 1-based.
std::vector<Tok> tokenize(std::string_view line, std::size_t line_no) {
  std::vector<Tok> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') break;
    if (c == '{' || c == '}') {
      toks.push_back({line.substr(i, 1), {line_no, i + 1}});
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r' && line[end] != '#' && line[end] != '{' &&
           line[end] != '}') {
      ++end;
    }
    toks.push_back({line.substr(i, end - i), {line_no, i + 1}});
    i = end;
  }
  return toks;
}

/// Shortest round-trip decimal form of a double: parse(dump()) is lossless,
/// and distinct doubles print distinct text (so distinct cache keys).
std::string format_double(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------ knob table --

/// What a knob's value token must be.
enum class Check : std::uint8_t {
  kU64,       ///< an unsigned 64-bit integer, at least the row's `min`
  kU32,       ///< an unsigned integer below 2^32
  kByte,      ///< an unsigned integer <= 255, at least the row's `min`
  kProb,      ///< a finite number in [0, 1]
  kNonNeg,    ///< a finite number >= 0
  kPositive,  ///< a finite number > 0
};

enum KnobFlag : std::uint8_t {
  /// A topology/prefixes generator knob: an explicit topology rejects it,
  /// and the canonical text leaves it out there.
  kGenerator = 1,
  /// A policy-generator probability: explicit worlds start policy-inert,
  /// with it at 0.
  kInert = 2,
  /// Never changes an artifact, so scenario_cache_key leaves it out.
  kRuntime = 4,
};

/// Integer knobs hold a std::uint64_t, real-valued knobs a double.
using KnobValue = std::variant<std::uint64_t, double>;

/// One scalar knob: the `<key> <value>` line of `block` (topology,
/// prefixes, policy or vantage) that sets one Scenario field.
struct Knob {
  std::string_view block;
  std::string_view key;
  Check check;
  std::uint8_t flags;
  /// The least value an integer knob takes: its generator's precondition,
  /// so every value the parser accepts runs.
  std::uint64_t min;
  KnobValue (*get)(const Scenario&);
  void (*set)(Scenario&, KnobValue);
};

/// The row for the Scenario field that the member pointers `Path` reach.
template <auto... Path>
constexpr Knob knob(std::string_view block, std::string_view key,
                    Check check, std::uint8_t flags = 0,
                    std::uint64_t min = 0) {
  return {block, key, check, flags, min,
          [](const Scenario& s) -> KnobValue {
            const auto value = (s .* ... .* Path);
            if constexpr (std::is_floating_point_v<decltype(value)>) {
              return double{value};
            } else {
              return std::uint64_t{value};
            }
          },
          [](Scenario& s, KnobValue value) {
            auto& field = (s .* ... .* Path);
            using Field = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_floating_point_v<Field>) {
              field = std::get<double>(value);
            } else {
              field = static_cast<Field>(std::get<std::uint64_t>(value));
            }
          }};
}

using S = Scenario;
using Topo = topo::GeneratorParams;
using Alloc = topo::PrefixAllocParams;
using Pol = sim::PolicyGenParams;
using Irr = rpsl::IrrGenParams;
using Prop = sim::PropagationOptions;
constexpr auto kTopo = &S::topo_params;
constexpr auto kAlloc = &S::alloc_params;
constexpr auto kPol = &S::policy_params;
constexpr auto kIrr = &S::irr_params;
constexpr auto kProp = &S::propagation;
using enum Check;

/// Every scalar knob of the topology, prefixes, policy and vantage blocks,
/// one row each, in canonical order.  The parser, dump(),
/// scenario_cache_key and the explicit-world reset all read this list.
constexpr Knob kKnobs[] = {
    knob<kTopo, &Topo::seed>("topology", "seed", kU64, kGenerator),
    knob<kTopo, &Topo::tier1_count>("topology", "tier1", kU64, kGenerator, 2),
    knob<kTopo, &Topo::tier2_count>("topology", "tier2", kU64, kGenerator, 1),
    knob<kTopo, &Topo::tier3_count>("topology", "tier3", kU64, kGenerator, 1),
    knob<kTopo, &Topo::stub_count>("topology", "stubs", kU64, kGenerator),
    knob<kTopo, &Topo::stub_multihome_prob>("topology", "stub_multihome_prob", kProb, kGenerator),
    knob<kTopo, &Topo::max_stub_providers>("topology", "max_stub_providers", kU64, kGenerator, 2),
    knob<kTopo, &Topo::tier2_peer_mean>("topology", "tier2_peer_mean", kNonNeg, kGenerator),
    knob<kTopo, &Topo::tier3_peer_mean>("topology", "tier3_peer_mean", kNonNeg, kGenerator),
    knob<kTopo, &Topo::stub_peer_prob>("topology", "stub_peer_prob", kProb, kGenerator),
    knob<kTopo, &Topo::tier3_direct_tier1_prob>("topology", "tier3_direct_tier1_prob", kProb, kGenerator),
    knob<kTopo, &Topo::stub_tier1_frac>("topology", "stub_tier1_frac", kProb, kGenerator),
    knob<kTopo, &Topo::stub_tier2_frac>("topology", "stub_tier2_frac", kProb, kGenerator),
    knob<kTopo, &Topo::provider_popularity_skew>("topology", "provider_popularity_skew", kNonNeg, kGenerator),
    knob<kProp, &Prop::max_process_per_as>("topology", "max_process_per_as", kU64, 0, 1),
    knob<kProp, &Prop::threads>("topology", "threads", kU64, kRuntime),

    knob<kAlloc, &Alloc::seed>("prefixes", "seed", kU64, kGenerator),
    knob<kAlloc, &Alloc::provider_space_prob>("prefixes", "provider_space_prob", kProb, kGenerator),
    knob<kAlloc, &Alloc::count_alpha>("prefixes", "count_alpha", kPositive, kGenerator),
    knob<kAlloc, &Alloc::max_stub_prefixes>("prefixes", "max_stub_prefixes", kU64, kGenerator, 1),
    knob<kAlloc, &Alloc::max_transit_extra>("prefixes", "max_transit_extra", kU64, kGenerator, 1),

    knob<kPol, &Pol::seed>("policy", "seed", kU64),
    knob<kPol, &Pol::atypical_neighbor_prob>("policy", "atypical_neighbor_prob", kProb, kInert),
    knob<kPol, &Pol::te_as_prob>("policy", "te_as_prob", kProb, kInert),
    knob<kPol, &Pol::te_prefix_max_rate>("policy", "te_prefix_max_rate", kProb, kInert),
    knob<kPol, &Pol::origin_selective_as_prob>("policy", "origin_selective_as_prob", kProb, kInert),
    knob<kPol, &Pol::withhold_prefix_prob>("policy", "withhold_prefix_prob", kProb, kInert),
    knob<kPol, &Pol::single_announce_prob>("policy", "single_announce_prob", kProb, kInert),
    knob<kPol, &Pol::community_flavor_prob>("policy", "community_flavor_prob", kProb, kInert),
    knob<kPol, &Pol::community_target_prob>("policy", "community_target_prob", kProb, kInert),
    knob<kPol, &Pol::prepend_as_prob>("policy", "prepend_as_prob", kProb, kInert),
    knob<kPol, &Pol::max_prepend>("policy", "max_prepend", kByte, 0, 1),
    knob<kPol, &Pol::intermediate_selective_prob>("policy", "intermediate_selective_prob", kProb, kInert),
    knob<kPol, &Pol::intermediate_victim_prob>("policy", "intermediate_victim_prob", kProb, kInert),
    knob<kPol, &Pol::splitting_as_prob>("policy", "splitting_as_prob", kProb, kInert),
    knob<kPol, &Pol::aggregation_prob>("policy", "aggregation_prob", kProb, kInert),
    knob<kPol, &Pol::peer_withhold_prob>("policy", "peer_withhold_prob", kProb, kInert),
    knob<kPol, &Pol::peer_withhold_total_prob>("policy", "peer_withhold_total_prob", kProb, kInert),
    knob<kPol, &Pol::tagging_as_prob>("policy", "tagging_as_prob", kProb, kInert),
    knob<kPol, &Pol::publish_prob>("policy", "publish_prob", kProb, kInert),
    knob<kIrr, &Irr::seed>("policy", "irr_seed", kU64),
    knob<kIrr, &Irr::coverage>("policy", "irr_coverage", kProb),
    knob<kIrr, &Irr::stale_prob>("policy", "irr_stale_prob", kProb),
    knob<kIrr, &Irr::wrong_pref_prob>("policy", "irr_wrong_pref_prob", kProb),
    knob<kIrr, &Irr::missing_pref_prob>("policy", "irr_missing_pref_prob", kProb),
    knob<kIrr, &Irr::fresh_date>("policy", "irr_fresh_date", kU32),
    knob<kIrr, &Irr::stale_date>("policy", "irr_stale_date", kU32),

    knob<&S::collector_tier2_peers>("vantage", "collector_tier2_peers", kU64),
    knob<&S::collector_tier3_peers>("vantage", "collector_tier3_peers", kU64),
};

const Knob* find_knob(std::string_view block, std::string_view key) {
  for (const Knob& knob : kKnobs) {
    if (knob.block == block && knob.key == key) {
      return &knob;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- parser --

class Parser {
 public:
  Parser(std::string_view text, std::string source_name)
      : text_(text), source_(std::move(source_name)) {
    spec_.source = source_;
  }

  ScenarioSpec run() {
    parse_lines();
    finalize();
    return std::move(spec_);
  }

 private:
  using Assign = std::function<void(Scenario&)>;

  [[noreturn]] void fail(SourceLoc loc, const std::string& message) const {
    throw SpecError(source_, loc, message);
  }

  /// Location just past the final token of `toks` — where a missing
  /// trailing value would have been.
  static SourceLoc after(const std::vector<Tok>& toks) {
    const Tok& last = toks.back();
    return {last.loc.line, last.loc.column + last.text.size()};
  }

  // ---- value parsers --------------------------------------------------

  std::uint64_t parse_u64(const Tok& tok) const {
    std::uint64_t value = 0;
    const char* begin = tok.text.data();
    const char* end = begin + tok.text.size();
    const auto res = std::from_chars(begin, end, value);
    if (res.ec != std::errc{} || res.ptr != end) {
      fail(tok.loc, "expected an unsigned integer, got '" +
                        std::string(tok.text) + "'");
    }
    return value;
  }

  std::uint32_t parse_u32(const Tok& tok) const {
    const std::uint64_t value = parse_u64(tok);
    if (value > 0xFFFFFFFFull) {
      fail(tok.loc, "value " + std::string(tok.text) + " out of 32-bit range");
    }
    return static_cast<std::uint32_t>(value);
  }

  std::uint32_t parse_as(const Tok& tok) const {
    const std::uint32_t value = parse_u32(tok);
    if (value == 0) fail(tok.loc, "AS number must be positive");
    return value;
  }

  double parse_double(const Tok& tok) const {
    const std::optional<double> value = parse_number(tok.text);
    if (!value) {
      fail(tok.loc, "expected a finite number, got '" + std::string(tok.text) +
                        "'");
    }
    return *value;
  }

  double parse_prob(const Tok& tok) const {
    const double value = parse_double(tok);
    if (value < 0.0 || value > 1.0) {
      fail(tok.loc,
           "probability " + std::string(tok.text) + " outside [0, 1]");
    }
    return value;
  }

  double parse_pct(const Tok& tok) const {
    const double value = parse_double(tok);
    if (value < 0.0 || value > 100.0) {
      fail(tok.loc, "percentage " + std::string(tok.text) +
                        " outside [0, 100]");
    }
    return value;
  }

  double parse_nonneg(const Tok& tok) const {
    const double value = parse_double(tok);
    if (value < 0.0) {
      fail(tok.loc, "value " + std::string(tok.text) + " must be >= 0");
    }
    return value;
  }

  KnobValue parse_knob_value(const Knob& knob, const Tok& tok) const {
    if (knob.check == kProb) return parse_prob(tok);
    if (knob.check == kNonNeg) return parse_nonneg(tok);
    if (knob.check == kPositive) {
      const double value = parse_double(tok);
      if (value <= 0.0) {
        fail(tok.loc, "value " + std::string(tok.text) + " must be > 0");
      }
      return value;
    }
    if (knob.check == kU32) return std::uint64_t{parse_u32(tok)};
    const std::uint64_t value = parse_u64(tok);
    if (value < knob.min) {
      fail(tok.loc, std::string(knob.key) + " must be >= " +
                        std::to_string(knob.min));
    }
    if (knob.check == kByte && value > 255) {
      fail(tok.loc, std::string(knob.key) + " out of range (max 255)");
    }
    return value;
  }

  bgp::Prefix parse_prefix(const Tok& tok) const {
    const auto prefix = bgp::Prefix::try_parse(tok.text);
    if (!prefix) {
      fail(tok.loc, "malformed prefix '" + std::string(tok.text) +
                        "' (expected a.b.c.d/len)");
    }
    return *prefix;
  }

  topo::Tier parse_tier(const Tok& tok) const {
    if (tok.text == "tier1") return topo::Tier::kTier1;
    if (tok.text == "tier2") return topo::Tier::kTier2;
    if (tok.text == "tier3") return topo::Tier::kTier3;
    if (tok.text == "stub") return topo::Tier::kStub;
    fail(tok.loc, "unknown tier '" + std::string(tok.text) +
                      "' (expected tier1|tier2|tier3|stub)");
  }

  bool parse_on_off(const Tok& tok) const {
    if (tok.text == "on") return true;
    if (tok.text == "off") return false;
    fail(tok.loc,
         "expected on|off, got '" + std::string(tok.text) + "'");
  }

  Stage parse_stage(const Tok& tok) const {
    if (tok.text == "synthesize") return Stage::kSynthesize;
    if (tok.text == "simulate") return Stage::kSimulate;
    if (tok.text == "observe") return Stage::kObserve;
    if (tok.text == "infer") return Stage::kInfer;
    if (tok.text == "analyze") return Stage::kAnalyze;
    fail(tok.loc, "unknown stage '" + std::string(tok.text) +
                      "' (expected synthesize|simulate|observe|infer|analyze)");
  }

  // ---- line-shape helpers ---------------------------------------------

  void need_args(const std::vector<Tok>& toks, std::size_t count) const {
    if (toks.size() < 1 + count) {
      fail(after(toks), "'" + std::string(toks[0].text) + "' expects " +
                            std::to_string(count) + " argument(s)");
    }
    if (toks.size() > 1 + count) {
      fail(toks[1 + count].loc, "unexpected trailing token '" +
                                    std::string(toks[1 + count].text) + "'");
    }
  }

  /// Marks a scalar key as seen in `block`; duplicate = error.
  void scalar_key(const std::string& block, const Tok& key) {
    if (!seen_keys_[block].insert(std::string(key.text)).second) {
      fail(key.loc, "duplicate key '" + std::string(key.text) + "' in " +
                        block + " block");
    }
  }

  /// A generator-only key inside the topology/prefixes blocks: records the
  /// key, errors when the topology is explicit.
  void generator_key(const std::string& block, const Tok& key) {
    scalar_key(block, key);
    if (explicit_mode_) {
      fail(key.loc, "generator knob '" + std::string(key.text) +
                        "' is not allowed with an explicit topology");
    }
    generator_keys_.emplace(std::string(key.text), key.loc);
  }

  std::vector<std::uint32_t> parse_as_list(const std::vector<Tok>& toks,
                                           const char* role) {
    std::vector<std::uint32_t> list;
    list.reserve(toks.size() - 1);
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const std::uint32_t as = parse_as(toks[i]);
      as_refs_.push_back({as, toks[i].loc, role});
      list.push_back(as);
    }
    return list;
  }

  // ---- top level -------------------------------------------------------

  void parse_lines() {
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t nl = text_.find('\n', pos);
      const std::string_view line =
          text_.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                         : nl - pos);
      ++line_no;
      pos = nl == std::string_view::npos ? text_.size() + 1 : nl + 1;

      const std::vector<Tok> toks = tokenize(line, line_no);
      if (toks.empty()) continue;
      if (block_.empty()) {
        top_level(toks);
      } else {
        block_line(toks);
      }
    }
    if (!block_.empty()) {
      fail({line_no, 1}, "unterminated " + block_ + " block (missing '}')");
    }
    if (!saw_scenario_) {
      fail({1, 1}, "missing 'scenario <name>' header");
    }
  }

  void top_level(const std::vector<Tok>& toks) {
    const Tok& head = toks[0];
    if (head.text == "scenario") {
      if (saw_scenario_) fail(head.loc, "duplicate 'scenario' header");
      if (toks.size() != 2) {
        fail(toks.size() > 2 ? toks[2].loc : after(toks),
             "'scenario' expects exactly one name");
      }
      saw_scenario_ = true;
      name_ = std::string(toks[1].text);
      return;
    }
    if (!saw_scenario_) {
      fail(head.loc, "expected 'scenario <name>' before '" +
                         std::string(head.text) + "'");
    }
    if (head.text == "base") {
      if (saw_base_) fail(head.loc, "duplicate 'base' line");
      if (saw_block_) fail(head.loc, "'base' must precede every block");
      if (toks.size() < 2) fail(after(toks), "'base' expects a name");
      if (toks.size() > 3) fail(toks[3].loc, "unexpected trailing token");
      saw_base_ = true;
      base_loc_ = head.loc;
      if (toks[1].text == "default") {
        base_ = Base::kDefault;
        if (toks.size() == 3) {
          fail(toks[2].loc, "'base default' takes no seed");
        }
      } else if (toks[1].text == "small") {
        base_ = Base::kSmall;
        base_seed_ = toks.size() == 3 ? parse_u64(toks[2]) : 42;
      } else if (toks[1].text == "internet2002") {
        base_ = Base::kInternet2002;
        base_seed_ = toks.size() == 3 ? parse_u64(toks[2]) : 2002;
      } else {
        fail(toks[1].loc, "unknown base '" + std::string(toks[1].text) +
                              "' (expected default|small|internet2002)");
      }
      return;
    }
    // A block opener: `<name> {`.
    static const std::set<std::string_view> kBlocks = {
        "topology", "prefixes", "policy", "vantage",
        "override", "events",   "verify"};
    if (!kBlocks.contains(head.text)) {
      fail(head.loc, "unknown block or directive '" + std::string(head.text) +
                         "'");
    }
    if (toks.size() != 2 || toks[1].text != "{") {
      fail(toks.size() > 1 ? toks[1].loc : after(toks),
           "expected '{' after '" + std::string(head.text) + "'");
    }
    if (!seen_blocks_.insert(std::string(head.text)).second) {
      fail(head.loc, "duplicate " + std::string(head.text) + " block");
    }
    saw_block_ = true;
    block_ = std::string(head.text);
  }

  void block_line(const std::vector<Tok>& toks) {
    if (toks[0].text == "}") {
      if (toks.size() > 1) {
        fail(toks[1].loc, "unexpected token after '}'");
      }
      block_.clear();
      return;
    }
    if (const Knob* knob = find_knob(block_, toks[0].text)) {
      knob_line(*knob, toks);
    } else if (block_ == "topology") {
      topology_line(toks);
    } else if (block_ == "prefixes") {
      prefixes_line(toks);
    } else if (block_ == "policy") {
      policy_line(toks);
    } else if (block_ == "vantage") {
      vantage_line(toks);
    } else if (block_ == "override") {
      override_line(toks);
    } else if (block_ == "events") {
      events_line(toks);
    } else {
      verify_line(toks);
    }
  }

  // ---- blocks ----------------------------------------------------------

  /// A knob-table line: `<key> <value>`.
  void knob_line(const Knob& knob, const std::vector<Tok>& toks) {
    if ((knob.flags & kGenerator) != 0) {
      generator_key(block_, toks[0]);
    } else {
      scalar_key(block_, toks[0]);
    }
    need_args(toks, 1);
    const KnobValue value = parse_knob_value(knob, toks[1]);
    assigns_.push_back([&knob, value](Scenario& s) { knob.set(s, value); });
  }

  void topology_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    if (key.text == "explicit") {
      scalar_key("topology", key);
      need_args(toks, 0);
      if (!generator_keys_.empty()) {
        fail(key.loc,
             "explicit topology cannot be combined with generator knobs");
      }
      explicit_mode_ = true;
    } else if (key.text == "as") {
      require_explicit(key);
      need_args(toks, 2);
      const std::uint32_t as = parse_as(toks[1]);
      const topo::Tier tier = parse_tier(toks[2]);
      if (!declared_.insert(as).second) {
        fail(toks[1].loc,
             "AS " + std::to_string(as) + " declared twice");
      }
      world_.ases.push_back({as, tier});
    } else if (key.text == "provider" || key.text == "peer") {
      require_explicit(key);
      need_args(toks, 2);
      const std::uint32_t a = parse_as(toks[1]);
      const std::uint32_t b = parse_as(toks[2]);
      as_refs_.push_back({a, toks[1].loc, "link endpoint"});
      as_refs_.push_back({b, toks[2].loc, "link endpoint"});
      if (a == b) fail(toks[2].loc, "link endpoints must differ");
      world_.links.push_back({a, b, key.text == "peer"});
    } else {
      fail(key.loc, "unknown topology key '" + std::string(key.text) + "'");
    }
  }

  void require_explicit(const Tok& key) const {
    if (!explicit_mode_) {
      fail(key.loc, "'" + std::string(key.text) +
                        "' requires 'explicit' earlier in the topology block");
    }
  }

  void prefixes_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    if (key.text == "originate") {
      if (!explicit_mode_) {
        fail(key.loc, "'originate' requires an explicit topology");
      }
      need_args(toks, 2);
      const std::uint32_t as = parse_as(toks[1]);
      as_refs_.push_back({as, toks[1].loc, "origination origin"});
      world_.originations.push_back({as, parse_prefix(toks[2])});
    } else {
      fail(key.loc, "unknown prefixes key '" + std::string(key.text) + "'");
    }
  }

  void policy_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    if (key.text == "force_tagging") {
      scalar_key("policy", key);
      force_tagging_assigned_ = true;
      const std::vector<std::uint32_t> list =
          parse_as_list(toks, "force_tagging");
      assigns_.push_back([list](Scenario& s) {
        s.policy_params.force_tagging.clear();
        for (const std::uint32_t as : list) {
          s.policy_params.force_tagging.emplace_back(as);
        }
      });
    } else {
      fail(key.loc, "unknown policy key '" + std::string(key.text) + "'");
    }
  }

  void vantage_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    if (key.text == "looking_glass") {
      scalar_key("vantage", key);
      const auto list = parse_as_list(toks, "looking_glass");
      assigns_.push_back([list](Scenario& s) { s.looking_glass = list; });
    } else if (key.text == "best_only") {
      scalar_key("vantage", key);
      const auto list = parse_as_list(toks, "best_only");
      assigns_.push_back([list](Scenario& s) { s.best_only = list; });
    } else if (key.text == "verification") {
      scalar_key("vantage", key);
      verification_assigned_ = true;
      const auto list = parse_as_list(toks, "verification");
      assigns_.push_back([list](Scenario& s) { s.verification_ases = list; });
    } else {
      fail(key.loc, "unknown vantage key '" + std::string(key.text) + "'");
    }
  }

  void override_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    PolicyOverride o;
    if (key.text == "prefer") {
      need_args(toks, 3);
      o.kind = PolicyOverride::Kind::kPreferNeighbor;
      o.as = parse_as(toks[1]);
      o.neighbor = parse_as(toks[2]);
      o.value = parse_u32(toks[3]);
      as_refs_.push_back({o.as, toks[1].loc, "override"});
      as_refs_.push_back({o.neighbor, toks[2].loc, "override neighbor"});
    } else if (key.text == "prefer_prefix") {
      need_args(toks, 3);
      o.kind = PolicyOverride::Kind::kPreferPrefix;
      o.as = parse_as(toks[1]);
      o.prefix = parse_prefix(toks[2]);
      o.value = parse_u32(toks[3]);
      as_refs_.push_back({o.as, toks[1].loc, "override"});
    } else if (key.text == "deny" || key.text == "no_export_upstream") {
      if (toks.size() < 3 || toks.size() > 4) {
        fail(after(toks), "'" + std::string(key.text) +
                              "' expects <as> <neighbor> [<prefix>]");
      }
      o.kind = key.text == "deny" ? PolicyOverride::Kind::kDeny
                                  : PolicyOverride::Kind::kNoExportUpstream;
      o.as = parse_as(toks[1]);
      o.neighbor = parse_as(toks[2]);
      if (toks.size() == 4) o.prefix = parse_prefix(toks[3]);
      as_refs_.push_back({o.as, toks[1].loc, "override"});
      as_refs_.push_back({o.neighbor, toks[2].loc, "override neighbor"});
    } else if (key.text == "prepend") {
      need_args(toks, 3);
      o.kind = PolicyOverride::Kind::kPrepend;
      o.as = parse_as(toks[1]);
      o.neighbor = parse_as(toks[2]);
      const std::uint64_t times = parse_u64(toks[3]);
      if (times == 0 || times > 255) {
        fail(toks[3].loc, "prepend count must be in [1, 255]");
      }
      o.value = static_cast<std::uint32_t>(times);
      as_refs_.push_back({o.as, toks[1].loc, "override"});
      as_refs_.push_back({o.neighbor, toks[2].loc, "override neighbor"});
    } else if (key.text == "conditional") {
      // conditional <as> <prefix> <advertise_to> watch <provider>
      need_args(toks, 5);
      if (toks[4].text != "watch") {
        fail(toks[4].loc, "expected 'watch', got '" +
                              std::string(toks[4].text) + "'");
      }
      o.kind = PolicyOverride::Kind::kConditional;
      o.as = parse_as(toks[1]);
      o.prefix = parse_prefix(toks[2]);
      o.neighbor = parse_as(toks[3]);
      o.watch = parse_as(toks[5]);
      as_refs_.push_back({o.as, toks[1].loc, "override"});
      as_refs_.push_back({o.neighbor, toks[3].loc, "override neighbor"});
      as_refs_.push_back({o.watch, toks[5].loc, "override watch"});
    } else if (key.text == "tagging") {
      need_args(toks, 2);
      o.kind = PolicyOverride::Kind::kTagging;
      o.as = parse_as(toks[1]);
      o.value = parse_on_off(toks[2]) ? 1 : 0;
      as_refs_.push_back({o.as, toks[1].loc, "override"});
    } else {
      fail(key.loc, "unknown override '" + std::string(key.text) + "'");
    }
    overrides_.push_back(std::move(o));
  }

  void events_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    SpecEvent event;
    event.loc = key.loc;
    if (key.text == "withdraw" || key.text == "announce") {
      need_args(toks, 2);
      event.kind = key.text == "withdraw" ? SpecEvent::Kind::kWithdraw
                                          : SpecEvent::Kind::kAnnounce;
      event.as_a = parse_as(toks[1]);
      event.prefix = parse_prefix(toks[2]);
      as_refs_.push_back({event.as_a, toks[1].loc, "event origin"});
    } else if (key.text == "fail" || key.text == "restore") {
      need_args(toks, 2);
      event.kind = key.text == "fail" ? SpecEvent::Kind::kFailLink
                                      : SpecEvent::Kind::kRestoreLink;
      event.as_a = parse_as(toks[1]);
      event.as_b = parse_as(toks[2]);
      if (event.as_a == event.as_b) {
        fail(toks[2].loc, "link endpoints must differ");
      }
      as_refs_.push_back({event.as_a, toks[1].loc, "event endpoint"});
      as_refs_.push_back({event.as_b, toks[2].loc, "event endpoint"});
    } else {
      fail(key.loc, "unknown event '" + std::string(key.text) +
                        "' (expected withdraw|announce|fail|restore)");
    }
    spec_.events.push_back(std::move(event));
  }

  /// Consumes a trailing `at <k>` clause; returns SpecCheck::kAtEnd when
  /// absent.  `next` is the index where the clause would start.
  std::size_t parse_at_clause(const std::vector<Tok>& toks,
                              std::size_t next) {
    if (next == toks.size()) return SpecCheck::kAtEnd;
    if (toks[next].text != "at") {
      fail(toks[next].loc, "unexpected token '" +
                               std::string(toks[next].text) +
                               "' (expected 'at <k>' or end of line)");
    }
    if (next + 1 >= toks.size()) {
      fail(after(toks), "'at' expects an event count");
    }
    if (next + 2 < toks.size()) {
      fail(toks[next + 2].loc, "unexpected trailing token");
    }
    const std::uint64_t k = parse_u64(toks[next + 1]);
    at_clauses_.push_back({k, toks[next + 1].loc});
    return static_cast<std::size_t>(k);
  }

  void verify_line(const std::vector<Tok>& toks) {
    const Tok& key = toks[0];
    SpecCheck check;
    check.loc = key.loc;
    if (key.text == "converged") {
      need_args(toks, 0);
      check.kind = SpecCheck::Kind::kConverged;
    } else if (key.text == "route") {
      if (toks.size() < 5) {
        fail(after(toks),
             "'route' expects <vantage> <prefix> via|origin|path ...");
      }
      check.vantage = parse_as(toks[1]);
      as_refs_.push_back({check.vantage, toks[1].loc, "verify vantage"});
      check.prefix = parse_prefix(toks[2]);
      const Tok& mode = toks[3];
      if (mode.text == "via" || mode.text == "origin") {
        check.kind = mode.text == "via" ? SpecCheck::Kind::kRouteVia
                                        : SpecCheck::Kind::kRouteOrigin;
        check.expect_as = parse_as(toks[4]);
        check.at_event = parse_at_clause(toks, 5);
      } else if (mode.text == "path") {
        check.kind = SpecCheck::Kind::kRoutePath;
        std::size_t i = 4;
        while (i < toks.size() && toks[i].text != "at") {
          check.expect_path.push_back(parse_as(toks[i]));
          ++i;
        }
        if (check.expect_path.empty()) {
          fail(toks[4].loc, "'path' expects at least one AS");
        }
        check.at_event = parse_at_clause(toks, i);
      } else {
        fail(mode.loc, "expected via|origin|path, got '" +
                           std::string(mode.text) + "'");
      }
    } else if (key.text == "unreachable") {
      if (toks.size() < 3) {
        fail(after(toks), "'unreachable' expects <vantage> <prefix>");
      }
      check.kind = SpecCheck::Kind::kUnreachable;
      check.vantage = parse_as(toks[1]);
      as_refs_.push_back({check.vantage, toks[1].loc, "verify vantage"});
      check.prefix = parse_prefix(toks[2]);
      check.at_event = parse_at_clause(toks, 3);
    } else if (key.text == "sa_prevalence" || key.text == "homing_multihomed" ||
               key.text == "import_typical") {
      need_args(toks, 3);
      check.kind = key.text == "sa_prevalence"
                       ? SpecCheck::Kind::kSaPrevalence
                       : (key.text == "homing_multihomed"
                              ? SpecCheck::Kind::kHomingMultihomed
                              : SpecCheck::Kind::kImportTypical);
      check.vantage = parse_as(toks[1]);
      as_refs_.push_back({check.vantage, toks[1].loc, "verify vantage"});
      check.lo = parse_pct(toks[2]);
      check.hi = parse_pct(toks[3]);
      if (check.lo > check.hi) {
        fail(toks[3].loc, "bounds must satisfy lo <= hi");
      }
    } else if (key.text == "inference_accuracy") {
      need_args(toks, 1);
      check.kind = SpecCheck::Kind::kInferenceAccuracy;
      check.lo = parse_pct(toks[1]);
      check.hi = 100.0;
    } else if (key.text == "digest") {
      need_args(toks, 2);
      check.kind = SpecCheck::Kind::kDigest;
      check.stage = parse_stage(toks[1]);
      const std::string_view hex = toks[2].text;
      const bool valid =
          hex.size() == 32 &&
          std::all_of(hex.begin(), hex.end(), [](char c) {
            return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
          });
      if (!valid) {
        fail(toks[2].loc, "expected a 32-character lowercase hex digest");
      }
      check.digest = std::string(hex);
    } else {
      fail(key.loc, "unknown verify assertion '" + std::string(key.text) +
                        "'");
    }
    spec_.checks.push_back(std::move(check));
  }

  // ---- finalize --------------------------------------------------------

  void finalize() {
    if (explicit_mode_ && base_ != Base::kDefault) {
      fail(base_loc_, "an explicit topology requires 'base default'");
    }

    switch (base_) {
      case Base::kDefault: spec_.scenario = Scenario{}; break;
      case Base::kSmall: spec_.scenario = Scenario::small(base_seed_); break;
      case Base::kInternet2002:
        spec_.scenario = Scenario::internet2002(base_seed_);
        break;
    }
    spec_.scenario.name = name_;
    const topo::GeneratorParams base_topology = spec_.scenario.topo_params;
    if (explicit_mode_) {
      // Explicit worlds start policy-silent: the policy generator's
      // probabilities are zeroed and nothing is force-tagged, so the
      // hand-written world carries exactly the declared policies; knobs and
      // overrides opt back in.
      for (const Knob& knob : kKnobs) {
        if ((knob.flags & kInert) != 0) {
          knob.set(spec_.scenario, 0.0);
        }
      }
      spec_.scenario.policy_params.force_tagging.clear();
      spec_.scenario.explicit_world = std::move(world_);
    }
    for (const Assign& assign : assigns_) assign(spec_.scenario);
    spec_.scenario.overrides = std::move(overrides_);

    // Constructor convention: verification vantages run a tagging scheme.
    // A spec that sets `verification` inherits it unless it pins
    // force_tagging itself.
    if (verification_assigned_ && !force_tagging_assigned_) {
      spec_.scenario.policy_params.force_tagging.clear();
      for (const std::uint32_t as : spec_.scenario.verification_ases) {
        spec_.scenario.policy_params.force_tagging.emplace_back(as);
      }
    }

    // `at <k>` clauses must lie within the event script.
    for (const auto& [k, loc] : at_clauses_) {
      if (k > spec_.events.size()) {
        fail(loc, "'at " + std::to_string(k) + "' exceeds the " +
                      std::to_string(spec_.events.size()) +
                      "-event script");
      }
    }

    // In an explicit world every referenced AS must be declared; the
    // parser knows the declared set, so undeclared ids are parse errors
    // with positions.
    if (explicit_mode_) {
      for (const AsRef& ref : as_refs_) {
        if (!declared_.contains(ref.as)) {
          fail(ref.loc, std::string(ref.role) + " references undeclared AS " +
                            std::to_string(ref.as));
        }
      }
    } else {
      check_generated_ases(base_topology);
    }
  }

  /// A generated world's AS numbers depend only on its tier counts, so
  /// that they fit in 32 bits, and the ASes Synthesize requires
  /// (for_each_required_as), are checked here.
  void check_generated_ases(const topo::GeneratorParams& base_topology) const {
    const topo::TierNumbering world(spec_.scenario.topo_params);
    if (const auto tier = world.first_tier_past_32_bits()) {
      const char* key = kCountKeys[static_cast<std::size_t>(*tier) - 1];
      fail(tier_count_loc(*tier), std::string("'") + key +
                                      "' ASes would need numbers past "
                                      "4294967295");
    }
    for_each_required_as(spec_.scenario, [&](const char* role,
                                             std::uint32_t as) {
      if (world.tier_of(AsNumber(as))) return;
      fail(required_as_loc(role, as, base_topology),
           std::string(role) + " AS " + std::to_string(as) +
               " is not in the generated topology");
    });
  }

  /// Where a missing required AS comes from: its token when the spec
  /// wrote it; else a base list names it, and the count key of the tier
  /// the base numbers it in left it out (the base line when the spec did
  /// not write that key).
  SourceLoc required_as_loc(std::string_view role, std::uint32_t as,
                            const topo::GeneratorParams& base_topology) const {
    for (const AsRef& ref : as_refs_) {
      if (ref.as == as && ref.role == role) return ref.loc;
    }
    if (const auto tier =
            topo::TierNumbering(base_topology).tier_of(AsNumber(as))) {
      const auto key =
          generator_keys_.find(kCountKeys[static_cast<std::size_t>(*tier) - 1]);
      if (key != generator_keys_.end()) return key->second;
    }
    return base_loc_;
  }

  /// Where the counts that number `tier` past 32 bits are set: its count
  /// key when the spec writes it, else the last earlier tier's that it
  /// writes (each tier numbers past the ones before it), else the base
  /// line.
  SourceLoc tier_count_loc(topo::Tier tier) const {
    for (std::size_t i = static_cast<std::size_t>(tier); i-- > 0;) {
      const auto key = generator_keys_.find(kCountKeys[i]);
      if (key != generator_keys_.end()) return key->second;
    }
    return base_loc_;
  }

  /// The tier-count keys, in the order the tiers are numbered.
  static constexpr std::array<const char*, 4> kCountKeys = {
      "tier1", "tier2", "tier3", "stubs"};

  enum class Base : std::uint8_t { kDefault, kSmall, kInternet2002 };

  struct AsRef {
    std::uint32_t as = 0;
    SourceLoc loc;
    const char* role = "";
  };

  std::string_view text_;
  std::string source_;
  ScenarioSpec spec_;

  bool saw_scenario_ = false;
  bool saw_base_ = false;
  bool saw_block_ = false;
  bool explicit_mode_ = false;
  bool verification_assigned_ = false;
  bool force_tagging_assigned_ = false;
  Base base_ = Base::kDefault;
  std::uint64_t base_seed_ = 0;
  SourceLoc base_loc_;
  std::string name_;
  std::string block_;

  std::set<std::string> seen_blocks_;
  std::unordered_map<std::string, std::unordered_set<std::string>> seen_keys_;
  std::map<std::string, SourceLoc> generator_keys_;
  std::vector<Assign> assigns_;
  ExplicitWorld world_;
  std::unordered_set<std::uint32_t> declared_;
  std::vector<PolicyOverride> overrides_;
  std::vector<AsRef> as_refs_;
  std::vector<std::pair<std::uint64_t, SourceLoc>> at_clauses_;
};

}  // namespace

// ----------------------------------------------------------------- parse --

ScenarioSpec ScenarioSpec::parse(std::string_view text,
                                 std::string source_name) {
  Parser parser(text, std::move(source_name));
  return parser.run();
}

ScenarioSpec ScenarioSpec::parse_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read scenario spec " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), path.string());
}

// ------------------------------------------------------------------ dump --

namespace {

/// Appends one `  <key> <value>` line.
void append_line(std::string& out, std::string_view key,
                 const std::string& value) {
  out += "  ";
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

void dump_as_list(std::string& out, const char* key,
                  std::span<const std::uint32_t> list) {
  out += "  ";
  out += key;
  for (const std::uint32_t as : list) {
    out += ' ';
    out += std::to_string(as);
  }
  out += '\n';
}

const char* tier_word(topo::Tier tier) {
  switch (tier) {
    case topo::Tier::kTier1: return "tier1";
    case topo::Tier::kTier2: return "tier2";
    case topo::Tier::kTier3: return "tier3";
    case topo::Tier::kStub: return "stub";
  }
  return "stub";
}

/// Appends the canonical text of the scenario's topology, prefixes,
/// policy and vantage blocks and, when it has overrides, its override
/// block.  Each block holds its list lines, then its knob-table rows; an
/// explicit world leaves out the generator knobs it ignores, and
/// `with_runtime = false` leaves out the runtime knobs.
void append_scenario(std::string& out, const Scenario& s, bool with_runtime) {
  const auto kv = [&](std::string_view key, const std::string& value) {
    append_line(out, key, value);
  };
  const auto knobs = [&](std::string_view block) {
    for (const Knob& knob : kKnobs) {
      if (knob.block != block ||
          (s.explicit_world && (knob.flags & kGenerator) != 0) ||
          (!with_runtime && (knob.flags & kRuntime) != 0)) {
        continue;
      }
      const KnobValue value = knob.get(s);
      kv(knob.key,
         std::holds_alternative<double>(value)
             ? format_double(std::get<double>(value))
             : std::to_string(std::get<std::uint64_t>(value)));
    }
  };

  out += "topology {\n";
  if (s.explicit_world) {
    const ExplicitWorld& w = *s.explicit_world;
    out += "  explicit\n";
    for (const ExplicitWorld::As& as : w.ases) {
      kv("as", std::to_string(as.number) + " " + tier_word(as.tier));
    }
    for (const ExplicitWorld::Link& link : w.links) {
      kv(link.peer ? "peer" : "provider",
         std::to_string(link.a) + " " + std::to_string(link.b));
    }
  }
  knobs("topology");
  out += "}\n\n";

  out += "prefixes {\n";
  if (s.explicit_world) {
    for (const ExplicitWorld::Origination& o : s.explicit_world->originations) {
      kv("originate", std::to_string(o.origin) + " " + o.prefix.to_string());
    }
  }
  knobs("prefixes");
  out += "}\n\n";

  out += "policy {\n";
  std::vector<std::uint32_t> force;
  force.reserve(s.policy_params.force_tagging.size());
  for (const util::AsNumber as : s.policy_params.force_tagging) {
    force.push_back(as.value());
  }
  dump_as_list(out, "force_tagging", force);
  knobs("policy");
  out += "}\n\n";

  out += "vantage {\n";
  dump_as_list(out, "looking_glass", s.looking_glass);
  dump_as_list(out, "best_only", s.best_only);
  dump_as_list(out, "verification", s.verification_ases);
  knobs("vantage");
  out += "}\n";

  if (!s.overrides.empty()) {
    out += "\noverride {\n";
    for (const PolicyOverride& o : s.overrides) {
      switch (o.kind) {
        case PolicyOverride::Kind::kPreferNeighbor:
          kv("prefer", std::to_string(o.as) + " " + std::to_string(o.neighbor) +
                           " " + std::to_string(o.value));
          break;
        case PolicyOverride::Kind::kPreferPrefix:
          kv("prefer_prefix", std::to_string(o.as) + " " +
                                  o.prefix->to_string() + " " +
                                  std::to_string(o.value));
          break;
        case PolicyOverride::Kind::kDeny:
        case PolicyOverride::Kind::kNoExportUpstream: {
          std::string line = std::to_string(o.as) + " " +
                             std::to_string(o.neighbor);
          if (o.prefix) line += " " + o.prefix->to_string();
          kv(o.kind == PolicyOverride::Kind::kDeny ? "deny"
                                                   : "no_export_upstream",
             line);
          break;
        }
        case PolicyOverride::Kind::kPrepend:
          kv("prepend", std::to_string(o.as) + " " +
                            std::to_string(o.neighbor) + " " +
                            std::to_string(o.value));
          break;
        case PolicyOverride::Kind::kConditional:
          kv("conditional", std::to_string(o.as) + " " +
                                o.prefix->to_string() + " " +
                                std::to_string(o.neighbor) + " watch " +
                                std::to_string(o.watch));
          break;
        case PolicyOverride::Kind::kTagging:
          kv("tagging",
             std::to_string(o.as) + (o.value != 0 ? " on" : " off"));
          break;
      }
    }
    out += "}\n";
  }
}

}  // namespace

std::string scenario_cache_key(const Scenario& scenario) {
  std::string key;
  key.reserve(2048);
  append_scenario(key, scenario, /*with_runtime=*/false);
  return key;
}

std::string ScenarioSpec::dump() const {
  std::string out = "scenario " + scenario.name + "\n\n";
  out.reserve(4096);
  append_scenario(out, scenario, /*with_runtime=*/true);
  const auto kv = [&](const char* key, const std::string& value) {
    append_line(out, key, value);
  };

  if (!events.empty()) {
    out += "\nevents {\n";
    for (const SpecEvent& event : events) {
      switch (event.kind) {
        case SpecEvent::Kind::kWithdraw:
          kv("withdraw", std::to_string(event.as_a) + " " +
                             event.prefix.to_string());
          break;
        case SpecEvent::Kind::kAnnounce:
          kv("announce", std::to_string(event.as_a) + " " +
                             event.prefix.to_string());
          break;
        case SpecEvent::Kind::kFailLink:
          kv("fail", std::to_string(event.as_a) + " " +
                         std::to_string(event.as_b));
          break;
        case SpecEvent::Kind::kRestoreLink:
          kv("restore", std::to_string(event.as_a) + " " +
                            std::to_string(event.as_b));
          break;
      }
    }
    out += "}\n";
  }

  if (!checks.empty()) {
    out += "\nverify {\n";
    for (const SpecCheck& check : checks) {
      const auto at_suffix = [&]() -> std::string {
        return check.at_event == SpecCheck::kAtEnd
                   ? ""
                   : " at " + std::to_string(check.at_event);
      };
      switch (check.kind) {
        case SpecCheck::Kind::kConverged:
          out += "  converged\n";
          break;
        case SpecCheck::Kind::kRouteVia:
          kv("route", std::to_string(check.vantage) + " " +
                          check.prefix.to_string() + " via " +
                          std::to_string(check.expect_as) + at_suffix());
          break;
        case SpecCheck::Kind::kRouteOrigin:
          kv("route", std::to_string(check.vantage) + " " +
                          check.prefix.to_string() + " origin " +
                          std::to_string(check.expect_as) + at_suffix());
          break;
        case SpecCheck::Kind::kRoutePath: {
          std::string line = std::to_string(check.vantage) + " " +
                             check.prefix.to_string() + " path";
          for (const std::uint32_t as : check.expect_path) {
            line += " " + std::to_string(as);
          }
          kv("route", line + at_suffix());
          break;
        }
        case SpecCheck::Kind::kUnreachable:
          kv("unreachable", std::to_string(check.vantage) + " " +
                                check.prefix.to_string() + at_suffix());
          break;
        case SpecCheck::Kind::kSaPrevalence:
          kv("sa_prevalence", std::to_string(check.vantage) + " " +
                                  format_double(check.lo) + " " +
                                  format_double(check.hi));
          break;
        case SpecCheck::Kind::kHomingMultihomed:
          kv("homing_multihomed", std::to_string(check.vantage) + " " +
                                      format_double(check.lo) + " " +
                                      format_double(check.hi));
          break;
        case SpecCheck::Kind::kImportTypical:
          kv("import_typical", std::to_string(check.vantage) + " " +
                                   format_double(check.lo) + " " +
                                   format_double(check.hi));
          break;
        case SpecCheck::Kind::kInferenceAccuracy:
          kv("inference_accuracy", format_double(check.lo));
          break;
        case SpecCheck::Kind::kDigest:
          kv("digest",
             std::string(to_string(check.stage)) + " " + check.digest);
          break;
      }
    }
    out += "}\n";
  }
  return out;
}

// ------------------------------------------------------------- utilities --

Stage ScenarioSpec::required_stage() const {
  Stage deepest = Stage::kSynthesize;
  const auto bump = [&](Stage stage) {
    if (static_cast<int>(stage) > static_cast<int>(deepest)) deepest = stage;
  };
  for (const SpecCheck& check : checks) {
    switch (check.kind) {
      case SpecCheck::Kind::kConverged: bump(Stage::kSimulate); break;
      case SpecCheck::Kind::kRouteVia:
      case SpecCheck::Kind::kRouteOrigin:
      case SpecCheck::Kind::kRoutePath:
      case SpecCheck::Kind::kUnreachable:
        bump(Stage::kSynthesize);
        break;
      case SpecCheck::Kind::kSaPrevalence:
      case SpecCheck::Kind::kHomingMultihomed:
      case SpecCheck::Kind::kImportTypical:
        bump(Stage::kAnalyze);
        break;
      case SpecCheck::Kind::kInferenceAccuracy: bump(Stage::kInfer); break;
      case SpecCheck::Kind::kDigest: bump(check.stage); break;
    }
  }
  return deepest;
}

SweepVariant ScenarioSpec::to_variant() const {
  SweepVariant variant;
  variant.label = scenario.name;
  variant.scenario = scenario;
  return variant;
}

std::optional<double> parse_number(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, value);
  if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::vector<ScenarioSpec> load_spec_dir(const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("not a scenario directory: " + dir.string());
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<ScenarioSpec> specs;
  specs.reserve(files.size());
  for (const auto& file : files) {
    specs.push_back(ScenarioSpec::parse_file(file));
  }
  return specs;
}

std::vector<SweepVariant> spec_sweep_variants(
    std::span<const ScenarioSpec> specs) {
  std::vector<SweepVariant> variants;
  variants.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    variants.push_back(spec.to_variant());
  }
  return variants;
}

}  // namespace bgpolicy::core
