// Parser-robustness suite for the .scn scenario spec language
// (core/scenario_spec.h): round-trip identity (parse -> dump -> parse),
// rejection tests asserting exact line/column diagnostics, a
// deterministic random-mutation fuzz pass (the parser must never crash,
// only throw), and the synthesize-time vantage/override validation.
// CI runs this binary under ASan/UBSan (the sanitizer job's target list).
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario_spec.h"

namespace bgpolicy::core {
namespace {

const std::filesystem::path kScenarioDir = BGPOLICY_SCENARIO_DIR;

// A compact spec exercising every block type.
constexpr const char* kFullSpec = R"(# exercise every block
scenario full-demo
base default

topology {
  explicit
  as 10 tier1
  as 20 tier1
  as 30 tier2
  as 50 stub
  peer 10 20
  provider 10 30
  provider 30 50
  provider 20 50
  threads 1
}

prefixes {
  originate 50 10.50.0.0/16
}

policy {
  tagging_as_prob 0
}

vantage {
  looking_glass 10
  best_only 20
}

override {
  prefer 50 30 90
  deny 30 10 10.50.0.0/16
  conditional 50 10.50.0.0/16 20 watch 30
  tagging 10 on
}

events {
  fail 30 50
  restore 30 50
}

verify {
  converged
  route 10 10.50.0.0/16 via 30 at 0
  unreachable 10 10.50.0.0/16 at 1
}
)";

SourceLoc error_loc(const std::string& text) {
  try {
    (void)ScenarioSpec::parse(text);
  } catch (const SpecError& error) {
    return error.where();
  }
  ADD_FAILURE() << "expected SpecError for:\n" << text;
  return {};
}

TEST(ScenarioSpecParse, FullSpecParses) {
  const ScenarioSpec spec = ScenarioSpec::parse(kFullSpec, "full.scn");
  EXPECT_EQ(spec.scenario.name, "full-demo");
  ASSERT_TRUE(spec.scenario.explicit_world.has_value());
  EXPECT_EQ(spec.scenario.explicit_world->ases.size(), 4u);
  EXPECT_EQ(spec.scenario.explicit_world->links.size(), 4u);
  EXPECT_EQ(spec.scenario.explicit_world->originations.size(), 1u);
  EXPECT_EQ(spec.scenario.overrides.size(), 4u);
  EXPECT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.checks.size(), 3u);
  EXPECT_EQ(spec.scenario.looking_glass, std::vector<std::uint32_t>{10});
  // Explicit worlds start policy-inert; the block opted one knob back in.
  EXPECT_EQ(spec.scenario.policy_params.origin_selective_as_prob, 0.0);
  EXPECT_EQ(spec.scenario.policy_params.tagging_as_prob, 0.0);
  // Event/check payloads.
  EXPECT_EQ(spec.events[0].kind, SpecEvent::Kind::kFailLink);
  EXPECT_EQ(spec.checks[1].kind, SpecCheck::Kind::kRouteVia);
  EXPECT_EQ(spec.checks[1].at_event, 0u);
  EXPECT_EQ(spec.checks[2].at_event, 1u);
  // Diagnostics carry positions.
  EXPECT_GT(spec.checks[1].loc.line, 0u);
}

TEST(ScenarioSpecParse, RoundTripIdentity) {
  const ScenarioSpec spec = ScenarioSpec::parse(kFullSpec);
  const std::string dumped = spec.dump();
  const ScenarioSpec again = ScenarioSpec::parse(dumped);
  EXPECT_EQ(spec, again) << dumped;
  // And dump is a fixpoint: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(dumped, again.dump());
}

TEST(ScenarioSpecParse, RoundTripWholeCorpus) {
  const std::vector<ScenarioSpec> corpus = load_spec_dir(kScenarioDir);
  ASSERT_GE(corpus.size(), 5u) << "scenario corpus shrank below the floor";
  for (const ScenarioSpec& spec : corpus) {
    SCOPED_TRACE(spec.source);
    EXPECT_FALSE(spec.checks.empty())
        << "corpus contract: every spec has a non-empty verify block";
    const ScenarioSpec again = ScenarioSpec::parse(spec.dump(), spec.source);
    EXPECT_EQ(spec, again);
  }
}

TEST(ScenarioSpecParse, CorpusVariantsFeedSweep) {
  const std::vector<ScenarioSpec> corpus = load_spec_dir(kScenarioDir);
  const std::vector<SweepVariant> variants = spec_sweep_variants(corpus);
  ASSERT_EQ(variants.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(variants[i].label, corpus[i].scenario.name);
    EXPECT_EQ(variants[i].scenario, corpus[i].scenario);
  }
}

// ---- rejection: exact line/column diagnostics -------------------------

TEST(ScenarioSpecReject, MissingHeader) {
  EXPECT_EQ(error_loc("topology {\n}\n"), (SourceLoc{1, 1}));
}

TEST(ScenarioSpecReject, UnknownBlock) {
  EXPECT_EQ(error_loc("scenario x\nfoo {\n}\n"), (SourceLoc{2, 1}));
}

TEST(ScenarioSpecReject, MissingBrace) {
  // "topology" spans columns 1-8; the missing '{' is reported just past it.
  EXPECT_EQ(error_loc("scenario x\ntopology\n"), (SourceLoc{2, 9}));
}

TEST(ScenarioSpecReject, UnknownKey) {
  EXPECT_EQ(error_loc("scenario x\ntopology {\n  frobnicate 3\n}\n"),
            (SourceLoc{3, 3}));
}

TEST(ScenarioSpecReject, MalformedInteger) {
  // "  tier1 zero": "zero" starts at column 9.
  EXPECT_EQ(error_loc("scenario x\ntopology {\n  tier1 zero\n}\n"),
            (SourceLoc{3, 9}));
}

TEST(ScenarioSpecReject, ProbabilityOutOfRange) {
  EXPECT_EQ(error_loc("scenario x\npolicy {\n  te_as_prob 1.5\n}\n"),
            (SourceLoc{3, 14}));
}

TEST(ScenarioSpecReject, NonFiniteNumbers) {
  // std::from_chars reads these; the range checks alone would let NaN pass
  // every bound and infinity pass every non-negative one.
  for (const std::string value : {"nan", "-nan", "inf", "infinity"}) {
    SCOPED_TRACE(value);
    // "  te_as_prob ": the value starts at column 14.
    EXPECT_EQ(error_loc("scenario x\npolicy {\n  te_as_prob " + value +
                        "\n}\n"),
              (SourceLoc{3, 14}));
    EXPECT_EQ(error_loc("scenario x\nprefixes {\n  count_alpha " + value +
                        "\n}\n"),
              (SourceLoc{3, 15}));
    EXPECT_EQ(error_loc("scenario x\nverify {\n  inference_accuracy " +
                        value + "\n}\n"),
              (SourceLoc{3, 22}));
  }
}

TEST(ScenarioSpecReject, DuplicateScalarKey) {
  EXPECT_EQ(
      error_loc("scenario x\ntopology {\n  seed 1\n  seed 2\n}\n"),
      (SourceLoc{4, 3}));
}

TEST(ScenarioSpecReject, DuplicateBlock) {
  EXPECT_EQ(error_loc("scenario x\npolicy {\n}\npolicy {\n}\n"),
            (SourceLoc{4, 1}));
}

TEST(ScenarioSpecReject, MalformedPrefix) {
  EXPECT_EQ(error_loc("scenario x\ntopology {\n  explicit\n  as 5 stub\n}\n"
                      "prefixes {\n  originate 5 10.0.0.0\n}\n"),
            (SourceLoc{7, 15}));
}

TEST(ScenarioSpecReject, GeneratorKnobInExplicitTopology) {
  EXPECT_EQ(error_loc("scenario x\ntopology {\n  explicit\n  as 5 stub\n"
                      "  tier1 4\n}\n"),
            (SourceLoc{5, 3}));
}

TEST(ScenarioSpecReject, UndeclaredAsInLink) {
  // "  provider 5 6": 6 is undeclared; its token starts at column 14.
  EXPECT_EQ(error_loc("scenario x\ntopology {\n  explicit\n  as 5 stub\n"
                      "  provider 5 6\n}\n"),
            (SourceLoc{5, 14}));
}

TEST(ScenarioSpecReject, AtClauseBeyondEventScript) {
  EXPECT_EQ(error_loc("scenario x\nverify {\n  unreachable 5 10.0.0.0/8 "
                      "at 3\n}\n"),
            (SourceLoc{3, 31}));
}

TEST(ScenarioSpecReject, BadDigest) {
  EXPECT_EQ(error_loc("scenario x\nverify {\n  digest simulate abc\n}\n"),
            (SourceLoc{3, 19}));
}

TEST(ScenarioSpecReject, BaseAfterBlock) {
  EXPECT_EQ(error_loc("scenario x\npolicy {\n}\nbase small\n"),
            (SourceLoc{4, 1}));
}

TEST(ScenarioSpecReject, UnterminatedBlock) {
  const std::string text = "scenario x\ntopology {\n  seed 1\n";
  // Parsing sees 4 lines (the trailing newline yields an empty one).
  EXPECT_EQ(error_loc(text), (SourceLoc{4, 1}));
}

TEST(ScenarioSpecReject, ErrorCarriesSourceAndMessage) {
  try {
    (void)ScenarioSpec::parse("scenario x\nbogus {\n}\n", "lab.scn");
    FAIL() << "expected SpecError";
  } catch (const SpecError& error) {
    EXPECT_EQ(error.source(), "lab.scn");
    EXPECT_EQ(std::string(error.what()).find("lab.scn:2:1: "), 0u);
    EXPECT_NE(error.message().find("bogus"), std::string::npos);
  }
}

// ---- fuzz: deterministic mutations must never crash -------------------

TEST(ScenarioSpecFuzz, MutatedSpecsNeverCrash) {
  std::vector<std::string> seeds{kFullSpec};
  for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
    if (entry.path().extension() != ".scn") continue;
    std::string text;
    {
      std::ifstream in(entry.path());
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    seeds.push_back(std::move(text));
  }
  ASSERT_GE(seeds.size(), 2u);

  std::mt19937 rng(0xC0FFEE);  // fixed seed: the suite is deterministic
  std::size_t parsed_ok = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string text = seeds[rng() % seeds.size()];
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      switch (rng() % 5) {
        case 0:  // flip a byte
          text[rng() % text.size()] =
              static_cast<char>(rng() % 96 + 32);
          break;
        case 1:  // truncate
          text.resize(rng() % text.size());
          break;
        case 2:  // delete a span
          text.erase(rng() % text.size(),
                     rng() % 16);
          break;
        case 3: {  // duplicate a span elsewhere
          const std::size_t from = rng() % text.size();
          const std::size_t len =
              std::min<std::size_t>(rng() % 32, text.size() - from);
          text.insert(rng() % text.size(), text.substr(from, len));
          break;
        }
        case 4: {  // inject a hostile token
          static constexpr const char* kHostile[] = {
              "\n999999999999999999999 {", " 1e309 ", " nan ", " -nan ",
              " inf ", " infinity "};
          text.insert(rng() % text.size(), kHostile[round % 6]);
          break;
        }
      }
    }
    try {
      const ScenarioSpec spec = ScenarioSpec::parse(text, "fuzz");
      ++parsed_ok;
      // Whatever survives parsing must survive dump -> parse too.
      (void)ScenarioSpec::parse(spec.dump(), "fuzz-redump");
    } catch (const SpecError&) {
      ++rejected;
    }
  }
  // The mutator must actually exercise both paths.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(parsed_ok + rejected, 400u);
}

// ---- every knob: round trip and store identity ------------------------

/// Lines of the four knob blocks whose values are AS lists, not one knob.
bool is_list_key(const std::string& key) {
  return key == "force_tagging" || key == "looking_glass" ||
         key == "best_only" || key == "verification";
}

/// Sets every one-value line that `spec.dump()` prints in the topology,
/// prefixes, policy and vantage blocks to another value the parser
/// accepts.  Each change must survive parse(dump()) and move
/// scenario_cache_key, except `threads`, which must leave it alone; so
/// must renaming the scenario.  Returns the number of knobs walked.
std::size_t walk_every_knob(const ScenarioSpec& spec) {
  const std::string key = scenario_cache_key(spec.scenario);
  std::vector<std::string> lines;
  std::istringstream in(spec.dump());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto with_line = [&](std::size_t at, const std::string& line) {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out += i == at ? line : lines[i];
      out += '\n';
    }
    return out;
  };

  std::size_t walked = 0;
  std::string block;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::istringstream words(lines[i]);
    std::vector<std::string> toks;
    for (std::string tok; words >> tok;) toks.push_back(tok);
    if (toks.size() == 2 && toks[1] == "{") {
      block = toks[0];
      continue;
    }
    if (toks.size() == 2 && toks[0] == "scenario") {
      const ScenarioSpec renamed =
          ScenarioSpec::parse(with_line(i, lines[i] + "-renamed"));
      EXPECT_NE(renamed.scenario.name, spec.scenario.name);
      EXPECT_EQ(scenario_cache_key(renamed.scenario), key);
    }
    const bool knob_block = block == "topology" || block == "prefixes" ||
                            block == "policy" || block == "vantage";
    if (!knob_block || toks.size() != 2 || is_list_key(toks[0])) continue;
    SCOPED_TRACE(block + " " + lines[i]);

    // Candidate values: an integer one up or down, else half the number
    // (or 0.5 for zero).  One of them satisfies every knob check.
    std::vector<std::string> candidates;
    std::uint64_t n = 0;
    const char* end = toks[1].data() + toks[1].size();
    if (std::from_chars(toks[1].data(), end, n).ptr == end) {
      candidates = {std::to_string(n + 1), std::to_string(n - 1)};
    } else {
      double d = 0.0;
      std::from_chars(toks[1].data(), end, d);
      std::ostringstream half;
      half.precision(17);
      half << (d == 0.0 ? 0.5 : d / 2);
      candidates = {half.str()};
    }
    std::optional<ScenarioSpec> changed;
    for (const std::string& value : candidates) {
      try {
        changed =
            ScenarioSpec::parse(with_line(i, "  " + toks[0] + " " + value));
        break;
      } catch (const SpecError&) {
      }
    }
    if (!changed) {
      ADD_FAILURE() << "no other value parses";
      continue;
    }
    ++walked;
    EXPECT_NE(changed->scenario, spec.scenario) << "the knob set nothing";
    EXPECT_EQ(ScenarioSpec::parse(changed->dump()), *changed);
    if (toks[0] == "threads") {
      EXPECT_EQ(scenario_cache_key(changed->scenario), key);
    } else {
      EXPECT_NE(scenario_cache_key(changed->scenario), key);
    }
  }
  return walked;
}

TEST(ScenarioSpecKnobs, EveryKnobRoundTripsAndMovesTheCacheKey) {
  const ScenarioSpec generated =
      ScenarioSpec::parse_file(kScenarioDir / "small.scn");
  ASSERT_FALSE(generated.scenario.explicit_world.has_value());
  // 49 scalar knobs today; a knob added later is walked without an edit.
  EXPECT_GE(walk_every_knob(generated), 49u);

  const ScenarioSpec explicit_world = ScenarioSpec::parse(kFullSpec);
  ASSERT_TRUE(explicit_world.scenario.explicit_world.has_value());
  // Generator knobs are neither printed nor accepted in an explicit world.
  EXPECT_GE(walk_every_knob(explicit_world), 30u);
}

// ---- every accepted knob value runs ------------------------------------

TEST(ScenarioSpecKnobs, ParseNumberIsTheSpecGrammar) {
  EXPECT_EQ(parse_number("0.25"), 0.25);
  EXPECT_EQ(parse_number("1e3"), 1000.0);
  EXPECT_EQ(parse_number("-2"), -2.0);
  for (const std::string text :
       {"nan", "-nan", "inf", "infinity", "0.5x", "", " 1", "1e309"}) {
    EXPECT_EQ(parse_number(text), std::nullopt) << "'" << text << "'";
  }
}

TEST(ScenarioSpecKnobs, GeneratorPreconditionsFailAtParse) {
  // Each value used to pass the parse and then stop Synthesize with a
  // generator error; each is now a SpecError at the value.
  const std::pair<std::string, std::string> cases[] = {
      {"topology", "tier1 1"},
      {"topology", "tier2 0"},
      {"topology", "tier3 0"},
      {"topology", "max_stub_providers 1"},
      {"prefixes", "count_alpha 0"},
      {"prefixes", "max_transit_extra 0"},
      {"policy", "max_prepend 0"}};
  for (const auto& [block, line] : cases) {
    SCOPED_TRACE(line);
    const std::size_t value_column = 3 + line.find(' ') + 1;
    EXPECT_EQ(error_loc("scenario x\nbase small 42\n" + block + " {\n  " +
                        line + "\n}\n"),
              (SourceLoc{4, value_column}));
  }
}

TEST(ScenarioSpecKnobs, GeneratedWorldLackingARequiredAsFailsAtParse) {
  // small's lists name AS 3549, its third Tier-1, and AS 6667, its third
  // Tier-3.  These counts used to parse and then stop Synthesize with
  // "looking_glass AS ... is not in the synthesized topology"; the error
  // is now at the tier-count key that left the AS out.
  const auto message = [](const std::string& text) {
    try {
      (void)ScenarioSpec::parse(text);
    } catch (const SpecError& error) {
      return error.message();
    }
    return std::string("parsed");
  };
  const std::string tier1 = "scenario x\nbase small 42\ntopology {\n  tier1 2\n}\n";
  EXPECT_EQ(error_loc(tier1), (SourceLoc{4, 3}));
  EXPECT_EQ(message(tier1),
            "looking_glass AS 3549 is not in the generated topology");
  const std::string tier3 = "scenario x\nbase small 42\ntopology {\n  tier3 1\n}\n";
  EXPECT_EQ(error_loc(tier3), (SourceLoc{4, 3}));
  EXPECT_EQ(message(tier3),
            "looking_glass AS 6667 is not in the generated topology");
  // A list or override the spec writes is reported at the AS itself.
  EXPECT_EQ(error_loc(tier1 + "vantage {\n  looking_glass 1 3549\n}\n"),
            (SourceLoc{7, 19}));
  EXPECT_EQ(error_loc("scenario x\nbase small 42\noverride {\n"
                      "  prefer 1 99999 200\n}\n"),
            (SourceLoc{4, 12}));
  // The same lists fit once the counts create them.
  EXPECT_NO_THROW((void)ScenarioSpec::parse(
      "scenario x\nbase small 42\ntopology {\n  tier1 5\n  tier3 8\n}\n"));
}

TEST(ScenarioSpecKnobs, TierCountsPastThirtyTwoBitAsNumbersFailAtParse) {
  // `stubs 18446744073709551615` used to parse and then stop Synthesize
  // with "vector::reserve" and no position.  A count whose tier numbers
  // ASes past 32 bits now fails at its key; each key sits on line 5 at
  // column 5 here.
  const auto message = [](const std::string& text) {
    try {
      (void)ScenarioSpec::parse(text);
    } catch (const SpecError& error) {
      return error.message();
    }
    return std::string("parsed");
  };
  for (const std::string key : {"tier1", "tier2", "tier3", "stubs"}) {
    SCOPED_TRACE(key);
    const std::string text = "scenario x\nbase small 42\ntopology {\n"
                             "  seed 42\n    " +
                             key + " 18446744073709551615\n}\n";
    EXPECT_EQ(error_loc(text), (SourceLoc{5, 5}));
    EXPECT_EQ(message(text),
              "'" + key + "' ASes would need numbers past 4294967295");
  }
  // Each tier is numbered past the ones before it, so a Tier-1 count that
  // fits can push the stubs past 32 bits: the error is at the last count
  // the spec writes.
  const std::string pushed =
      "scenario x\nbase small 42\ntopology {\n  tier1 4294967000\n}\n";
  EXPECT_EQ(error_loc(pushed), (SourceLoc{4, 3}));
  EXPECT_EQ(message(pushed),
            "'stubs' ASes would need numbers past 4294967295");
  // A count that fits parses (Synthesize is not run on it).
  EXPECT_EQ(message("scenario x\nbase small 42\ntopology {\n"
                    "  stubs 4294900000\n}\n"),
            "parsed");
  // Scenarios built in code meet the same bound in the generator.
  Scenario built = Scenario::small(42);
  built.topo_params.stub_count = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)synthesize(built), std::invalid_argument);
}

/// small(42) with one knob line set.  Its vantages are cut to the two
/// Tier-1s (AS 7018, AS 1) that every accepted topology has: small's own
/// lists name ASes that only larger tiers create (AS 3549 is the third
/// Tier-1), so the parser would reject the least tier counts.
std::string knob_spec(const std::string& block, const std::string& key,
                      const std::string& value) {
  std::string text = "scenario probe\nbase small 42\n";
  if (block != "vantage") {
    text += "vantage {\n  looking_glass 1\n  best_only 7018\n"
            "  verification 1\n}\n";
  }
  return text + block + " {\n  " + key + " " + value + "\n}\n";
}

bool accepts(const std::string& block, const std::string& key,
             const std::string& value) {
  try {
    (void)ScenarioSpec::parse(knob_spec(block, key, value));
    return true;
  } catch (const SpecError&) {
    return false;
  }
}

TEST(ScenarioSpecKnobs, BothEndsOfEveryAcceptedRangeSynthesize) {
  // The size knobs' accepted ranges have no upper end a run can reach;
  // four times small's value stands in for it.
  const std::vector<std::pair<std::string, std::string>> size_caps = {
      {"tier1", "20"},   {"tier2", "48"},
      {"tier3", "160"},  {"stubs", "720"},
      {"max_stub_prefixes", "32"}, {"max_transit_extra", "32"}};
  const ScenarioSpec base =
      ScenarioSpec::parse(knob_spec("topology", "seed", "42"));
  std::istringstream dump(base.dump());
  std::string block;
  std::size_t walked = 0;
  for (std::string line; std::getline(dump, line);) {
    std::istringstream words(line);
    std::vector<std::string> toks;
    for (std::string tok; words >> tok;) toks.push_back(tok);
    if (toks.size() == 2 && toks[1] == "{") block = toks[0];
    const bool knob_block = block == "topology" || block == "prefixes" ||
                            block == "policy" || block == "vantage";
    if (!knob_block || toks.size() != 2 || toks[1] == "{" ||
        is_list_key(toks[0])) {
      continue;
    }
    const std::string& key = toks[0];
    // Each end is the least or greatest value the row accepts: integers
    // probed up from 0 and down from the widest width, real numbers at 0
    // or the least positive double and at 1 or the greatest double.
    std::vector<std::string> ends;
    if (accepts(block, key, "0.5")) {
      ends.push_back(accepts(block, key, "0") ? "0" : "4.9406564584124654e-324");
      ends.push_back(accepts(block, key, "1.5") ? "1.7976931348623157e308"
                                                : "1");
    } else {
      for (int n = 0; n < 4 && ends.empty(); ++n) {
        if (accepts(block, key, std::to_string(n))) {
          ends.push_back(std::to_string(n));
        }
      }
      for (const char* widest : {"18446744073709551615", "4294967295", "255"}) {
        if (accepts(block, key, widest)) {
          ends.push_back(widest);
          break;
        }
      }
      for (const auto& [capped, cap] : size_caps) {
        if (capped == key) ends.back() = cap;
      }
    }
    ASSERT_EQ(ends.size(), 2u) << block << " " << key;
    ++walked;
    for (const std::string& value : ends) {
      SCOPED_TRACE(block + " " + key + " " + value);
      const ScenarioSpec spec =
          ScenarioSpec::parse(knob_spec(block, key, value));
      EXPECT_NO_THROW((void)synthesize(spec.scenario));
    }
  }
  EXPECT_GE(walked, 49u);
}

// ---- docs/SCENARIOS.md names every key dump() prints ------------------

TEST(ScenarioSpecDocs, ReferenceNamesEveryKeyDumpPrints) {
  std::string doc;
  {
    std::ifstream in(kScenarioDir.parent_path() / "docs" / "SCENARIOS.md");
    ASSERT_TRUE(in) << "docs/SCENARIOS.md not found";
    doc.assign(std::istreambuf_iterator<char>(in), {});
  }
  // A key is named as inline code (`key` or `key ...`) or as the first
  // word of an indented line of a fenced example.
  const auto named = [&](const std::string& key) {
    return doc.find('`' + key + '`') != std::string::npos ||
           doc.find('`' + key + ' ') != std::string::npos ||
           doc.find("\n  " + key + ' ') != std::string::npos ||
           doc.find("\n  " + key + '\n') != std::string::npos;
  };
  std::vector<ScenarioSpec> specs = load_spec_dir(kScenarioDir);
  specs.push_back(ScenarioSpec::parse(kFullSpec));
  for (const ScenarioSpec& spec : specs) {
    std::istringstream text(spec.dump());
    for (std::string line; std::getline(text, line);) {
      if (line.rfind("  ", 0) != 0) continue;  // block headers and braces
      std::istringstream words(line);
      std::string key;
      words >> key;
      EXPECT_TRUE(named(key)) << "docs/SCENARIOS.md does not name '" << key
                              << "' (" << spec.source << ")";
    }
  }
}

// ---- required_stage ---------------------------------------------------

TEST(ScenarioSpec, RequiredStageTracksDeepestCheck) {
  const char* base = "scenario x\ntopology {\n  explicit\n  as 5 stub\n}\n";
  const auto with_verify = [&](const char* verify) {
    return ScenarioSpec::parse(std::string(base) + "verify {\n" + verify +
                               "\n}\n");
  };
  EXPECT_EQ(with_verify("  unreachable 5 10.0.0.0/8").required_stage(),
            Stage::kSynthesize);
  EXPECT_EQ(with_verify("  converged").required_stage(), Stage::kSimulate);
  EXPECT_EQ(with_verify("  inference_accuracy 50").required_stage(),
            Stage::kInfer);
  EXPECT_EQ(with_verify("  sa_prevalence 5 0 100").required_stage(),
            Stage::kAnalyze);
  EXPECT_EQ(with_verify(
                "  digest observe 00112233445566778899aabbccddeeff")
                .required_stage(),
            Stage::kObserve);
}

// ---- synthesize-time vantage/override validation (the silent-miss fix) --

TEST(ScenarioValidation, AbsentLookingGlassAsFailsSynthesize) {
  Scenario scenario = Scenario::small(42);
  scenario.looking_glass.push_back(999999);  // nowhere in the topology
  try {
    (void)synthesize(scenario);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("looking_glass"), std::string::npos) << what;
    EXPECT_NE(what.find("999999"), std::string::npos) << what;
  }
}

TEST(ScenarioValidation, AbsentVerificationAsFailsSynthesize) {
  Scenario scenario = Scenario::small(42);
  scenario.verification_ases.push_back(424242);
  EXPECT_THROW((void)synthesize(scenario), std::invalid_argument);
}

TEST(ScenarioValidation, AbsentOverrideNeighborFailsSynthesize) {
  Scenario scenario = Scenario::small(42);
  PolicyOverride o;
  o.kind = PolicyOverride::Kind::kPreferNeighbor;
  o.as = 1;
  o.neighbor = 987654;
  o.value = 140;
  scenario.overrides.push_back(o);
  EXPECT_THROW((void)synthesize(scenario), std::invalid_argument);
}

TEST(ScenarioValidation, ValidScenarioStillSynthesizes) {
  Scenario scenario = Scenario::small(42);
  const GroundTruth truth = synthesize(scenario);
  EXPECT_TRUE(truth.topo.graph.contains(util::AsNumber(1)));
}

}  // namespace
}  // namespace bgpolicy::core
