// CI smoke test for cross-process sweep resume (ISSUE 4): runs the same
// sweep twice against one artifact store and asserts the second run
// executes ZERO Simulate stages (every artifact is served from disk) while
// producing byte-identical products.  Exits non-zero with a diagnostic on
// any violation, so a broken cache key, codec, or store shows up as a red
// CI step, not a silent full recompute.
//
// After both runs every `.art` entry in the store must peek as this
// build's codec version with a known kind: a writer left on an older frame
// (or a stray file) fails the step instead of costing silent misses.
//
// (An existing populated store is fine if this build wrote it — the first
// run then loads too.)
#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "tool_args.h"

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"

using namespace bgpolicy;

namespace {

std::vector<core::SweepVariant> make_variants() {
  // Two distinct worlds plus an inference-knob variant: exercises both the
  // shared-upstream path and the per-variant artifacts.
  core::SweepVariant base;
  base.label = "base";
  base.scenario = core::Scenario::small(31);

  core::SweepVariant no_peers = base;
  no_peers.label = "no-peers";
  no_peers.options.gao = asrel::GaoParams{};
  no_peers.options.gao->detect_peers = false;

  core::SweepVariant other;
  other.label = "seed32";
  other.scenario = core::Scenario::small(32);

  return {base, no_peers, other};
}

std::string report_digest(const core::SweepReport& report) {
  std::string out;
  for (const core::SweepRun& run : report.runs) {
    out += run.label + "\n";
    out += asrel::canonical_serialize(run.inference.inferred);
    out += asrel::canonical_serialize(run.inference.tiers);
    out += core::canonical_serialize(run.analyses);
  }
  return out;
}

/// True when the file at `path` opens with a header of this build's codec
/// version and a kind it writes.
bool current_artifact(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::array<std::uint8_t, io::kArtifactHeaderBytes> prefix{};
  in.read(reinterpret_cast<char*>(prefix.data()),
          static_cast<std::streamsize>(prefix.size()));
  if (!in) return false;
  const std::optional<io::ArtifactHeader> header =
      io::peek_artifact_header(prefix);
  return header && header->version == io::kArtifactCodecVersion &&
         std::ranges::any_of(io::kArtifactKinds, [&](io::ArtifactKind kind) {
           return header->kind == static_cast<std::uint16_t>(kind);
         });
}

void print_ledger(const char* label, const core::SweepReport& report) {
  const auto& c = report.counters;
  const auto& l = report.loads;
  std::cout << label << ": executed"
            << " synthesize=" << c.synthesize << " simulate=" << c.simulate
            << " observe=" << c.observe << " infer=" << c.infer
            << " analyze=" << c.analyze << " | loaded"
            << " synthesize=" << l.synthesize << " simulate=" << l.simulate
            << " observe=" << l.observe << " infer=" << l.infer
            << " analyze=" << l.analyze << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  tools::ToolArgs args("sweep_resume_smoke",
                       "CI smoke test for cross-process sweep resume: runs "
                       "one sweep twice against a store and asserts the "
                       "second run executes zero stages");
  args.positional("STORE_DIR",
                  "artifact store directory (default: a fresh directory "
                  "under the system temp path)",
                  0, 1);
  if (const std::optional<int> code = args.parse(argc, argv)) return *code;

  std::filesystem::path store_dir;
  if (!args.positionals.empty()) {
    store_dir = args.positionals.front();
  } else {
    store_dir = std::filesystem::temp_directory_path() /
                "bgpolicy-sweep-resume-smoke";
    std::filesystem::remove_all(store_dir);
  }
  core::ArtifactStore store(store_dir);
  std::cout << "artifact store: " << store.root().string() << "\n";

  const std::vector<core::SweepVariant> variants = make_variants();

  const core::SweepReport first = core::sweep(variants, 0, &store);
  print_ledger("first run ", first);

  const core::SweepReport second = core::sweep(variants, 0, &store);
  print_ledger("second run", second);

  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      ++failures;
    }
  };

  expect(second.counters.simulate == 0,
         "second run executed " + std::to_string(second.counters.simulate) +
             " Simulate stages (want 0: every artifact served from the store)");
  expect(second.counters.synthesize == 0 && second.counters.observe == 0,
         "second run re-executed upstream stages");
  expect(second.counters.infer == 0 && second.counters.analyze == 0,
         "second run re-executed variant stages");
  expect(second.loads.simulate == first.counters.simulate +
                                      first.loads.simulate,
         "second-run Simulate loads do not cover every upstream scenario");
  expect(report_digest(first) == report_digest(second),
         "products differ between the computing run and the resumed run");
  for (const core::ArtifactStore::Entry& entry : store.list()) {
    expect(current_artifact(entry.path),
           entry.path.filename().string() +
               " is not a codec v" +
               std::to_string(io::kArtifactCodecVersion) +
               " artifact of a known kind");
  }

  if (failures == 0) {
    std::cout << "OK: resumed sweep executed zero stages and reproduced "
                 "byte-identical products ("
              << store.size() << " artifacts on disk)\n";
    return EXIT_SUCCESS;
  }
  return EXIT_FAILURE;
}
