// store_top: per-kind census of an artifact store directory — how many
// artifacts of each kind (GroundTruth, SimArtifact, ..., SimChunk) a store
// holds and how many bytes each kind costs.  The operational companion to
// store_gc: run it before choosing a --max-bytes target, or after a sweep
// to see what the cache is actually made of.
//
// Reads only each file's 24-byte codec header (io::peek_artifact_header),
// so the census stays cheap on multi-gigabyte stores; files without a
// valid header are reported as "foreign", and entries another codec
// version wrote as "stale (codec vN)": no decoder of this build reads
// them, so they are what store_gc can reclaim.
#include <array>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "io/artifact_codec.h"
#include "tool_args.h"

namespace {

struct KindRow {
  std::string label;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

std::optional<bgpolicy::io::ArtifactHeader> read_header(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::array<std::uint8_t, bgpolicy::io::kArtifactHeaderBytes> prefix{};
  in.read(reinterpret_cast<char*>(prefix.data()),
          static_cast<std::streamsize>(prefix.size()));
  if (!in) return std::nullopt;
  return bgpolicy::io::peek_artifact_header(prefix);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgpolicy;

  bool show_entries = false;
  tools::ToolArgs args("store_top",
                       "per-kind artifact census of a store directory");
  args.positional("STORE_DIR", "artifact store directory", 1, 1);
  args.flag("--entries", &show_entries,
            "also list every artifact (kind, bytes, pinned)");
  if (const std::optional<int> code = args.parse(argc, argv)) return *code;

  try {
    const core::ArtifactStore store(args.positionals.front());
    const std::vector<core::ArtifactStore::Entry> entries = store.list();

    // Rows indexed by raw kind tag; slot 0 collects foreign/unreadable.
    // Stale entries get one row per codec version.
    std::vector<KindRow> rows;
    std::map<std::uint16_t, KindRow> stale;
    const auto row_for = [&rows](std::uint16_t kind) -> KindRow& {
      if (rows.size() <= kind) rows.resize(kind + 1);
      return rows[kind];
    };
    row_for(0).label = "foreign";
    for (const io::ArtifactKind kind : io::kArtifactKinds) {
      row_for(static_cast<std::uint16_t>(kind)).label = io::to_string(kind);
    }

    std::uint64_t total_bytes = 0;
    std::uint64_t pinned_count = 0;
    for (const core::ArtifactStore::Entry& entry : entries) {
      const auto header = read_header(entry.path);
      const bool is_stale =
          header && header->version != io::kArtifactCodecVersion;
      const std::uint16_t kind = header ? header->kind : 0;
      KindRow& row = is_stale ? stale[header->version] : row_for(kind);
      if (row.label.empty()) {
        row.label = is_stale ? "stale (codec v" +
                                   std::to_string(header->version) + ")"
                             : "kind-" + std::to_string(kind);
      }
      ++row.count;
      row.bytes += entry.bytes;
      total_bytes += entry.bytes;
      if (entry.pinned) ++pinned_count;
      if (show_entries) {
        std::printf("%s  %-18s %12llu bytes%s\n",
                    entry.path.filename().string().c_str(),
                    row.label.c_str(),
                    static_cast<unsigned long long>(entry.bytes),
                    entry.pinned ? "  [pinned]" : "");
      }
    }

    for (auto& by_version : stale) {
      rows.push_back(std::move(by_version.second));
    }
    std::printf("%-18s %8s %14s\n", "kind", "count", "bytes");
    for (const KindRow& row : rows) {
      if (row.count == 0) continue;
      std::printf("%-18s %8llu %14llu\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.count),
                  static_cast<unsigned long long>(row.bytes));
    }
    std::printf("%-18s %8zu %14llu  (%llu pinned)\n", "total",
                entries.size(),
                static_cast<unsigned long long>(total_bytes),
                static_cast<unsigned long long>(pinned_count));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "store_top: %s\n", error.what());
    return 1;
  }
  return 0;
}
