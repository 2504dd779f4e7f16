#include "io/artifact_codec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/artifact_store.h"
#include "io/binary_table.h"

namespace bgpolicy::io {

namespace {

constexpr char kMagic[4] = {'B', 'G', 'P', 'A'};

/// count | the AS numbers as one column.
void put_ases(ArtifactWriter& w, std::span<const util::AsNumber> ases) {
  w.put_count(ases.size());
  w.put_column(ases);
}

/// Paths as their count, hop count, u16 lengths and hop buffer.
void put_paths(ArtifactWriter& w, std::span<const util::AsNumber> hops,
               std::span<const std::uint32_t> offsets) {
  w.put_count(offsets.size() - 1);
  w.put_count(hops.size());
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    const std::uint32_t length = offsets[i] - offsets[i - 1];
    if (length > 0xFFFF) {
      throw std::length_error("artifact: a path past 65,535 hops");
    }
    w.put(static_cast<std::uint16_t>(length));
  }
  w.put_column(hops);
}

struct StoredPaths {
  std::vector<util::AsNumber> hops;
  std::vector<std::uint32_t> offsets;
};

StoredPaths get_paths(ArtifactReader& r) {
  const std::size_t paths = r.get_count(sizeof(std::uint16_t));
  const std::uint64_t hop_count = r.get_count(sizeof(std::uint32_t));
  // The stored u16 lengths turned into paths + 1 offsets, which must sum to
  // the hop count.
  const std::span<const std::uint8_t> lengths =
      r.take(paths * sizeof(std::uint16_t));
  StoredPaths out;
  out.offsets.resize(paths + 1);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < paths; ++i) {
    std::uint16_t length = 0;
    std::memcpy(&length, lengths.data() + i * sizeof(length), sizeof(length));
    sum += length;
    if (sum > hop_count) {
      throw std::invalid_argument("artifact: lengths past their total");
    }
    out.offsets[i + 1] = static_cast<std::uint32_t>(sum);
  }
  if (sum != hop_count) {
    throw std::invalid_argument("artifact: lengths short of their total");
  }
  out.hops = r.get_column<util::AsNumber>(hop_count);
  return out;
}

void put_set(ArtifactWriter& w, const util::FlatSet64& set) {
  w.put_count(set.keys().size());
  w.write(set.has_empty_key());
  w.put_column(set.keys());
}

util::FlatSet64 get_set(ArtifactReader& r) {
  const std::size_t slots = r.get_count(sizeof(std::uint64_t));
  bool has_empty_key = false;
  r.read(has_empty_key);
  return util::FlatSet64::adopt(r.get_column<std::uint64_t>(slots),
                                has_empty_key);
}

}  // namespace

// ---------------------------------------------------- hand-written forms --

void encode_field(ArtifactWriter& w, const core::GroundTruth& truth) {
  w.write(truth.topo);
  w.write(truth.plan.prefixes);
  w.write(truth.plan.transit_block);
  w.write(truth.gen);
  w.write(truth.originations);
}

void decode_field(ArtifactReader& r, core::GroundTruth& truth) {
  r.read(truth.topo);
  // The plan's origin index is rebuilt in appearance order — the order
  // allocate_prefixes adds them (prefix_alloc.cc).
  std::vector<topo::OriginatedPrefix> prefixes;
  r.read(prefixes);
  truth.plan.prefixes.reserve(prefixes.size());
  for (const topo::OriginatedPrefix& prefix : prefixes) truth.plan.add(prefix);
  r.read(truth.plan.transit_block);
  r.read(truth.gen);
  r.read(truth.originations);
}

void encode_field(ArtifactWriter& w, const core::InferenceProducts& inference) {
  // The inferred edges in (lo, hi) order, each as lo | hi | type.
  struct Edge {
    util::AsNumber lo;
    util::AsNumber hi;
    asrel::EdgeType type;
  };
  std::vector<Edge> edges;
  edges.reserve(inference.inferred.edge_count());
  inference.inferred.for_each(
      [&](util::AsNumber lo, util::AsNumber hi, asrel::EdgeType type) {
        edges.push_back({lo, hi, type});
      });
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
  });
  w.put_count(edges.size());
  for (const Edge& edge : edges) {
    w.write(edge.lo);
    w.write(edge.hi);
    w.write(edge.type);
  }
  w.write(inference.tiers);
}

void decode_field(ArtifactReader& r, core::InferenceProducts& inference) {
  const std::size_t edges = r.get_count(2 * sizeof(std::uint32_t) + 1);
  for (std::size_t i = 0; i < edges; ++i) {
    util::AsNumber lo;
    util::AsNumber hi;
    asrel::EdgeType type = asrel::EdgeType::kPeer;
    r.read(lo);
    r.read(hi);
    r.read(type);
    inference.inferred.set(lo, hi, type);
  }
  // The annotated graph is a pure function of the classification; rebuild
  // instead of storing a second copy.
  inference.inferred_graph = inference.inferred.to_graph();
  r.read(inference.tiers);
}

void encode_field(ArtifactWriter& w, const topo::AsGraph& graph) {
  put_ases(w, graph.ases());
  w.put_count(graph.edges().size());
  for (const topo::EdgeRecord& edge : graph.edges()) {
    w.write(edge.a);
    w.write(edge.b);
    w.write(edge.b_is_to_a);
  }
}

void decode_field(ArtifactReader& r, topo::AsGraph& graph) {
  std::vector<util::AsNumber> ases;
  r.read(ases);
  for (const util::AsNumber as : ases) graph.add_as(as);
  const std::size_t edges = r.get_count(2 * sizeof(std::uint32_t) + 1);
  for (std::size_t i = 0; i < edges; ++i) {
    util::AsNumber a;
    util::AsNumber b;
    topo::RelKind kind = topo::RelKind::kPeer;
    r.read(a);
    r.read(b);
    r.read(kind);
    // Replaying the creation-order records reproduces per-node neighbor
    // ordering exactly (topology/as_graph.h EdgeRecord).
    switch (kind) {
      case topo::RelKind::kCustomer: graph.add_provider_customer(a, b); break;
      case topo::RelKind::kPeer: graph.add_peer_peer(a, b); break;
      case topo::RelKind::kProvider:
        throw std::invalid_argument("artifact: bad edge record");
    }
  }
}

void encode_field(ArtifactWriter& w, const bgp::BgpTable& table) {
  // A length-prefixed blob, the table encoded straight into the artifact
  // buffer: the prefix is patched once the table's size is known.
  std::vector<std::uint8_t>& out = w.buffer();
  const std::size_t length_at = out.size();
  w.put(std::uint64_t{0});
  append_table(table, out);
  const std::uint64_t length = out.size() - length_at - sizeof(std::uint64_t);
  std::memcpy(out.data() + length_at, &length, sizeof(length));
}

void decode_field(ArtifactReader& r, bgp::BgpTable& table) {
  // deserialize_table rejects its own corruption (magic, bounds, trailing
  // bytes) with the same invalid_argument contract.
  table = deserialize_table(r.take(r.get_count(1)));
}

// Gao's state and the path index as they are laid out (the file comment
// of artifact_codec.h).

void encode_field(ArtifactWriter& w, const asrel::GaoInference& gao) {
  put_paths(w, gao.hops(), gao.offsets());
  put_set(w, gao.edges());
  w.put_count(gao.degrees().keys().size());
  w.put_column(gao.degrees().keys());
  w.put_column(gao.degrees().values());
  put_ases(w, gao.ases());
}

void decode_field(ArtifactReader& r, asrel::GaoInference& gao) {
  StoredPaths paths = get_paths(r);
  util::FlatSet64 edges = get_set(r);
  const std::size_t slots =
      r.get_count(sizeof(std::uint64_t) + sizeof(std::uint32_t));
  util::FlatMap64::Slots degree;
  degree.keys = r.get_column<std::uint64_t>(slots);
  degree.values = r.get_column<std::uint32_t>(slots);
  std::vector<util::AsNumber> ases;
  r.read(ases);
  gao = asrel::GaoInference::adopt(
      std::move(paths.hops), std::move(paths.offsets), std::move(edges),
      util::FlatMap64::adopt(std::move(degree)), std::move(ases));
}

void encode_field(ArtifactWriter& w, const core::PathIndex& index) {
  put_paths(w, index.hops(), index.offsets());
  for (const bgp::Prefix& prefix : index.prefixes()) w.put(prefix.network());
  for (const bgp::Prefix& prefix : index.prefixes()) w.put(prefix.length());
  put_set(w, index.adjacency());
}

void decode_field(ArtifactReader& r, core::PathIndex& index) {
  StoredPaths paths = get_paths(r);
  const std::size_t entries = paths.offsets.size() - 1;
  const std::vector<std::uint32_t> networks =
      r.get_column<std::uint32_t>(entries);
  const std::vector<std::uint8_t> lengths = r.get_column<std::uint8_t>(entries);
  std::vector<bgp::Prefix> prefixes;
  prefixes.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    if (lengths[i] > 32) {
      throw std::invalid_argument("artifact: bad prefix length");
    }
    prefixes.emplace_back(networks[i], lengths[i]);
    if (prefixes.back().network() != networks[i]) {
      throw std::invalid_argument("artifact: prefix with host bits set");
    }
  }
  index = core::PathIndex::adopt(std::move(paths.hops),
                                 std::move(paths.offsets), std::move(prefixes),
                                 get_set(r));
}

namespace {

// ------------------------------------------------------------- framing ----

/// The frame checksum is core::xxh64 of the payload under this seed.
constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;

/// Encodes one artifact: its fields are written behind header bytes
/// reserved at the front of the buffer, which are then filled in place —
/// the payload is written once and never copied.
template <typename T>
std::vector<std::uint8_t> encode_framed(ArtifactKind kind, const T& artifact) {
  std::vector<std::uint8_t> bytes(kArtifactHeaderBytes);
  ArtifactWriter(bytes).write(artifact);
  const auto payload =
      std::span<const std::uint8_t>(bytes).subspan(kArtifactHeaderBytes);

  std::vector<std::uint8_t> header;
  header.reserve(kArtifactHeaderBytes);
  for (const char c : kMagic) header.push_back(static_cast<std::uint8_t>(c));
  ArtifactWriter w(header);
  w.put(kArtifactCodecVersion);
  w.put(static_cast<std::uint16_t>(kind));
  w.put(static_cast<std::uint64_t>(payload.size()));
  w.put(core::xxh64(payload, kChecksumSeed));
  std::copy(header.begin(), header.end(), bytes.begin());
  return bytes;
}

/// Validates the header and returns the payload span.  `checksum_matches`
/// is a CheckedArtifact's verdict on these very bytes; without one the
/// payload is hashed here.
std::span<const std::uint8_t> unframe(ArtifactKind kind,
                                      std::span<const std::uint8_t> bytes,
                                      std::optional<bool> checksum_matches) {
  ArtifactReader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.get<std::uint8_t>());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::invalid_argument("artifact: bad magic");
  }
  if (r.get<std::uint16_t>() != kArtifactCodecVersion) {
    throw std::invalid_argument("artifact: unsupported codec version");
  }
  const std::uint16_t stored_kind = r.get<std::uint16_t>();
  if (stored_kind != static_cast<std::uint16_t>(kind)) {
    throw std::invalid_argument("artifact: kind mismatch");
  }
  const std::uint64_t payload_size = r.get<std::uint64_t>();
  const std::uint64_t checksum = r.get<std::uint64_t>();
  if (payload_size != bytes.size() - kArtifactHeaderBytes) {
    throw std::invalid_argument("artifact: truncated or oversized payload");
  }
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kArtifactHeaderBytes);
  if (!checksum_matches) {
    checksum_matches = core::xxh64(payload, kChecksumSeed) == checksum;
  }
  if (!*checksum_matches) {
    throw std::invalid_argument("artifact: checksum mismatch");
  }
  return payload;
}

/// Reads the payload's fields with the trailing-bytes check and translates
/// any structural failure (bounds, invariant violations inside replayed
/// builders) into the decoder contract's invalid_argument.
template <typename T>
T decode_framed(ArtifactKind kind, std::span<const std::uint8_t> bytes,
                std::optional<bool> checksum_matches = std::nullopt) {
  try {
    return read_fields<T, std::uint64_t>(
        unframe(kind, bytes, checksum_matches));
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& error) {
    throw std::invalid_argument(std::string("artifact: corrupt payload (") +
                                error.what() + ")");
  }
}

/// The verdict and the bytes come from one CheckedArtifact.
template <typename T>
T decode_framed(ArtifactKind kind, const CheckedArtifact& checked) {
  return decode_framed<T>(kind, checked.bytes(), checked.checksum_matches());
}

}  // namespace

// core::hash_entry's payload hash skips exactly the frame header.
static_assert(kArtifactHeaderBytes == core::kEntryHeaderBytes);

CheckedArtifact::CheckedArtifact(core::MappedEntry entry)
    : entry_(std::move(entry)), bytes_(entry_.bytes()) {
  check(entry_.hash(kChecksumSeed));
}

CheckedArtifact::CheckedArtifact(std::vector<std::uint8_t> bytes)
    : owned_(std::move(bytes)), bytes_(owned_) {
  check(core::hash_entry(bytes_, kChecksumSeed));
}

void CheckedArtifact::check(core::EntryHashes hashes) {
  digest_ = std::move(hashes.digest);
  if (bytes_.size() >= kArtifactHeaderBytes) {
    // The checksum field closes the header (see the layout above).
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes_.data() + kArtifactHeaderBytes - sizeof(stored),
                sizeof(stored));
    checksum_matches_ = stored == hashes.payload;
  }
}

const char* to_string(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kGroundTruth: return "ground_truth";
    case ArtifactKind::kSimArtifact: return "sim_artifact";
    case ArtifactKind::kObservations: return "observations";
    case ArtifactKind::kInferenceProducts: return "inference_products";
    case ArtifactKind::kAnalysisSuite: return "analysis_suite";
    case ArtifactKind::kSimChunk: return "sim_chunk";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const core::GroundTruth& truth) {
  return encode_framed(ArtifactKind::kGroundTruth, truth);
}
std::vector<std::uint8_t> encode(const core::SimArtifact& sim) {
  return encode_framed(ArtifactKind::kSimArtifact, sim);
}
std::vector<std::uint8_t> encode(const core::Observations& observations) {
  return encode_framed(ArtifactKind::kObservations, observations);
}
std::vector<std::uint8_t> encode(const core::InferenceProducts& inference) {
  return encode_framed(ArtifactKind::kInferenceProducts, inference);
}
std::vector<std::uint8_t> encode(const core::AnalysisSuite& suite) {
  return encode_framed(ArtifactKind::kAnalysisSuite, suite);
}
std::vector<std::uint8_t> encode(const core::SimChunk& chunk) {
  return encode_framed(ArtifactKind::kSimChunk, chunk);
}

core::GroundTruth decode_ground_truth(std::span<const std::uint8_t> bytes) {
  return decode_framed<core::GroundTruth>(ArtifactKind::kGroundTruth, bytes);
}
core::SimArtifact decode_sim_artifact(std::span<const std::uint8_t> bytes) {
  return decode_framed<core::SimArtifact>(ArtifactKind::kSimArtifact, bytes);
}
core::Observations decode_observations(std::span<const std::uint8_t> bytes) {
  return decode_framed<core::Observations>(ArtifactKind::kObservations, bytes);
}
core::InferenceProducts decode_inference(std::span<const std::uint8_t> bytes) {
  return decode_framed<core::InferenceProducts>(
      ArtifactKind::kInferenceProducts, bytes);
}
core::AnalysisSuite decode_analysis_suite(
    std::span<const std::uint8_t> bytes) {
  return decode_framed<core::AnalysisSuite>(ArtifactKind::kAnalysisSuite,
                                            bytes);
}
core::SimChunk decode_sim_chunk(std::span<const std::uint8_t> bytes) {
  return decode_framed<core::SimChunk>(ArtifactKind::kSimChunk, bytes);
}

core::GroundTruth decode_ground_truth(const CheckedArtifact& checked) {
  return decode_framed<core::GroundTruth>(ArtifactKind::kGroundTruth, checked);
}
core::SimArtifact decode_sim_artifact(const CheckedArtifact& checked) {
  return decode_framed<core::SimArtifact>(ArtifactKind::kSimArtifact, checked);
}
core::Observations decode_observations(const CheckedArtifact& checked) {
  return decode_framed<core::Observations>(ArtifactKind::kObservations,
                                           checked);
}
core::InferenceProducts decode_inference(const CheckedArtifact& checked) {
  return decode_framed<core::InferenceProducts>(
      ArtifactKind::kInferenceProducts, checked);
}
core::AnalysisSuite decode_analysis_suite(const CheckedArtifact& checked) {
  return decode_framed<core::AnalysisSuite>(ArtifactKind::kAnalysisSuite,
                                            checked);
}
core::SimChunk decode_sim_chunk(const CheckedArtifact& checked) {
  return decode_framed<core::SimChunk>(ArtifactKind::kSimChunk, checked);
}

std::optional<ArtifactHeader> peek_artifact_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kArtifactHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  ArtifactHeader header;
  std::memcpy(&header.version, bytes.data() + 4, sizeof(header.version));
  std::memcpy(&header.kind, bytes.data() + 6, sizeof(header.kind));
  std::memcpy(&header.payload_bytes, bytes.data() + 8,
              sizeof(header.payload_bytes));
  return header;
}

}  // namespace bgpolicy::io
