// Compact binary serialization of BGP tables: the table's columns
// (bgp/table.h) stored as they are laid out.
//
// Layout (all little-endian), a header and then each column back to back:
//   magic "BGPT" | u16 version | u32 owner
//   | u32 prefix_count | u32 row_count | u32 hop_count | u32 community_count
//   u32 network[prefix_count]      u8  length[prefix_count]
//   u32 rows[prefix_count]         (rows per prefix, in first-insertion
//                                   prefix order)
//   u32 learned_from[row_count]    u32 local_pref[row_count]
//   u32 med[row_count]             u8  origin[row_count]
//   u16 hops[row_count]            u16 communities[row_count]
//                                  (per-row list lengths)
//   u32 hop[hop_count]             u32 community[community_count]
//
// Per-prefix and per-row lengths are stored rather than offsets: they are
// smaller, and the decoder's check that they sum to the stored totals is
// the same pass that turns them into the table's offsets.  Encoding is one
// sizing step and one copy per column, so equal tables encode to equal
// bytes and the bytes depend only on the table's content.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/table.h"

namespace bgpolicy::io {

[[nodiscard]] std::vector<std::uint8_t> serialize_table(
    const bgp::BgpTable& table);

/// Appends serialize_table(table)'s bytes to `out` in place (the artifact
/// codec embeds vantage tables this way, without a per-table vector or a
/// blob copy).
void append_table(const bgp::BgpTable& table, std::vector<std::uint8_t>& out);

/// Checks the header, that the byte count matches the stored counts, and
/// that every per-prefix and per-row length sums to its total before
/// copying a column; bgp::BgpTable::adopt then checks the rest (prefixes,
/// origins, communities, offsets).  Throws std::invalid_argument on
/// truncated or corrupt input.
[[nodiscard]] bgp::BgpTable deserialize_table(
    std::span<const std::uint8_t> bytes);

}  // namespace bgpolicy::io
