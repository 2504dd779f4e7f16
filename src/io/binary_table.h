// Compact binary serialization of BGP tables (MRT-inspired, simplified).
//
// Layout (all little-endian):
//   magic "BGPT" | u16 version | u32 owner | u64 route_count
//   per route:
//     u32 network | u8 length | u32 learned_from | u32 local_pref
//     u32 med | u8 origin | u16 path_len | u32 hop... | u16 community_count
//     u32 community_raw...
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/table.h"

namespace bgpolicy::io {

[[nodiscard]] std::vector<std::uint8_t> serialize_table(
    const bgp::BgpTable& table);

/// Appends serialize_table(table)'s bytes to `out` in place: one sizing
/// pass, one resize, then the routes written straight into the buffer (the
/// artifact codec embeds vantage tables this way, without a per-table
/// vector or a blob copy).
void append_table(const bgp::BgpTable& table, std::vector<std::uint8_t>& out);

/// Throws std::invalid_argument on truncated or corrupt input.
[[nodiscard]] bgp::BgpTable deserialize_table(
    std::span<const std::uint8_t> bytes);

}  // namespace bgpolicy::io
