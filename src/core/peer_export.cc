#include "core/peer_export.h"

#include <unordered_map>
#include <unordered_set>

#include "util/stats.h"

namespace bgpolicy::core {

PeerExportAnalysis analyze_peer_export(const bgp::BgpTable& table,
                                       AsNumber provider,
                                       const std::vector<AsNumber>& peers) {
  PeerExportAnalysis out;
  out.provider = provider;
  out.peer_count = peers.size();

  const std::unordered_set<AsNumber> peer_set(peers.begin(), peers.end());
  std::unordered_map<AsNumber, PeerExportRow> rows;
  for (const AsNumber peer : peers) rows[peer].peer = peer;

  for (const bgp::TableEntry entry : table) {
    const bgp::RouteView best = entry.best();
    const AsNumber origin = best.origin_as();
    if (!peer_set.contains(origin)) continue;
    PeerExportRow& row = rows.at(origin);
    ++row.own_prefixes;
    if (best.path().length() == 1 && best.learned_from() == origin) {
      ++row.direct;
    }
  }

  for (const AsNumber peer : peers) {
    PeerExportRow& row = rows.at(peer);
    row.announces_all = row.own_prefixes > 0 && row.direct == row.own_prefixes;
    row.announces_most =
        row.own_prefixes > 0 &&
        static_cast<double>(row.direct) >=
            0.8 * static_cast<double>(row.own_prefixes);
    if (row.announces_all) ++out.announcing_all;
    if (row.announces_most) ++out.announcing_most;
    out.rows.push_back(row);
  }
  out.percent_announcing = util::percent(out.announcing_all, out.peer_count);
  return out;
}

}  // namespace bgpolicy::core
