#include "bgp/route.h"

#include <ostream>
#include <sstream>

namespace bgpolicy::bgp {

std::string to_string(Origin origin) {
  switch (origin) {
    case Origin::kIgp: return "IGP";
    case Origin::kEgp: return "EGP";
    case Origin::kIncomplete: return "incomplete";
  }
  return "?";
}

void Route::add_community(Community community) {
  const auto it =
      std::lower_bound(communities.begin(), communities.end(), community);
  if (it != communities.end() && *it == community) return;
  communities.insert(it, community);
}

std::string Route::to_string() const {
  std::ostringstream out;
  out << prefix << " path [" << path << "] from " << learned_from
      << " lp " << local_pref << " med " << med << " origin "
      << bgp::to_string(origin);
  if (!communities.empty()) {
    out << " community";
    for (const auto c : communities) out << ' ' << c;
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Route& route) {
  return os << route.to_string();
}

}  // namespace bgpolicy::bgp
