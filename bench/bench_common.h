// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every bench runs the canonical internet2002 scenario (DESIGN.md §4) and
// prints the same rows the paper reports, with the paper's numbers beside
// the measured ones where a direct comparison exists.  Absolute values are
// not expected to match (different substrate, smaller scale); the *shape*
// is what reproduces.
#pragma once

#include <iostream>
#include <string>

#include "core/experiment.h"
#include "util/text_table.h"

namespace bgpolicy::bench {

/// Builds (once per process) the canonical experiment, run through Infer,
/// that all benches analyze; its analysis view is `experiment().view()`.
const core::Experiment& experiment();

/// Prints the standard bench banner.
void banner(const std::string& experiment, const std::string& paper_claim);

}  // namespace bgpolicy::bench
