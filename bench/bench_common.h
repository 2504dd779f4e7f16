// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every bench runs the canonical internet2002 scenario (DESIGN.md §4) and
// prints the same rows the paper reports, with the paper's numbers beside
// the measured ones where a direct comparison exists.  Absolute values are
// not expected to match (different substrate, smaller scale); the *shape*
// is what reproduces.
#pragma once

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/text_table.h"

namespace bgpolicy::bench {

/// Builds (once per process) the canonical experiment, run through Infer,
/// that all benches analyze; its analysis view is `experiment().view()`.
const core::Experiment& experiment();

/// Prints the standard bench banner.
void banner(const std::string& experiment, const std::string& paper_claim);

/// The thread counts the scaling benches sweep: 1, 2, 4 and 8, or only 1
/// when hardware_concurrency is 1 — there the other rows would time slice
/// one CPU and say nothing about the engine.
std::vector<std::size_t> scaling_thread_counts();

}  // namespace bgpolicy::bench
