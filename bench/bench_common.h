// Shared scaffolding for the scaling benches.
#pragma once

#include <cstddef>
#include <vector>

namespace bgpolicy::bench {

/// The thread counts the scaling benches sweep: 1, 2, 4 and 8, or only 1
/// when hardware_concurrency is 1 — there the other rows would time slice
/// one CPU and say nothing about the engine.
std::vector<std::size_t> scaling_thread_counts();

}  // namespace bgpolicy::bench
