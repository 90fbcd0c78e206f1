// Small real-data runs of each app, checked against the benchmark's own
// sequential computations and against properties the method must have.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace figbench {

/// Runs the real-data checks of the app behind `workload`; each app call is
/// one operation in `ledger`, each comparison one check.
void run_oracles(const std::string& workload, std::uint64_t seed, Ledger& ledger,
                 Tracer& tracer);

}  // namespace figbench
