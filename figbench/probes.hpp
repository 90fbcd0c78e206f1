// Per-layer probes: the benchmark's own calls into each layer's public API
// (sim, mpi, net, core, fs, resilience), replaying the workload's rank
// count, topology and message sizes with synthetic payloads.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "workloads.hpp"

namespace figbench {

/// Adds the sim.*, mpi.*, net.schedule_ns, core.*, fs.* and resilience.*
/// metrics.
void run_probes(const Workload& workload, std::uint64_t seed, Tracer& tracer,
                Metrics& out);

/// Runs the workload's reference replay, then a stride-16 stream of its
/// elements, on one machine with observability on, and returns the run's
/// span totals and work counters.
[[nodiscard]] ObsTotals observe_replay(const Workload& workload, std::uint64_t seed,
                                       Tracer& tracer);

}  // namespace figbench
