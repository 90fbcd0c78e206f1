// The four figure points the benchmark times (paper Figs. 5-8), each run
// through the public app entry points in modeled mode, with the property
// checks a correct run must satisfy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace ds::mpi {
class Rank;
}

namespace figbench {

/// A full figure-point call, or the same call with zero steps (zero
/// iterations, dumps or files per rank): machine construction, rank spawn,
/// group split and channel create/free, and nothing else.
enum class Call { Setup, Full };

/// What a call reports. Virtual quantities are deterministic per seed.
struct Outcome {
  double makespan_s = 0.0;  ///< virtual makespan
  /// Virtual exchange (Fig. 7) or dump (Fig. 8) time as the app reports it;
  /// for apps that report none, the virtual time beyond the compute-only
  /// lower bound.
  double phase_s = 0.0;
  /// Elements streamed (Fig. 5 decoupled), particles at the end (Fig. 7) or
  /// dump bytes (Fig. 8); 0 where the app reports no count.
  std::uint64_t count = 0;

  [[nodiscard]] bool operator==(const Outcome&) const = default;
};

struct Variant {
  std::string role;   ///< metric key: "ref", "dec" or "shared"
  std::string label;  ///< the paper's series name
  /// Runs the call; `observe` turns every observability switch on.
  std::function<Outcome(Call, bool observe)> run;
  /// Compute-only lower bound of the full call's makespan, from the config.
  double lower_bound_s = 0.0;
  /// Property checks on a full call's outcome beyond the makespan bound;
  /// may be empty.
  std::function<void(const Outcome&, Ledger&)> check;
  /// Full call with observability on that also reads the run's spans and
  /// work counters from the app's exports; empty when the app has no traced
  /// entry point (only Fig. 7's run_pic_traced returns them). Never timed:
  /// the exports would make its host time mean something else.
  std::function<Outcome(ObsTotals&)> traced;
};

/// Sizes the per-layer probes replay, taken from the workload's own shape.
struct Shape {
  std::size_t p2p_bytes = 0;      ///< one neighbour message
  std::size_t gather_bytes = 0;   ///< one rank's allgatherv block
  std::size_t element_bytes = 0;  ///< one stream element
  std::size_t dump_bytes = 0;     ///< one rank's file block
  int elements = 0;               ///< stream elements per worker in one call
};

struct Workload {
  std::string name;
  int procs = 0;
  std::string topology;  ///< net::TopologyConfig name
  std::vector<Variant> variants;
  Shape shape;
  /// One rank's share of the reference variant's full call, replayed
  /// through the mpi layer at the workload's sizes with synthetic payloads:
  /// every step's nominal compute (from the config) and its exchange. The
  /// traced run observes it, followed by a stride-16 stream of
  /// `shape.elements` elements per worker, for span and work-counter totals
  /// on workloads whose app has no traced entry point; empty where a
  /// variant has one.
  std::function<void(ds::mpi::Rank&)> replay;
};

/// Checks a full call's outcome: the makespan is at least the compute-only
/// bound, and the variant's own property checks hold.
void check_outcome(const Workload& w, const Variant& v, const Outcome& o,
                   Ledger& ledger);

/// The figure point `name` at `procs` ranks (0 picks its default), with
/// inputs generated from `seed`. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     int procs);

}  // namespace figbench
