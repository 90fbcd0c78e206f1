// Shared pieces of the figure-suite benchmark: host timing, the benchmark's
// own span recorder (one span per call it makes into a layer), operation and
// check accounting, and the machine model every workload simulates.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mpi/machine.hpp"

namespace figbench {

/// Host seconds since an arbitrary fixed origin (steady clock).
[[nodiscard]] inline double host_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// One call the benchmark made into a layer, in host seconds from the
/// recorder's start. `parent` indexes the enclosing span (-1 at top level).
struct Span {
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

/// In-memory span log, written out once when the run ends. A disabled
/// tracer still times calls but keeps no spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(host_now()) {}

  /// Run `fn` inside a span named `name` on `layer`; returns its host seconds.
  double timed(const std::string& name, const std::string& layer,
               const std::function<void()>& fn);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Chrome trace-event JSON of every span (host microseconds).
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Operations attempted and failed, and the outcome of every output check.
/// An operation that throws counts as failed; a check that does not hold
/// makes the run incorrect.
class Ledger {
 public:
  /// Run one operation; returns false (and counts a failure) if it throws.
  bool attempt(const std::string& what, const std::function<void()>& op);
  /// Record one output check.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return bad_checks_ == 0; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t bad_checks_ = 0;
};

/// The simulated machine of every figure point: Aries-like fabric on the
/// named topology, production-node noise, a Lustre-like file system whose
/// server count grows with the allocation (the figure benches' profile).
[[nodiscard]] ds::mpi::MachineConfig machine_for(int procs, std::uint64_t seed,
                                                 const std::string& topology);

/// Observability totals of one run: virtual seconds spent in spans of each
/// kind, summed over ranks (a span nested in one of its own kind counts
/// once, through the outer one), and the machine's work counters.
struct ObsTotals {
  double compute_s = 0.0;
  double recv_blocked_s = 0.0;
  double collective_s = 0.0;
  double stream_operate_s = 0.0;
  double events = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
};

/// Fills the span fields of `totals` from an obs::Recorder CSV export.
void add_span_totals(const std::string& csv, ObsTotals& totals);

/// Median of `values` (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// Metric name -> (value, unit); the result lists them in name order.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

}  // namespace figbench
