// Figure-suite benchmark harness: times one paper figure point (Figs. 5-8)
// through the public app entry points and checks its outputs.
//
//   figbench --workload <mapreduce|cg_halo|pic_exchange|pic_io> --seed <n>
//            --seconds <s> --trace <0|1> [--procs <ranks>]
//
// Both modes first run small real-data versions of the workload's app and
// check them against the benchmark's own sequential computations.
// --trace 0 then runs whole rounds with observability off (every variant's
// zero-step call, then every variant's full call, each in a fresh child
// process) over seven input seeds derived from --seed, until --seconds have
// passed, and reports the end-to-end metrics: host times as medians over
// rounds, virtual makespans as medians over the input seeds. --trace 1 runs
// each variant's calls once with observability off and once on, then the
// per-layer probes, reports the per-layer metrics, and writes the
// benchmark's own spans to .bench_out/. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics": {name:
// {"value", "unit"}}}. The exit code is nonzero when a check or an
// operation fails: no operation of these workloads is expected to fail.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "oracles.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace figbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int procs = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--procs") {
      a.procs = std::stoi(value);
      if (a.procs < 32) throw std::invalid_argument("--procs must be >= 32");
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Host cost of one isolated call: wall seconds and CPU seconds (user plus
/// system) of the call itself, and the child's peak resident set.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

[[nodiscard]] double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Runs `fn` in a forked child and returns what it computed, with the
/// call's host cost. Each timed call starts from the same process state this
/// way: inside one process, the heap kept from earlier calls and the
/// allocator's adaptive mmap threshold make later calls measurably cheaper
/// than the first.
template <typename T>
T isolated(const std::function<T()>& fn, Cost& cost) {
  static_assert(std::is_trivially_copyable_v<T>);
  struct Message {
    bool ok = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    T value{};
    char error[256] = {};
  };
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // A call never outlives the harness, even when the harness is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    Message m;
    try {
      const double start = host_now();
      const double cpu_start = cpu_now();
      m.value = fn();
      m.cpu_s = cpu_now() - cpu_start;
      m.wall_s = host_now() - start;
      m.ok = true;
    } catch (const std::exception& e) {
      std::snprintf(m.error, sizeof m.error, "%s", e.what());
    }
    const char* p = reinterpret_cast<const char*>(&m);
    for (std::size_t left = sizeof m; left > 0;) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) break;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Message m;
  std::size_t got = 0;
  char* p = reinterpret_cast<char*>(&m);
  while (got < sizeof m) {
    const ssize_t n = read(fds[0], p + got, sizeof m - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (got != sizeof m || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("call ended abnormally (status " +
                             std::to_string(status) + ")");
  if (!m.ok) throw std::runtime_error(m.error);
  cost = Cost{m.wall_s, m.cpu_s, static_cast<double>(usage.ru_maxrss) / 1024.0};
  return m.value;
}

/// Inputs per run: the timed rounds cycle over this many input seeds
/// derived from --seed, and the virtual makespans are their medians, so a
/// makespan does not hang on one draw of file sizes and noise.
constexpr int kInputSeeds = 7;

[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, int k) {
  return seed * 1'000'003ull + static_cast<std::uint64_t>(k);
}

/// End-to-end run: whole rounds (every variant's zero-step call, then every
/// variant's full call, each in a fresh child) over the input seeds in
/// turn, until the time budget is spent. A run makes at least one round per
/// input seed plus one same-seed repeat. Only complete rounds give host
/// times and only completed calls give makespans, so a call that fails
/// never shows as a cheaper one; a metric without any sample is left out.
void timed_rounds(const std::vector<Workload>& inputs, const Args& args,
                  Ledger& ledger, Metrics& metrics) {
  const std::size_t variants = inputs.front().variants.size();
  std::vector<double> setup, wall, setup_cpu, wall_cpu;
  std::vector<std::vector<Outcome>> first(inputs.size(),
                                          std::vector<Outcome>(variants));
  std::vector<std::vector<bool>> seen(inputs.size(), std::vector<bool>(variants));
  double peak_mb = peak_rss_mb();
  const double start = host_now();
  double last_round = 0.0;
  for (std::size_t round = 0;; ++round) {
    const double elapsed = host_now() - start;
    if (round > inputs.size() && elapsed + last_round > args.seconds) break;
    const double round_start = host_now();
    const std::size_t k = round % inputs.size();
    const Workload& w = inputs[k];
    Cost setup_sum, wall_sum;
    bool complete = true;
    auto add = [&peak_mb](Cost& sum, const Cost& c) {
      sum.wall_s += c.wall_s;
      sum.cpu_s += c.cpu_s;
      peak_mb = std::max(peak_mb, c.peak_rss_mb);
    };
    for (const Variant& v : w.variants)
      if (!ledger.attempt(w.name + " " + v.role + " setup", [&] {
            Cost c;
            (void)isolated<Outcome>([&] { return v.run(Call::Setup, false); }, c);
            add(setup_sum, c);
          }))
        complete = false;
    for (std::size_t i = 0; i < variants; ++i) {
      const Variant& v = w.variants[i];
      Outcome o;
      if (!ledger.attempt(w.name + " " + v.role, [&] {
            Cost c;
            o = isolated<Outcome>([&] { return v.run(Call::Full, false); }, c);
            add(wall_sum, c);
          })) {
        complete = false;
        continue;
      }
      if (!seen[k][i]) {
        check_outcome(w, v, o, ledger);
        first[k][i] = o;
        seen[k][i] = true;
      } else {
        ledger.check(o == first[k][i], w.name + " " + v.role +
                                           ": a same-seed repeat changed the "
                                           "virtual makespan or counts");
      }
    }
    if (complete) {
      setup.push_back(setup_sum.wall_s);
      wall.push_back(wall_sum.wall_s);
      setup_cpu.push_back(setup_sum.cpu_s);
      wall_cpu.push_back(wall_sum.cpu_s);
    }
    last_round = host_now() - round_start;
    std::fprintf(stderr, "figbench: round %zu input %zu setup %.4f s wall %.4f s",
                 round, k, setup_sum.wall_s, wall_sum.wall_s);
    for (const Outcome& o : first[k]) std::fprintf(stderr, " %.6f", o.makespan_s);
    std::fprintf(stderr, "\n");
  }

  const Workload& w = inputs.front();
  std::printf("%zu complete rounds over %zu input seeds; host seconds (median): "
              "set-up %.4f (CPU %.4f), full calls %.4f (CPU %.4f)\n",
              wall.size(), inputs.size(), median(setup), median(setup_cpu),
              median(wall), median(wall_cpu));
  std::printf("first input seed:\n");
  for (std::size_t i = 0; i < variants; ++i)
    std::printf("  %-6s %-38s makespan %10.6f s (bound %10.6f)  phase %10.6f s  "
                "count %llu\n",
                w.variants[i].role.c_str(), w.variants[i].label.c_str(),
                first[0][i].makespan_s, w.variants[i].lower_bound_s,
                first[0][i].phase_s,
                static_cast<unsigned long long>(first[0][i].count));

  if (!wall.empty()) {
    metrics["setup_s"] = {median(setup), "s"};
    metrics["wall_s"] = {median(wall), "s"};
  }
  metrics["peak_rss_mb"] = {peak_mb, "MB"};
  for (std::size_t i = 0; i < variants; ++i) {
    const std::string& role = w.variants[i].role;
    std::vector<double> makespans;
    for (std::size_t k = 0; k < inputs.size(); ++k)
      if (seen[k][i]) makespans.push_back(first[k][i].makespan_s);
    if ((role == "ref" || role == "dec") && !makespans.empty())
      metrics["makespan_" + role + "_s"] = {median(makespans), "s"};
  }
}

/// Span seconds per kind and the machine's work counters of one observed
/// run.
void add_obs_metrics(const ObsTotals& t, Metrics& metrics) {
  metrics["obs.span.compute_s"] = {t.compute_s, "s"};
  metrics["obs.span.recv_blocked_s"] = {t.recv_blocked_s, "s"};
  metrics["obs.span.collective_s"] = {t.collective_s, "s"};
  metrics["obs.span.stream_operate_s"] = {t.stream_operate_s, "s"};
  metrics["sim.events"] = {t.events, "count"};
  metrics["net.messages"] = {t.messages, "count"};
  metrics["net.bytes"] = {t.bytes, "B"};
}

/// Per-layer run: each variant's zero-step call, full call and full call
/// with observability on (each in a fresh child), then the layer probes.
/// A variant with a traced entry point makes one more observed call,
/// untimed, whose exports give the span totals and work counters; on the
/// other workloads the observed reference replay gives them.
void traced_run(const Workload& w, const Args& args, Ledger& ledger,
                Tracer& tracer, Metrics& metrics) {
  double off_total = 0.0, on_total = 0.0;
  std::map<std::string, Outcome> outcome;
  for (const Variant& v : w.variants) {
    Cost setup, full, observed;
    Outcome off, on;
    const bool ok =
        ledger.attempt(w.name + " " + v.role + " setup", [&] {
          tracer.timed(v.role + ".setup", "apps", [&] {
            (void)isolated<Outcome>([&] { return v.run(Call::Setup, false); }, setup);
          });
        }) &&
        ledger.attempt(w.name + " " + v.role, [&] {
          tracer.timed(v.role + ".full", "apps", [&] {
            off = isolated<Outcome>([&] { return v.run(Call::Full, false); }, full);
          });
        }) &&
        ledger.attempt(w.name + " " + v.role + " observed", [&] {
          tracer.timed(v.role + ".observed", "obs", [&] {
            on = isolated<Outcome>([&] { return v.run(Call::Full, true); }, observed);
          });
        });
    if (!ok) continue;
    std::printf("  %-6s %-38s setup %8.4f s  full %8.4f s  observed %8.4f s  "
                "makespan %10.6f s\n",
                v.role.c_str(), v.label.c_str(), setup.wall_s, full.wall_s,
                observed.wall_s, off.makespan_s);
    off_total += full.wall_s;
    on_total += observed.wall_s;
    check_outcome(w, v, off, ledger);
    ledger.check(on == off, w.name + " " + v.role +
                                ": observability changed the virtual makespan "
                                "or counts");
    outcome[v.role] = off;
    if (v.role == "ref" || v.role == "dec") {
      metrics["apps." + v.role + ".wall_s"] = {full.wall_s, "s"};
      metrics["apps." + v.role + ".setup_s"] = {setup.wall_s, "s"};
      metrics["apps.phase_" + v.role + "_s"] = {off.phase_s, "s"};
    }
    if (!v.traced) continue;
    struct Traced {
      Outcome outcome;
      ObsTotals totals;
    };
    Traced traced;
    if (!ledger.attempt(w.name + " " + v.role + " traced", [&] {
          tracer.timed(v.role + ".traced", "obs", [&] {
            Cost ignored;
            traced = isolated<Traced>(
                [&] {
                  Traced t;
                  t.outcome = v.traced(t.totals);
                  return t;
                },
                ignored);
          });
        }))
      continue;
    ledger.check(traced.outcome == off,
                 w.name + " " + v.role +
                     ": the traced entry point changed the virtual makespan or "
                     "counts");
    add_obs_metrics(traced.totals, metrics);
  }
  if (outcome.count("ref") && outcome.count("dec"))
    metrics["apps.speedup"] = {outcome["ref"].makespan_s / outcome["dec"].makespan_s,
                               "ratio"};
  if (off_total > 0.0) metrics["obs.overhead"] = {on_total / off_total, "ratio"};
  ledger.attempt(w.name + " probes",
                 [&] { run_probes(w, args.seed, tracer, metrics); });
  if (w.replay)
    ledger.attempt(w.name + " observed replay", [&] {
      add_obs_metrics(observe_replay(w, args.seed, tracer), metrics);
    });
}

std::string json_result(const Ledger& ledger, const Metrics& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (ledger.correct() ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": {\"value\": " << value.first << ", \"unit\": \""
        << value.second << "\"}";
  }
  out << "}}";
  return out.str();
}

int run(const Args& args) {
  std::vector<Workload> inputs;
  for (int k = 0; k < kInputSeeds; ++k)
    inputs.push_back(make_workload(args.workload, input_seed(args.seed, k), args.procs));
  const Workload& w = inputs.front();
  std::printf("figbench %s: %d ranks, %s topology, seed %llu\n", w.name.c_str(),
              w.procs, w.topology.c_str(),
              static_cast<unsigned long long>(args.seed));
  Ledger ledger;
  Tracer tracer(args.trace);
  Metrics metrics;
  run_oracles(w.name, args.seed, ledger, tracer);
  if (args.trace) {
    traced_run(w, args, ledger, tracer, metrics);
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/spans-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    std::ofstream(path) << tracer.to_json();
    std::printf("spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
  } else {
    timed_rounds(inputs, args, ledger, metrics);
  }
  std::printf("checks: %llu, operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(ledger.checks()),
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  std::printf("%s\n", json_result(ledger, metrics).c_str());
  return ledger.correct() && ledger.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace figbench

int main(int argc, char** argv) {
  try {
    return figbench::run(figbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "figbench: %s\n", e.what());
    return 2;
  }
}
