#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <tuple>

namespace figbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double Tracer::timed(const std::string& name, const std::string& layer,
                     const std::function<void()>& fn) {
  const double start = host_now();
  int index = -1;
  if (enabled_) {
    index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, layer, start - origin_, 0.0,
                          open_.empty() ? -1 : open_.back()});
    open_.push_back(index);
  }
  try {
    fn();
  } catch (...) {
    if (enabled_) {
      spans_[static_cast<std::size_t>(index)].end_s = host_now() - origin_;
      open_.pop_back();
    }
    throw;
  }
  const double end = host_now();
  if (enabled_) {
    spans_[static_cast<std::size_t>(index)].end_s = end - origin_;
    open_.pop_back();
  }
  return end - start;
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return out.str();
}

bool Ledger::attempt(const std::string& what, const std::function<void()>& op) {
  ++attempted_;
  try {
    op();
    return true;
  } catch (const std::exception& e) {
    ++failed_;
    std::fprintf(stderr, "figbench: operation failed: %s: %s\n", what.c_str(),
                 e.what());
    return false;
  }
}

void Ledger::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++bad_checks_;
  std::fprintf(stderr, "figbench: CHECK FAILED: %s\n", what.c_str());
}

ds::mpi::MachineConfig machine_for(int procs, std::uint64_t seed,
                                   const std::string& topology) {
  ds::mpi::MachineConfig config;
  config.world_size = procs;
  config.network = ds::net::NetworkConfig::aries_like();
  config.network.topology = ds::net::TopologyConfig::named(topology);
  config.engine.noise = ds::sim::NoiseConfig::production_node();
  config.engine.seed = seed;
  config.filesystem.num_servers = std::max(16, procs / 8);
  return config;
}

void add_span_totals(const std::string& csv, ObsTotals& totals) {
  struct Row {
    long rank;
    double begin_ns, end_ns;
    int depth;
    std::string kind;
  };
  std::vector<Row> rows;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // rank,begin_ns,end_ns,label,kind,depth
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string rank, begin, end, label, kind, depth;
    std::getline(row, rank, ',');
    std::getline(row, begin, ',');
    std::getline(row, end, ',');
    std::getline(row, label, ',');
    std::getline(row, kind, ',');
    std::getline(row, depth, ',');
    rows.push_back({std::stol(rank), std::stod(begin), std::stod(end), std::stoi(depth),
                    kind});
  }
  // Parents before their children: a span at depth d lies inside the last
  // span at depth d - 1 on its rank that began no later.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.rank, a.begin_ns, a.depth) < std::tie(b.rank, b.begin_ns, b.depth);
  });
  std::vector<std::string> open;  // kinds of the enclosing spans, by depth
  long rank = -1;
  for (const Row& r : rows) {
    if (r.rank != rank) open.clear();
    rank = r.rank;
    open.resize(static_cast<std::size_t>(r.depth));
    const bool inside_same =
        std::find(open.begin(), open.end(), r.kind) != open.end();
    open.push_back(r.kind);
    if (inside_same) continue;  // its time is already in the enclosing span
    const double s = (r.end_ns - r.begin_ns) * 1e-9;
    if (r.kind == "compute") totals.compute_s += s;
    else if (r.kind == "recv_blocked") totals.recv_blocked_s += s;
    else if (r.kind == "collective") totals.collective_s += s;
    else if (r.kind == "stream_operate") totals.stream_operate_s += s;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace figbench
