#include "probes.hpp"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/cart.hpp"
#include "mpi/io.hpp"
#include "mpi/rank.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace figbench {
namespace {

using namespace ds;

constexpr int kStride = 16;           // the workloads' helper stride
constexpr int kElementsPerWorker = 32;  // core probe stream length

/// Heap bytes in use (arena plus mmapped chunks).
[[nodiscard]] double heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

/// One machine run of `program`: host seconds of Machine::run and the
/// machine's work counters afterwards.
struct RunCost {
  double host_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t pool_slots = 0;
};

RunCost run_machine(const mpi::MachineConfig& config,
                    const std::function<void(mpi::Rank&)>& program) {
  mpi::Machine machine(config);
  const double start = host_now();
  (void)machine.run(program);
  RunCost cost;
  cost.host_s = host_now() - start;
  cost.events = machine.engine().events_executed();
  cost.messages = machine.fabric().total_messages();
  cost.bytes = machine.fabric().total_bytes();
  const auto pools = machine.pool_stats();
  cost.pool_slots = pools.send.created + pools.recv.created;
  return cost;
}

/// Host seconds per repetition of `op` on every rank, net of an empty run
/// on the same machine (rank spawn and teardown).
struct PerOp {
  double host_s = 0.0;
  double events = 0.0;
  RunCost run;
};

PerOp per_op(const mpi::MachineConfig& config, const RunCost& empty, int reps,
             const std::function<void(mpi::Rank&)>& op) {
  const RunCost run = run_machine(config, [&](mpi::Rank& self) {
    for (int i = 0; i < reps; ++i) op(self);
  });
  return PerOp{std::max(0.0, run.host_s - empty.host_s) / reps,
               static_cast<double>(run.events - empty.events) / reps, run};
}

/// Byte counts toward each face neighbour of `rank` on a 3-D process grid.
std::vector<std::size_t> neighbour_counts(const mpi::CartTopology& cart, int rank,
                                          std::size_t bytes) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(cart.size()), 0);
  for (const int nbr : cart.face_neighbors(rank))
    if (nbr >= 0) counts[static_cast<std::size_t>(nbr)] += bytes;
  return counts;
}

// ----------------------------------------------------------------- sim --
void sim_probe(int procs, Tracer& tracer, Metrics& out) {
  constexpr int kSteps = 64;
  sim::EngineConfig config;

  const double spawn_s = tracer.timed("sim.spawn", "sim", [&] {
    sim::Engine engine(config);
    for (int p = 0; p < procs; ++p) engine.spawn([](sim::Process&) {});
    engine.run();
  });
  out["sim.spawn_us"] = {spawn_s / procs * 1e6, "us"};

  // Pure events: one self-rescheduling callback chain per rank, no fibers.
  struct Chains {
    sim::Engine* engine;
    std::vector<int> left;
    void fire(int i) {
      if (--left[static_cast<std::size_t>(i)] > 0)
        engine->schedule_after(1000, [this, i] { fire(i); });
    }
  };
  std::uint64_t events = 0;
  const double event_s = tracer.timed("sim.events", "sim", [&] {
    sim::Engine engine(config);
    Chains chains{&engine, std::vector<int>(static_cast<std::size_t>(procs), kSteps)};
    for (int i = 0; i < procs; ++i)
      engine.schedule(0, [&chains, i] { chains.fire(i); });
    engine.run();
    events = engine.events_executed();
  });
  out["sim.event_ns"] = {event_s / static_cast<double>(events) * 1e9, "ns"};

  // Fiber switches: every rank advances its own clock kSteps times, each a
  // suspend, a wake event and a resume.
  const double switch_s = tracer.timed("sim.switch", "sim", [&] {
    sim::Engine engine(config);
    for (int p = 0; p < procs; ++p)
      engine.spawn([](sim::Process& self) {
        for (int s = 0; s < kSteps; ++s) self.advance(1000);
      });
    engine.run();
  });
  out["sim.switch_ns"] = {
      std::max(0.0, switch_s - spawn_s) / (static_cast<double>(procs) * kSteps) * 1e9,
      "ns"};
}

// ----------------------------------------------------------------- mpi --
void mpi_probe(const Workload& w, const mpi::MachineConfig& config,
               const RunCost& empty, Tracer& tracer, Metrics& out) {
  const int procs = w.procs;
  const mpi::CartTopology cart(mpi::CartTopology::dims_create(procs),
                               {false, false, false});

  PerOp split;
  tracer.timed("mpi.split", "mpi", [&] {
    split = per_op(config, empty, 2, [](mpi::Rank& self) {
      const int r = self.world_rank();
      (void)self.split(self.world(), r % kStride == kStride - 1 ? 1 : 0, r);
    });
  });
  out["mpi.split_ms"] = {split.host_s * 1e3, "ms"};

  PerOp a2a;
  tracer.timed("mpi.alltoallv", "mpi", [&] {
    a2a = per_op(config, empty, 4, [&](mpi::Rank& self) {
      const auto counts = neighbour_counts(cart, self.world_rank(), w.shape.p2p_bytes);
      (void)self.alltoallv(self.world(), nullptr, counts, nullptr, counts);
    });
  });
  out["mpi.alltoallv_us"] = {a2a.host_s * 1e6, "us"};
  out["mpi.events_per_collective"] = {a2a.events, "count"};

  PerOp allreduce;
  tracer.timed("mpi.allreduce", "mpi", [&] {
    allreduce = per_op(config, empty, 8, [](mpi::Rank& self) {
      (void)self.allreduce(self.world(), mpi::SendBuf::synthetic(sizeof(double)),
                           nullptr, {});
    });
  });
  out["mpi.allreduce_us"] = {allreduce.host_s * 1e6, "us"};

  PerOp gather;
  tracer.timed("mpi.allgatherv", "mpi", [&] {
    gather = per_op(config, empty, 2, [&](mpi::Rank& self) {
      const std::vector<std::size_t> counts(static_cast<std::size_t>(procs),
                                            w.shape.gather_bytes);
      (void)self.allgatherv(self.world(), mpi::SendBuf::synthetic(w.shape.gather_bytes),
                            nullptr, counts);
    });
  });
  out["mpi.allgatherv_us"] = {gather.host_s * 1e6, "us"};

  // Point to point: every rank exchanges one message with each face
  // neighbour, four rounds.
  constexpr int kRounds = 4;
  std::uint64_t messages = 0;
  for (int r = 0; r < procs; ++r)
    for (const int nbr : cart.face_neighbors(r)) messages += nbr >= 0 ? 1 : 0;
  PerOp p2p;
  tracer.timed("mpi.p2p", "mpi", [&] {
    p2p = per_op(config, empty, kRounds, [&](mpi::Rank& self) {
      std::vector<mpi::Request> reqs;
      for (const int nbr : cart.face_neighbors(self.world_rank())) {
        if (nbr < 0) continue;
        reqs.push_back(self.irecv(self.world(), nbr, 7,
                                  mpi::RecvBuf::discard(w.shape.p2p_bytes)));
        reqs.push_back(self.isend(self.world(), nbr, 7,
                                  mpi::SendBuf::synthetic(w.shape.p2p_bytes)));
      }
      self.wait_all(reqs);
    });
  });
  out["mpi.p2p_ns"] = {p2p.host_s / static_cast<double>(messages) * 1e9, "ns"};
  out["mpi.pool_slots"] = {static_cast<double>(p2p.run.pool_slots), "count"};
}

// ---------------------------------------------------------- resilience --
void resilience_probe(const mpi::MachineConfig& config, const RunCost& empty,
                      Tracer& tracer, Metrics& out) {
  PerOp agree;
  tracer.timed("resilience.agree", "resilience", [&] {
    agree = per_op(config, empty, 4,
                   [](mpi::Rank& self) { (void)self.agree(self.world()); });
  });
  out["resilience.agree_us"] = {agree.host_s * 1e6, "us"};
}

// ------------------------------------------------------------------ fs --
/// Collective and shared-pointer dumps of the workload's per-rank block,
/// net of opening the file.
void fs_probe(const Workload& w, const mpi::MachineConfig& config, Tracer& tracer,
              Metrics& out) {
  RunCost opened;
  tracer.timed("fs.open", "fs", [&] {
    opened = run_machine(config, [](mpi::Rank& self) {
      mpi::File file(self.machine(), self.world(), "probe");
    });
  });
  PerOp write_all, write_shared;
  tracer.timed("fs.write_all", "fs", [&] {
    write_all = per_op(config, opened, 4, [&](mpi::Rank& self) {
      mpi::File file(self.machine(), self.world(), "probe");
      (void)file.write_all(self, mpi::SendBuf::synthetic(w.shape.dump_bytes));
    });
  });
  tracer.timed("fs.write_shared", "fs", [&] {
    write_shared = per_op(config, opened, 16, [&](mpi::Rank& self) {
      mpi::File file(self.machine(), self.world(), "probe");
      file.write_shared(self, mpi::SendBuf::synthetic(w.shape.dump_bytes));
    });
  });
  out["fs.write_all_ms"] = {write_all.host_s * 1e3, "ms"};
  out["fs.write_shared_ms"] = {write_shared.host_s * 1e3, "ms"};
}

// ----------------------------------------------------------------- net --
/// Fabric::schedule_message over random rank pairs of the workload's
/// topology, at the workload's message size.
void net_probe(const Workload& w, const mpi::MachineConfig& config,
               std::uint64_t seed, Tracer& tracer, Metrics& out) {
  constexpr int kMessages = 200'000;
  net::Fabric fabric(config.network, w.procs);
  util::Rng rng = util::Rng::for_stream(seed, 0x4E7);
  std::vector<std::array<int, 2>> pairs(kMessages);
  for (auto& p : pairs)
    p = {static_cast<int>(rng.uniform_int(0, w.procs - 1)),
         static_cast<int>(rng.uniform_int(0, w.procs - 1))};
  const double s = tracer.timed("net.schedule_message", "net", [&] {
    util::SimTime t = 0;
    for (const auto& [src, dst] : pairs) {
      (void)fabric.schedule_message(src, dst, w.shape.p2p_bytes, t);
      t += 100;
    }
  });
  out["net.schedule_ns"] = {s / kMessages * 1e9, "ns"};
}

// ---------------------------------------------------------------- core --
/// One machine run of the stream below: its cost, the termination messages
/// of all ranks and the peak heap in use.
struct PipelineRun {
  RunCost cost;
  std::uint64_t term_messages = 0;
  double peak_heap = 0.0;
};

/// A worker -> helper stream at stride 16 on `self`: every worker sends
/// `elements` synthetic elements of `element_bytes`. `done(stream)` runs on
/// every rank once its side has finished.
template <typename Done>
void stream_elements(mpi::Rank& self, std::size_t element_bytes, int elements,
                     Done&& done) {
  auto pipeline = decouple::Pipeline::over(self, self.world()).with_stride(kStride);
  const auto stream = pipeline.raw_stream(element_bytes);
  pipeline.run(
      [&](decouple::Context& ctx) {
        auto& s = ctx[stream];
        for (int e = 0; e < elements; ++e) s.send_synthetic(element_bytes);
        s.terminate();
        done(s);
      },
      [&](decouple::Context& ctx) {
        auto& s = ctx[stream];
        (void)s.operate();
        done(s);
      });
}

PipelineRun pipeline_run(const Workload& w, const mpi::MachineConfig& config,
                         int elements) {
  PipelineRun result;
  result.cost = run_machine(config, [&](mpi::Rank& self) {
    stream_elements(self, w.shape.element_bytes, elements, [&](const auto& s) {
      result.term_messages += s.term_messages_sent();
      result.peak_heap = std::max(result.peak_heap, heap_in_use());
    });
  });
  return result;
}

void core_probe(const Workload& w, const mpi::MachineConfig& config, Tracer& tracer,
                Metrics& out) {
  double empty_heap = 0.0;
  RunCost empty;
  tracer.timed("core.empty", "core", [&] {
    empty = run_machine(config, [&](mpi::Rank&) {
      empty_heap = std::max(empty_heap, heap_in_use());
    });
  });
  PipelineRun created, streamed;
  tracer.timed("core.create", "core", [&] { created = pipeline_run(w, config, 0); });
  tracer.timed("core.stream", "core",
               [&] { streamed = pipeline_run(w, config, kElementsPerWorker); });
  const double elements =
      static_cast<double>(w.procs - w.procs / kStride) * kElementsPerWorker;
  out["core.create_ms"] = {std::max(0.0, created.cost.host_s - empty.host_s) * 1e3,
                           "ms"};
  out["core.element_ns"] = {
      std::max(0.0, streamed.cost.host_s - created.cost.host_s) / elements * 1e9, "ns"};
  out["core.msgs_per_element"] = {
      static_cast<double>(streamed.cost.messages - created.cost.messages) / elements,
      "ratio"};
  out["core.term_messages"] = {static_cast<double>(streamed.term_messages), "count"};
  out["core.bytes_per_rank"] = {
      std::max(0.0, streamed.peak_heap - empty_heap) / w.procs, "B"};
}

}  // namespace

ObsTotals observe_replay(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  mpi::MachineConfig config = machine_for(w.procs, seed, w.topology);
  config.observability = obs::ObsConfig::all();
  ObsTotals totals;
  tracer.timed("obs.replay", "obs", [&] {
    mpi::Machine machine(config);
    (void)machine.run([&](mpi::Rank& self) {
      w.replay(self);
      stream_elements(self, w.shape.element_bytes, w.shape.elements,
                      [](const auto&) {});
    });
    add_span_totals(machine.engine().trace()->to_csv(), totals);
    totals.events = static_cast<double>(machine.engine().events_executed());
    totals.messages = static_cast<double>(machine.fabric().total_messages());
    totals.bytes = static_cast<double>(machine.fabric().total_bytes());
  });
  return totals;
}

void run_probes(const Workload& workload, std::uint64_t seed, Tracer& tracer,
                Metrics& out) {
  const mpi::MachineConfig config =
      machine_for(workload.procs, seed, workload.topology);
  sim_probe(workload.procs, tracer, out);
  RunCost empty;
  tracer.timed("mpi.empty", "mpi",
               [&] { empty = run_machine(config, [](mpi::Rank&) {}); });
  mpi_probe(workload, config, empty, tracer, out);
  resilience_probe(config, empty, tracer, out);
  fs_probe(workload, config, tracer, out);
  net_probe(workload, config, seed, tracer, out);
  core_probe(workload, config, tracer, out);
}

}  // namespace figbench
