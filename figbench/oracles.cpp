#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "apps/cg/cg_app.hpp"
#include "apps/cg/cg_solver.hpp"
#include "apps/pic/pic_app.hpp"
#include "apps/pic/pic_io.hpp"
#include "apps/wordcount/wordcount.hpp"

namespace figbench {
namespace {

using namespace ds;

// ----------------------------------------------------------- wordcount --
void wordcount_oracle(std::uint64_t seed, Ledger& ledger, Tracer& tracer) {
  using namespace apps::wordcount;
  constexpr int kProcs = 48;  // three reduce-group members: two reducers + master
  WordcountConfig cfg;
  cfg.real_data = true;
  cfg.corpus.seed = seed;
  cfg.corpus.files_per_rank = 2;
  cfg.corpus.min_file_bytes = 1u << 20;
  cfg.corpus.max_file_bytes = 5u << 20;
  cfg.block_bytes = 1u << 20;
  cfg.words_per_block_real = 256;

  // Sequential histogram: every block of every file, sampled once.
  const Corpus corpus(cfg.corpus, kProcs);
  std::vector<std::uint64_t> expected(cfg.corpus.sample_vocabulary, 0);
  std::uint64_t blocks = 0;
  for (int f = 0; f < corpus.file_count(); ++f) {
    const std::uint64_t n = (corpus.file_bytes(f) + cfg.block_bytes - 1) / cfg.block_bytes;
    for (std::uint64_t b = 0; b < n; ++b) {
      std::vector<std::uint64_t> block;
      corpus.sample_block(f, static_cast<int>(b), cfg.words_per_block_real, block);
      for (std::size_t k = 0; k < block.size(); ++k) expected[k] += block[k];
    }
    blocks += n;
  }
  const std::uint64_t words = blocks * cfg.words_per_block_real;

  for (const bool decoupled : {false, true}) {
    const std::string what =
        std::string("wordcount real-data ") + (decoupled ? "decoupled" : "reference");
    WordcountResult r;
    const bool ok = ledger.attempt(what, [&] {
      tracer.timed(what, "apps", [&] {
        const auto machine = machine_for(kProcs, seed, "twolevel");
        r = decoupled ? run_decoupled(cfg, machine) : run_reference(cfg, machine);
      });
    });
    if (!ok) continue;
    std::uint64_t total = 0;
    for (const std::uint64_t c : r.histogram) total += c;
    ledger.check(total == words, what + ": word total " + std::to_string(total) +
                                     ", expected " + std::to_string(words));
    std::vector<std::uint64_t> got = r.histogram;
    got.resize(expected.size(), 0);
    ledger.check(got == expected, what + ": histogram differs from the sequential one");
    if (decoupled)
      ledger.check(r.elements_streamed == blocks,
                   what + ": streamed " + std::to_string(r.elements_streamed) +
                       " elements for " + std::to_string(blocks) + " blocks");
  }
}

// ------------------------------------------------------------------ CG --
/// Plain sequential CG on the 7-point Poisson system with zero Dirichlet
/// boundaries, indexed [i][j][k] over an n^3 grid.
struct SeqCg {
  int n;
  std::vector<double> x, r, p, ap;
  double rr = 0.0;

  [[nodiscard]] std::size_t at(int i, int j, int k) const {
    return (static_cast<std::size_t>(i) * n + j) * n + k;
  }
  [[nodiscard]] double get(const std::vector<double>& v, int i, int j, int k) const {
    if (i < 0 || j < 0 || k < 0 || i >= n || j >= n || k >= n) return 0.0;
    return v[at(i, j, k)];
  }

  SeqCg(int edge, int iterations) : n(edge) {
    const std::size_t cells = static_cast<std::size_t>(n) * n * n;
    x.assign(cells, 0.0);
    r.resize(cells);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        for (int k = 0; k < n; ++k) r[at(i, j, k)] = apps::cg::rhs_value(i, j, k);
    p = r;
    ap.assign(cells, 0.0);
    for (const double v : r) rr += v * v;
    for (int it = 0; it < iterations; ++it) {
      double pap = 0.0;
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          for (int k = 0; k < n; ++k) {
            const double v = 6.0 * get(p, i, j, k) - get(p, i - 1, j, k) -
                             get(p, i + 1, j, k) - get(p, i, j - 1, k) -
                             get(p, i, j + 1, k) - get(p, i, j, k - 1) -
                             get(p, i, j, k + 1);
            ap[at(i, j, k)] = v;
            pap += get(p, i, j, k) * v;
          }
      const double alpha = pap == 0.0 ? 0.0 : rr / pap;
      double rr_new = 0.0;
      for (std::size_t c = 0; c < cells; ++c) {
        x[c] += alpha * p[c];
        r[c] -= alpha * ap[c];
        rr_new += r[c] * r[c];
      }
      const double beta = rr == 0.0 ? 0.0 : rr_new / rr;
      rr = rr_new;
      for (std::size_t c = 0; c < cells; ++c) p[c] = r[c] + beta * p[c];
    }
  }
};

void cg_oracle(std::uint64_t seed, Ledger& ledger, Tracer& tracer) {
  using namespace apps::cg;
  constexpr int kEdge = 16;
  constexpr int kIterations = 12;
  const SeqCg oracle(kEdge, kIterations);
  double x_scale = 0.0;
  for (const double v : oracle.x) x_scale = std::max(x_scale, std::fabs(v));
  // Distributed dot products sum in another order: agree to rounding.
  constexpr double kTolerance = 1e-9;

  // 16 ranks for the reference (a 4x2x2 grid); 17 for the decoupled run,
  // whose 16 workers take the same grid and one rank helps.
  for (const auto& [variant, procs, name] :
       {std::tuple{HaloVariant::Blocking, 16, "blocking"},
        std::tuple{HaloVariant::Nonblocking, 16, "nonblocking"},
        std::tuple{HaloVariant::Decoupled, 17, "decoupled"}}) {
    const std::string what = std::string("cg real-data ") + name;
    CgConfig cfg;
    cfg.real_data = true;
    cfg.global_grid = {kEdge, kEdge, kEdge};
    cfg.iterations = kIterations;
    cfg.stride = 16;
    CgResult r;
    const bool ok = ledger.attempt(what, [&] {
      tracer.timed(what, "apps", [&] {
        r = run_cg(variant, cfg, machine_for(procs, seed, "flat"));
      });
    });
    if (!ok) continue;
    ledger.check(std::fabs(r.residual2 - oracle.rr) <= kTolerance * oracle.rr,
                 what + ": ||r||^2 " + std::to_string(r.residual2) +
                     " vs sequential " + std::to_string(oracle.rr));
    std::size_t cells = 0;
    double worst = 0.0;
    for (const CgPiece& piece : r.pieces) {
      const LocalGrid& g = piece.grid;
      for (int i = 0; i < g.nx(); ++i)
        for (int j = 0; j < g.ny(); ++j)
          for (int k = 0; k < g.nz(); ++k) {
            const double want = oracle.x[oracle.at(piece.offset[0] + i,
                                                   piece.offset[1] + j,
                                                   piece.offset[2] + k)];
            worst = std::max(worst, std::fabs(g.at(i, j, k) - want));
            ++cells;
          }
    }
    ledger.check(cells == oracle.x.size(),
                 what + ": solution covers " + std::to_string(cells) + " cells");
    ledger.check(worst <= kTolerance * x_scale,
                 what + ": solution differs from the sequential one by " +
                     std::to_string(worst));
  }
}

// ----------------------------------------------------------------- PIC --
[[nodiscard]] bool same_particle(const apps::pic::Particle& a,
                                 const apps::pic::Particle& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void pic_oracle(std::uint64_t seed, Ledger& ledger, Tracer& tracer) {
  using namespace apps::pic;
  for (const auto& [variant, procs, name] :
       {std::tuple{ExchangeVariant::Reference, 16, "reference"},
        std::tuple{ExchangeVariant::Decoupled, 17, "decoupled"}}) {
    const std::string what = std::string("pic real-data ") + name;
    PicConfig cfg;
    cfg.real_data = true;
    cfg.particles_per_rank = 400;
    cfg.steps = 4;
    cfg.stride = 16;
    cfg.seed = seed;
    const int compute_ranks = compute_ranks_of(variant, cfg, procs);
    const Domain domain = domain_of(compute_ranks);

    // Sequential: move every particle `steps` times on its own.
    std::vector<Particle> expected;
    for (const auto& list : initialize_particles(
             domain, cfg.particles_per_rank * static_cast<std::uint64_t>(procs),
             cfg.seed))
      expected.insert(expected.end(), list.begin(), list.end());
    for (Particle& p : expected)
      for (int s = 0; s < cfg.steps; ++s) move_particle(p, cfg.dt);

    PicResult r;
    const bool ok = ledger.attempt(what, [&] {
      tracer.timed(what, "apps", [&] {
        r = run_pic(variant, cfg, machine_for(procs, seed, "flat"));
      });
    });
    if (!ok) continue;
    std::vector<Particle> got;
    bool owned = true;
    for (std::size_t rank = 0; rank < r.final_particles.size(); ++rank)
      for (const Particle& p : r.final_particles[rank]) {
        owned = owned && domain.contains(static_cast<int>(rank), p);
        got.push_back(p);
      }
    auto by_id = [](const Particle& a, const Particle& b) { return a.id < b.id; };
    std::sort(expected.begin(), expected.end(), by_id);
    std::sort(got.begin(), got.end(), by_id);
    ledger.check(got.size() == expected.size() &&
                     std::equal(got.begin(), got.end(), expected.begin(),
                                same_particle),
                 what + ": final particles differ from the sequential move");
    ledger.check(owned, what + ": a particle ended on a rank that does not own it");
    ledger.check(r.total_particles_end == expected.size(),
                 what + ": particle count not conserved");
  }
}

// ------------------------------------------------------------- PIC I/O --
void pic_io_oracle(std::uint64_t seed, Ledger& ledger, Tracer& tracer) {
  using namespace apps::pic;
  constexpr int kProcs = 34;  // two writers; the chain's reduce stage is a worker
  PicIoConfig cfg;
  cfg.real_data = true;
  cfg.particles_per_rank = 300;
  cfg.steps = 3;
  cfg.stride = 16;
  cfg.batch_particles = 64;
  cfg.seed = seed;
  const std::uint64_t per_dump = cfg.particles_per_rank * kProcs;

  std::vector<std::uint64_t> reference_ids;
  for (const auto& [variant, name] : {std::pair{IoVariant::Collective, "write_all"},
                                      std::pair{IoVariant::Shared, "write_shared"},
                                      std::pair{IoVariant::Decoupled, "decoupled"}}) {
    const std::string what = std::string("pic_io real-data ") + name;
    PicIoResult r;
    const bool ok = ledger.attempt(what, [&] {
      tracer.timed(what, "apps", [&] {
        r = run_pic_io(variant, cfg, machine_for(kProcs, seed, "flat"));
      });
    });
    if (!ok) continue;
    const std::uint64_t bytes = per_dump * cfg.steps * sizeof(std::uint64_t);
    ledger.check(r.file_bytes == bytes && r.file_content.size() == bytes,
                 what + ": file holds " + std::to_string(r.file_bytes) +
                     " bytes, expected " + std::to_string(bytes));
    std::vector<std::uint64_t> ids(r.file_content.size() / sizeof(std::uint64_t));
    std::memcpy(ids.data(), r.file_content.data(), ids.size() * sizeof(std::uint64_t));

    // An id packs (rank << 40) ^ (dump << 32) ^ index. Per dump, every
    // rank's indices must be 0..n-1 exactly once, with the same n in every
    // dump, and the dump must hold every particle.
    std::map<std::pair<int, int>, std::vector<std::uint64_t>> indices;
    for (const std::uint64_t id : ids)
      indices[{static_cast<int>(id >> 32 & 0xFF), static_cast<int>(id >> 40)}]
          .push_back(id & 0xFFFFFFFFull);
    bool exactly_once = true;
    std::map<int, std::size_t> per_rank;
    std::vector<std::uint64_t> dump_total(static_cast<std::size_t>(cfg.steps), 0);
    for (auto& [key, list] : indices) {
      const auto [dump, rank] = key;
      std::sort(list.begin(), list.end());
      for (std::size_t i = 0; i < list.size(); ++i)
        exactly_once = exactly_once && list[i] == i;
      const auto [it, first] = per_rank.try_emplace(rank, list.size());
      exactly_once = exactly_once && (first || it->second == list.size());
      if (dump < cfg.steps) dump_total[static_cast<std::size_t>(dump)] += list.size();
      else exactly_once = false;
    }
    for (const std::uint64_t t : dump_total) exactly_once = exactly_once && t == per_dump;
    ledger.check(exactly_once,
                 what + ": some particle id is missing or repeated in a dump");

    // write_all and write_shared dump the same decomposition; the decoupled
    // chain computes on fewer ranks, so its ids differ by construction.
    if (variant == IoVariant::Decoupled) continue;
    std::sort(ids.begin(), ids.end());
    if (reference_ids.empty()) reference_ids = ids;
    else ledger.check(ids == reference_ids,
                      what + ": dump content differs from write_all's");
  }
}

}  // namespace

void run_oracles(const std::string& workload, std::uint64_t seed, Ledger& ledger,
                 Tracer& tracer) {
  if (workload == "mapreduce") wordcount_oracle(seed, ledger, tracer);
  else if (workload == "cg_halo") cg_oracle(seed, ledger, tracer);
  else if (workload == "pic_exchange") pic_oracle(seed, ledger, tracer);
  else if (workload == "pic_io") pic_io_oracle(seed, ledger, tracer);
}

}  // namespace figbench
