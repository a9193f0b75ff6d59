#include "apps/scf3.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "mprt/comm.hpp"
#include "pario/balance.hpp"
#include "pario/prefetch.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace apps {
namespace {

struct RankCtx : RankTally {
  const Scf30Config* cfg;
  pfs::StripedFs* fs;
  pfs::FileId file;
  std::uint64_t my_integrals;  // integrals this rank evaluates
};

simkit::Task<void> scf30_rank(mprt::Comm& c, RankCtx& ctx) {
  const Scf30Config& cfg = *ctx.cfg;
  hw::Machine& machine = c.machine();
  simkit::Engine& eng = c.engine();
  const double f = std::clamp(cfg.cached_percent / 100.0, 0.0, 1.0);
  const std::uint64_t chunk = cfg.memory_kb * 1024;

  const auto cached =
      static_cast<std::uint64_t>(static_cast<double>(ctx.my_integrals) * f);
  const std::uint64_t cached_bytes = cached * cfg.bytes_per_integral;

  auto timed_compute = [&](double flops) -> simkit::Task<void> {
    const simkit::Time t0 = eng.now();
    co_await machine.compute(flops);
    ctx.compute_time += eng.now() - t0;
  };

  // ---- iteration 1: evaluate everything, write the cached fraction ----
  {
    pfs::FileHandle io = co_await ctx.fs->open(
        c.node(), ctx.file, &ctx.tracer, pfs::InterfaceParams::passion());
    const std::uint64_t n_chunks = cached_bytes == 0
                                       ? 0
                                       : (cached_bytes + chunk - 1) / chunk;
    const double eval_flops = static_cast<double>(ctx.my_integrals) *
                              cfg.mean_flops_all();
    if (n_chunks == 0) {
      co_await timed_compute(eval_flops);
    } else {
      // Interleave evaluation with chunked writes, costliest first.
      for (std::uint64_t k = 0; k < n_chunks; ++k) {
        co_await timed_compute(eval_flops / static_cast<double>(n_chunks));
        co_await io.write(std::min(chunk, cached_bytes - k * chunk));
      }
    }
    co_await io.fsync();
    co_await io.close();
  }

  // ---- balanced I/O: even out the private file sizes ------------------
  std::uint64_t my_file_bytes = cached_bytes;
  if (cfg.balanced_io) {
    auto sizes = co_await pario::balance_files(c, *ctx.fs, ctx.file);
    my_file_bytes = sizes[static_cast<std::size_t>(c.rank())];
  }

  // ---- iterations 2..K: recompute the cheap ones, read the cached -----
  const double recompute_flops =
      static_cast<double>(ctx.my_integrals) * (1.0 - f) *
      cfg.mean_flops_cheapest(1.0 - f);
  const double fock_flops = static_cast<double>(ctx.my_integrals) *
                            cfg.fock_flops_per_integral;
  for (int iter = 1; iter < cfg.iterations; ++iter) {
    pfs::FileHandle io = co_await ctx.fs->open(
        c.node(), ctx.file, &ctx.tracer, pfs::InterfaceParams::passion());
    const std::uint64_t n_chunks =
        my_file_bytes == 0 ? 0 : (my_file_bytes + chunk - 1) / chunk;
    if (n_chunks == 0) {
      co_await timed_compute(recompute_flops + fock_flops);
    } else {
      // Prefetched scan of the cached integrals; recompute + Fock work
      // overlaps the in-flight reads.
      pario::Prefetcher pf(io, 0, chunk, my_file_bytes);
      const double per_chunk =
          (recompute_flops + fock_flops) / static_cast<double>(n_chunks);
      while (!pf.done()) {
        (void)co_await pf.next();  // traced as wait + copy
        co_await timed_compute(per_chunk);
      }
    }
    co_await io.close();
  }
}

}  // namespace

RunResult run_scf30(const Scf30Config& cfg) {
  simkit::Engine eng;
  hw::MachineConfig mc = hw::MachineConfig::paragon_large(
      static_cast<std::size_t>(cfg.nprocs), cfg.io_nodes);
  hw::Machine machine(eng, mc);
  pfs::StripedFs fs(machine);

  const std::vector<std::uint64_t> shares =
      split_integrals(cfg.total_integrals(), cfg.nprocs, cfg.imbalance);
  std::vector<std::unique_ptr<RankCtx>> ctxs;
  for (int r = 0; r < cfg.nprocs; ++r) {
    auto ctx = std::make_unique<RankCtx>();
    ctx->cfg = &cfg;
    ctx->fs = &fs;
    ctx->file = fs.create("scf3_integrals_" + std::to_string(r));
    ctx->my_integrals = shares[static_cast<std::size_t>(r)];
    ctxs.push_back(std::move(ctx));
  }

  const simkit::Time t = mprt::Cluster::execute(
      machine, cfg.nprocs, [&](mprt::Comm& c) -> simkit::Task<void> {
        co_await scf30_rank(c, *ctxs[static_cast<std::size_t>(c.rank())]);
      });

  return finish_run("scf30", t, ctxs, IoBytes::kAll);
}

}  // namespace apps
