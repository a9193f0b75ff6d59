#include "apps/btio.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pario/extent.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace apps {
namespace {

struct RankCtx : RankTally {
  const BtioConfig* cfg;
  pfs::StripedFs* fs;
  pfs::FileId file;
};

/// The pencils (x-rows) rank r owns in one solution dump, as file extents
/// relative to the dump's base offset.
std::vector<pario::Extent> rank_pencils(const BtioConfig& cfg, int rank,
                                        int q) {
  const std::uint64_t n = cfg.grid_n();
  const std::uint64_t row_bytes = n * cfg.cell_bytes();
  const std::uint64_t ylo = static_cast<std::uint64_t>(rank % q) * n /
                            static_cast<std::uint64_t>(q);
  const std::uint64_t yhi = static_cast<std::uint64_t>(rank % q + 1) * n /
                            static_cast<std::uint64_t>(q);
  const std::uint64_t zlo = static_cast<std::uint64_t>(rank / q) * n /
                            static_cast<std::uint64_t>(q);
  const std::uint64_t zhi = static_cast<std::uint64_t>(rank / q + 1) * n /
                            static_cast<std::uint64_t>(q);
  std::vector<pario::Extent> out;
  out.reserve((yhi - ylo) * (zhi - zlo));
  std::uint64_t buf = 0;
  for (std::uint64_t z = zlo; z < zhi; ++z) {
    for (std::uint64_t y = ylo; y < yhi; ++y) {
      out.push_back(pario::Extent{(z * n + y) * row_bytes, row_bytes, buf});
      buf += row_bytes;
    }
  }
  return out;
}

simkit::Task<void> btio_rank(mprt::Comm& c, RankCtx& ctx, int q) {
  const BtioConfig& cfg = *ctx.cfg;
  hw::Machine& machine = c.machine();
  simkit::Engine& eng = c.engine();
  const std::uint64_t n = cfg.grid_n();
  const double cells_per_rank = static_cast<double>(n * n * n) /
                                static_cast<double>(c.size());
  const std::uint64_t dump_bytes = cfg.dump_bytes();

  auto pencils = rank_pencils(cfg, c.rank(), q);
  pfs::FileHandle h =
      co_await ctx.fs->open(c.node(), ctx.file, &ctx.tracer);

  for (int d = 0; d < cfg.effective_dumps(); ++d) {
    // Solver steps between dumps.
    const simkit::Time t0 = eng.now();
    co_await machine.compute(cells_per_rank * cfg.flops_per_cell_step *
                             cfg.steps_per_dump);
    ctx.compute_time += eng.now() - t0;

    const std::uint64_t base =
        static_cast<std::uint64_t>(d) * dump_bytes;
    if (cfg.collective) {
      std::vector<pario::Extent> mine = pencils;
      for (auto& e : mine) e.file_offset += base;
      pario::TwoPhaseStats stats;
      const simkit::Time w0 = eng.now();
      co_await pario::TwoPhase::write(c, *ctx.fs, ctx.file, std::move(mine),
                                      {}, &stats);
      // The collective call is one application-level write op.
      ctx.tracer.record(pfs::OpKind::kWrite, w0, eng.now() - w0,
                        pario::total_length(pencils));
    } else {
      // MPI-2 I/O "as a Unix-style interface": seek + write per pencil.
      for (const auto& e : pencils) {
        co_await h.seek(base + e.file_offset);
        co_await h.write(e.length);
      }
      co_await mprt::barrier(c);
    }
  }

  if (cfg.verify) {
    // Read the final dump back for the benchmark's solution check.
    const std::uint64_t base =
        static_cast<std::uint64_t>(cfg.effective_dumps() - 1) * dump_bytes;
    if (cfg.collective) {
      std::vector<pario::Extent> mine = pencils;
      for (auto& e : mine) e.file_offset += base;
      const simkit::Time r0 = eng.now();
      co_await pario::TwoPhase::read(c, *ctx.fs, ctx.file, std::move(mine));
      ctx.tracer.record(pfs::OpKind::kRead, r0, eng.now() - r0,
                        pario::total_length(pencils));
    } else {
      for (const auto& e : pencils) {
        co_await h.seek(base + e.file_offset);
        co_await h.read(e.length);
      }
      co_await mprt::barrier(c);
    }
  }
  co_await h.close();
}

}  // namespace

RunResult run_btio(const BtioConfig& cfg) {
  const int q = static_cast<int>(std::lround(std::sqrt(cfg.nprocs)));
  assert(q * q == cfg.nprocs && "BT requires a perfect-square rank count");

  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::sp2(static_cast<std::size_t>(cfg.nprocs)));
  pfs::StripedFs fs(machine);
  const pfs::FileId file = fs.create("btio_solution");

  std::vector<std::unique_ptr<RankCtx>> ctxs;
  for (int r = 0; r < cfg.nprocs; ++r) {
    auto ctx = std::make_unique<RankCtx>();
    ctx->cfg = &cfg;
    ctx->fs = &fs;
    ctx->file = file;
    ctxs.push_back(std::move(ctx));
  }

  const simkit::Time t = mprt::Cluster::execute(
      machine, cfg.nprocs, [&](mprt::Comm& c) -> simkit::Task<void> {
        co_await btio_rank(c, *ctxs[static_cast<std::size_t>(c.rank())], q);
      });

  return finish_run("btio", t, ctxs, IoBytes::kWritten);
}

}  // namespace apps
