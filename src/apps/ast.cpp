#include "apps/ast.hpp"

#include <cassert>
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
  const AstConfig* cfg;
  pfs::StripedFs* fs;
  pfs::FileId file;
};

/// Rank r's share of one array in a dump.  Block-column decomposition of
/// the column-major shared file: one piece per owned column (a full
/// column, grid*8 bytes).  The Chameleon path writes these pieces one by
/// one; the collective path hands them to two-phase I/O (where adjacent
/// columns coalesce into large runs).
std::vector<pario::Extent> rank_pieces(const AstConfig& cfg, int rank,
                                       int nprocs) {
  const std::uint64_t n = cfg.grid;
  const std::uint64_t col_bytes = n * cfg.elem_bytes();
  const std::uint64_t col_lo = static_cast<std::uint64_t>(rank) * n /
                               static_cast<std::uint64_t>(nprocs);
  const std::uint64_t col_hi = static_cast<std::uint64_t>(rank + 1) * n /
                               static_cast<std::uint64_t>(nprocs);
  std::vector<pario::Extent> out;
  out.reserve(col_hi - col_lo);
  std::uint64_t buf = 0;
  for (std::uint64_t c = col_lo; c < col_hi; ++c) {
    out.push_back(pario::Extent{c * col_bytes, col_bytes, buf});
    buf += col_bytes;
  }
  return out;
}

simkit::Task<void> ast_rank(mprt::Comm& c, RankCtx& ctx) {
  const AstConfig& cfg = *ctx.cfg;
  hw::Machine& machine = c.machine();
  simkit::Engine& eng = c.engine();
  const double grid_flops_per_step =
      static_cast<double>(cfg.grid * cfg.grid) * cfg.flops_per_cell_step;
  // Fine-grid work divides by P; the coarse multigrid levels do not.
  const double step_flops =
      grid_flops_per_step * (1.0 - cfg.serial_flops_fraction) /
          static_cast<double>(c.size()) +
      grid_flops_per_step * cfg.serial_flops_fraction;

  auto pieces = rank_pieces(cfg, c.rank(), c.size());
  const std::uint64_t array_bytes =
      cfg.grid * cfg.grid * cfg.elem_bytes();
  // The Chameleon path's per-chunk library cost is an interface overhead
  // on the handle's reads and writes; the collective path never pays it.
  pfs::InterfaceParams chameleon;
  chameleon.call_overhead_ms = cfg.chameleon_call_ms;
  pfs::FileHandle h =
      co_await ctx.fs->open(c.node(), ctx.file, &ctx.tracer, chameleon);

  if (cfg.restart) {
    // Read the snapshot array of the last checkpoint back in.  The
    // collective version uses two-phase reads; the Chameleon version has
    // node 0 read every chunk and ship it to its owner.
    const std::uint64_t base =
        static_cast<std::uint64_t>(cfg.effective_dumps() - 1) *
        static_cast<std::uint64_t>(cfg.arrays_per_dump) * array_bytes;
    if (cfg.collective) {
      std::vector<pario::Extent> mine = pieces;
      for (auto& e : mine) e.file_offset += base;
      const simkit::Time r0 = eng.now();
      co_await pario::TwoPhase::read(c, *ctx.fs, ctx.file, std::move(mine));
      ctx.tracer.record(pfs::OpKind::kRead, r0, eng.now() - r0,
                        pario::total_length(pieces));
    } else {
      constexpr int kRestartTag = (1 << 18) + 1;
      if (c.rank() == 0) {
        for (int dst = 0; dst < c.size(); ++dst) {
          for (const auto& e : rank_pieces(cfg, dst, c.size())) {
            co_await h.pread(base + e.file_offset, e.length);
            if (dst != 0) co_await c.send(dst, kRestartTag, e.length);
          }
        }
      } else {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          (void)co_await c.recv(0, kRestartTag);
        }
      }
      co_await mprt::barrier(c);
    }
  }

  for (int d = 0; d < cfg.effective_dumps(); ++d) {
    // PPM sweeps + multigrid solve between dump points.
    const simkit::Time t0 = eng.now();
    co_await machine.compute(step_flops * cfg.steps_per_dump);
    ctx.compute_time += eng.now() - t0;

    for (int a = 0; a < cfg.arrays_per_dump; ++a) {
      const std::uint64_t base =
          (static_cast<std::uint64_t>(d) *
               static_cast<std::uint64_t>(cfg.arrays_per_dump) +
           static_cast<std::uint64_t>(a)) *
          array_bytes;
      if (cfg.collective) {
        std::vector<pario::Extent> mine = pieces;
        for (auto& e : mine) e.file_offset += base;
        const simkit::Time w0 = eng.now();
        co_await pario::TwoPhase::write(c, *ctx.fs, ctx.file,
                                        std::move(mine));
        ctx.tracer.record(pfs::OpKind::kWrite, w0, eng.now() - w0,
                          pario::total_length(pieces));
      } else {
        // Chameleon path: every column chunk is funnelled through node 0,
        // which performs ALL the file I/O, chunk by chunk.
        constexpr int kPieceTag = 1 << 18;
        if (c.rank() != 0) {
          for (const auto& e : pieces) {
            co_await c.send(0, kPieceTag, e.length);
          }
        } else {
          for (const auto& e : pieces) {
            co_await h.pwrite(base + e.file_offset, e.length);
          }
          for (int src = 1; src < c.size(); ++src) {
            for (const auto& e : rank_pieces(cfg, src, c.size())) {
              (void)co_await c.recv(src, kPieceTag);
              co_await h.pwrite(base + e.file_offset, e.length);
            }
          }
        }
        co_await mprt::barrier(c);
      }
    }
  }
  co_await h.close();
}

}  // namespace

RunResult run_ast(const AstConfig& cfg) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_large(
                               static_cast<std::size_t>(cfg.nprocs),
                               cfg.io_nodes));
  pfs::StripedFs fs(machine);
  const pfs::FileId file = fs.create("ast_dump");

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
        co_await ast_rank(c, *ctxs[static_cast<std::size_t>(c.rank())]);
      });

  return finish_run("ast", t, ctxs, IoBytes::kWritten);
}

}  // namespace apps
