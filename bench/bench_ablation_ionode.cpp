// Scenario "ablation_ionode" — I/O-node cache size and write-behind
// (DESIGN.md §5.3).
//
// Workload: a strided write pass followed by two sequential re-read
// passes of the same 16 MB file (the FFT transpose's access texture).
// Expected: write-behind absorbs the scattered writes (client time ~
// overhead only); cache size controls how much of the re-reads hit.
// Write-behind off is the write_through durability policy.
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

struct Result {
  double write_time;
  double reread_time;
  std::uint64_t cache_hits;
};

Result run_one(std::uint64_t cache_bytes, bool buffered) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2);
  cfg.io.cache_bytes_per_io_node = cache_bytes;
  cfg.io.server.durability.policy =
      buffered ? iosrv::DurabilityPolicy::kWriteBehind
               : iosrv::DurabilityPolicy::kWriteThrough;
  hw::Machine machine(eng, cfg);
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("abl");
  Result res{};
  eng.spawn([](simkit::Engine& e, hw::Machine& m, pfs::StripedFs& fs,
               pfs::FileId f, Result& out) -> simkit::Task<void> {
    const auto n = m.compute_node(0);
    const simkit::Time t0 = e.now();
    // 2048 strided 8 KB writes covering 16 MB.
    for (int i = 0; i < 2048; ++i) {
      co_await fs.pwrite(n, f, static_cast<std::uint64_t>(i) * 8192, 8192);
    }
    co_await fs.fsync(n, f);
    out.write_time = e.now() - t0;
    const simkit::Time t1 = e.now();
    for (int pass = 0; pass < 2; ++pass) {
      co_await fs.pread(n, f, 0, 16 << 20);
    }
    out.reread_time = e.now() - t1;
    out.cache_hits = fs.io_node(0).cache().hits() +
                     fs.io_node(1).cache().hits();
  }(eng, machine, fs, f, res));
  eng.run();
  return res;
}

void run(scenario::Context& ctx) {
  const std::uint64_t mbs[] = {1, 4, 16};
  const std::vector<Result> results =
      ctx.map<Result>(std::size(mbs) * 2, [&](std::size_t i) {
        return run_one(mbs[i / 2] << 20, (i % 2) == 1);
      });

  expt::Table table({"cache MB", "write-behind", "write+flush (s)",
                     "2x reread (s)", "cache hits"});
  double wb_write = 0, sync_write = 0, small_reread = 0, big_reread = 0;
  for (std::size_t mi = 0; mi < std::size(mbs); ++mi) {
    const std::uint64_t mb = mbs[mi];
    for (bool wb : {false, true}) {
      const Result& r = results[mi * 2 + (wb ? 1 : 0)];
      if (mb == 4 && wb) wb_write = r.write_time;
      if (mb == 4 && !wb) sync_write = r.write_time;
      if (mb == 1 && wb) small_reread = r.reread_time;
      if (mb == 16 && wb) big_reread = r.reread_time;
      table.add_row({expt::fmt_u64(mb), wb ? "on" : "off",
                     expt::fmt("%.2f", r.write_time),
                     expt::fmt("%.2f", r.reread_time),
                     expt::fmt_u64(r.cache_hits)});
    }
  }
  ctx.printf(
      "Ablation: I/O-node cache and write-behind (strided write + "
      "re-read)\n%s\n",
      ctx.table(table).c_str());

  // Write-behind defers disk work but fsync() must still pay it, so the
  // comparison is about overlap: buffered writes + flush should not be
  // slower than synchronous writes.
  ctx.expect(wb_write <= sync_write * 1.05,
             "write-behind never loses to synchronous writes");
  ctx.expect(big_reread < small_reread,
             "larger caches absorb the re-read passes");
}

const scenario::Registration reg{{
    .name = "ablation_ionode",
    .title = "Ablation: I/O-node cache size and write-behind",
    .description =
        "Writes strided then re-reads sequentially (the FFT transpose "
        "texture) while sweeping I/O-node cache size and write-behind. "
        "--check asserts write-behind absorbs the scattered writes and "
        "cache size controls the re-read hit rate.",
    .default_scale = 1.0,
    .grid = {{"cache_mb", {"1", "4", "16"}},
             {"write_behind", {"off", "on"}}},
    .run = run,
}};

}  // namespace
