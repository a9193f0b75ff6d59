// Scenario "ablation_iomode" — PFS shared-file I/O modes (paper §5:
// "both PFS and PIOFS have different I/O modes which make the programming
// for I/O very difficult").  Eight processes each append 32 records of
// 64 KB to one shared file under each mode; the mode choice alone swings
// the I/O time by an order of magnitude — the usability/performance trap
// the paper complains about.
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pfs/modes.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

double run_mode(pfs::IoMode mode, int procs, int records,
                std::uint64_t record_size) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_large(
                               static_cast<std::size_t>(procs), 12));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("modes");
  return mprt::Cluster::execute(
      machine, procs, [&](mprt::Comm& c) -> simkit::Task<void> {
        pfs::SharedFile sf = co_await pfs::SharedFile::open(
            c, fs, f, mode, record_size);
        for (int i = 0; i < records; ++i) {
          (void)co_await sf.write(record_size);
        }
        co_await sf.close();
      });
}

void run(scenario::Context& ctx) {
  constexpr int kProcs = 8;
  constexpr int kRecords = 32;
  constexpr std::uint64_t kRecordSize = 64 * 1024;

  struct Row {
    pfs::IoMode mode;
    const char* semantics;
  };
  const Row rows[] = {
      {pfs::IoMode::kUnix, "private pointers (uncoordinated)"},
      {pfs::IoMode::kLog, "shared pointer, token per access"},
      {pfs::IoMode::kSync, "shared pointer, strict rank order"},
      {pfs::IoMode::kRecord, "fixed records, offsets computed locally"},
  };
  const std::vector<double> times =
      ctx.map<double>(std::size(rows), [&](std::size_t i) {
        return run_mode(rows[i].mode, kProcs, kRecords, kRecordSize);
      });

  expt::Table table({"mode", "semantics", "time (s)"});
  double t_log = 0, t_sync = 0, t_record = 0;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    const double t = times[i];
    if (r.mode == pfs::IoMode::kLog) t_log = t;
    if (r.mode == pfs::IoMode::kSync) t_sync = t;
    if (r.mode == pfs::IoMode::kRecord) t_record = t;
    table.add_row({std::string(pfs::to_string(r.mode)), r.semantics,
                   expt::fmt("%.2f", t)});
  }
  ctx.printf("Ablation: PFS I/O modes — %d procs x %d records x %llu KB "
             "to one shared file\n%s\n",
             kProcs, kRecords,
             static_cast<unsigned long long>(kRecordSize / 1024),
             ctx.table(table).c_str());

  ctx.expect(t_record < t_log,
             "M_RECORD (no coordination) beats M_LOG (token traffic)");
  ctx.expect(t_sync >= t_log * 0.9,
             "M_SYNC (strict order) is at least as serial as M_LOG");
}

const scenario::Registration reg{{
    .name = "ablation_iomode",
    .title = "Ablation: PFS shared-file I/O mode comparison",
    .description =
        "Appends records to one shared file under the four PFS I/O modes "
        "(M_UNIX/M_LOG/M_SYNC/M_RECORD). --check asserts the mode choice "
        "alone swings I/O time by an order of magnitude — the paper's "
        "usability/performance trap.",
    .default_scale = 1.0,
    .grid = {{"mode", {"M_UNIX", "M_LOG", "M_SYNC", "M_RECORD"}}},
    .run = run,
}};

}  // namespace
