// pablo_trace — instrument a run the way the paper did.
//
// Runs a small BTIO job with full event retention, prints the Table 2/3
// style summary AND writes the raw event stream as an SDDF-style trace
// file (pablo_trace.sddf in the working directory), the format Pablo's
// post-processing tools consumed.
//
//   $ build/examples/pablo_trace
#include <cstdio>
#include <fstream>

#include "exp/report.hpp"
#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "trace/sddf.hpp"
#include "trace/tracer.hpp"

int main() {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::sp2(4));
  pfs::StripedFs fs(machine);
  const pfs::FileId file = fs.create("solution");

  // One tracer per rank, events retained (Pablo traced per processor).
  trace::IoTracer tracers[4] = {
      trace::IoTracer(true), trace::IoTracer(true), trace::IoTracer(true),
      trace::IoTracer(true)};

  const simkit::Time elapsed = mprt::Cluster::execute(
      machine, 4, [&](mprt::Comm& c) -> simkit::Task<void> {
        trace::IoTracer& tr = tracers[c.rank()];
        pfs::FileHandle h = co_await fs.open(c.node(), file, &tr);
        // Two dumps of 64 interleaved 8 KB records each.
        for (int dump = 0; dump < 2; ++dump) {
          co_await c.machine().compute(25e6);
          for (int i = 0; i < 64; ++i) {
            const auto rec = static_cast<std::uint64_t>(
                (dump * 64 + i) * 4 + c.rank());
            co_await h.seek(rec * 8192);
            co_await h.write(8192);
          }
          co_await mprt::barrier(c);
        }
        co_await h.close();
      });

  // Merged job-level summary (what the paper's tables show).
  trace::IoTracer merged;
  for (const auto& t : tracers) merged.merge(t);
  std::printf("BTIO-style job, 4 processors\n%s\n",
              expt::io_summary_table(merged, elapsed * 4).str().c_str());

  // Per-processor SDDF streams concatenated into one trace file.
  std::ofstream out("pablo_trace.sddf");
  std::size_t records = 0;
  for (int r = 0; r < 4; ++r) {
    trace::SddfOptions opts;
    opts.processor = r;
    const std::string sddf = trace::to_sddf(tracers[r], opts);
    records += trace::sddf_record_count(sddf);
    out << sddf;
  }
  std::printf("wrote pablo_trace.sddf: %zu event records from 4 "
              "processors\n",
              records);
  return 0;
}
