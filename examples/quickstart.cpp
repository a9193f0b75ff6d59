// quickstart — a 5-minute tour of the iosim public API.
//
// Builds a small simulated Intel Paragon (8 compute nodes, 2 I/O nodes),
// runs a 4-process message-passing program that writes and re-reads a
// striped file through two different I/O interfaces, and prints a
// Pablo-style I/O summary of what happened.
//
//   $ build/examples/quickstart
#include <cstdio>

#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "exp/report.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "trace/tracer.hpp"

int main() {
  // 1. A simulated machine: compute partition + I/O partition + network.
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(
                               /*compute_nodes=*/8, /*io_nodes=*/2));

  // 2. A striped parallel file system over the machine's I/O nodes
  //    (64 KB stripe unit, round-robin, PFS-style).
  pfs::StripedFs fs(machine);
  const pfs::FileId file = fs.create("quickstart.dat");

  // 3. A 4-process SPMD program.  Each rank writes 4 MB through the
  //    Fortran-flavoured interface, barriers, then re-reads it through
  //    the PASSION interface.  Every operation is traced.
  trace::IoTracer tracer;
  const simkit::Time elapsed = mprt::Cluster::execute(
      machine, 4, [&](mprt::Comm& c) -> simkit::Task<void> {
        const std::uint64_t my_offset =
            static_cast<std::uint64_t>(c.rank()) * (4 << 20);

        pfs::FileHandle slow = co_await fs.open(
            c.node(), file, &tracer, pfs::InterfaceParams::fortran());
        for (int chunk = 0; chunk < 64; ++chunk) {
          co_await slow.pwrite(my_offset + chunk * (64 << 10), 64 << 10);
        }
        co_await slow.close();

        co_await mprt::barrier(c);

        pfs::FileHandle fast = co_await fs.open(
            c.node(), file, &tracer, pfs::InterfaceParams::passion());
        for (int chunk = 0; chunk < 64; ++chunk) {
          co_await fast.pread(my_offset + chunk * (64 << 10), 64 << 10);
        }
        co_await fast.close();
      });

  // 4. Results: simulated wall time plus the per-operation breakdown.
  std::printf("simulated execution time: %.2f s\n\n", elapsed);
  std::printf("quickstart I/O summary\n%s\n",
              expt::io_summary_table(tracer, elapsed * 4).str().c_str());
  std::printf("disk ops: %llu reads, %llu writes across %zu I/O nodes\n\n",
              static_cast<unsigned long long>(fs.total_disk_reads()),
              static_cast<unsigned long long>(fs.total_disk_writes()),
              fs.io_node_count());
  std::printf("%s", expt::utilization_report(fs, elapsed).c_str());
  return 0;
}
