// Tests for the interface cost model (Fortran vs PASSION) — the paper's
// Table 2 vs Table 3 effect — as paid by a pfs::FileHandle opened through
// each interface.
#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "trace/tracer.hpp"

namespace pario {
namespace {

using pfs::FileHandle;
using pfs::InterfaceParams;

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  Rig() : machine(eng, hw::MachineConfig::paragon_large(4, 12)), fs(machine) {}
};

double timed_reads(const InterfaceParams& params, int n_reads,
                   std::uint64_t chunk, trace::IoTracer* tracer = nullptr) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("x");
  double total = 0.0;
  rig.eng.spawn([](Rig& r, pfs::FileId f, InterfaceParams p, int n,
                   std::uint64_t chunk, double& out,
                   trace::IoTracer* tr) -> simkit::Task<void> {
    FileHandle io = co_await r.fs.open(r.machine.compute_node(0), f, tr, p);
    const simkit::Time t0 = r.eng.now();
    for (int i = 0; i < n; ++i) co_await io.read(chunk);
    out = r.eng.now() - t0;
    co_await io.close();
  }(rig, f, params, n_reads, chunk, total, tracer));
  rig.eng.run();
  return total;
}

TEST(IoInterface, FortranReadsCostMoreThanPassion) {
  const double fortran = timed_reads(InterfaceParams::fortran(), 50,
                                     64 * 1024);
  const double passion = timed_reads(InterfaceParams::passion(), 50,
                                     64 * 1024);
  // Table 2 vs Table 3: ~1.78x on the read path.  Accept a generous band.
  EXPECT_GT(fortran / passion, 1.4);
  EXPECT_LT(fortran / passion, 2.6);
}

TEST(IoInterface, FewerLargerCallsBeatManySmallOnesSameVolume) {
  // 8 MB moved either as 512 x 16 KB or as 8 x 1 MB: the per-call costs
  // must make the chunked-up version far slower on both interfaces.
  const double f_many = timed_reads(InterfaceParams::fortran(), 512,
                                    16 * 1024);
  const double f_few = timed_reads(InterfaceParams::fortran(), 8, 1 << 20);
  EXPECT_GT(f_many, 2.0 * f_few);
  const double p_many = timed_reads(InterfaceParams::passion(), 512,
                                    16 * 1024);
  const double p_few = timed_reads(InterfaceParams::passion(), 8, 1 << 20);
  EXPECT_GT(p_many, 1.3 * p_few);
}

TEST(IoInterface, TracerSeesInterfaceOverhead) {
  trace::IoTracer tr;
  const double total = timed_reads(InterfaceParams::fortran(), 10, 64 * 1024,
                                   &tr);
  EXPECT_EQ(tr.summary(pfs::OpKind::kRead).count(), 10u);
  EXPECT_EQ(tr.summary(pfs::OpKind::kOpen).count(), 1u);
  EXPECT_EQ(tr.summary(pfs::OpKind::kClose).count(), 1u);
  // Traced read time equals the wall read time (interface included).
  EXPECT_NEAR(tr.summary(pfs::OpKind::kRead).time(), total, 1e-9);
  // Each Fortran read must cost at least its 9 ms bookkeeping.
  EXPECT_GT(tr.summary(pfs::OpKind::kRead).latency.min(), 9e-3);
}

TEST(IoInterface, SeekCostsDifferByInterface) {
  auto timed_seeks = [](const InterfaceParams& p) {
    Rig rig;
    const pfs::FileId f = rig.fs.create("s");
    double total = 0.0;
    rig.eng.spawn([](Rig& r, pfs::FileId f, InterfaceParams p,
                     double& out) -> simkit::Task<void> {
      FileHandle io =
          co_await r.fs.open(r.machine.compute_node(0), f, nullptr, p);
      const simkit::Time t0 = r.eng.now();
      for (int i = 0; i < 100; ++i) {
        co_await io.seek(static_cast<std::uint64_t>(i) * 4096);
      }
      out = r.eng.now() - t0;
    }(rig, f, p, total));
    rig.eng.run();
    return total;
  };
  const double fortran = timed_seeks(InterfaceParams::fortran());
  const double passion = timed_seeks(InterfaceParams::passion());
  // Table 2: 994 Fortran seeks = 8.01 s (~8 ms each); Table 3: 604k
  // PASSION seeks = 256 s (~0.42 ms each) — an order of magnitude apart.
  EXPECT_GT(fortran / passion, 8.0);
}

TEST(IoInterface, WritePathContentIntact) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("w", /*backed=*/true);
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  std::vector<std::byte> got(4096);
  rig.eng.spawn([](Rig& r, pfs::FileId f, std::span<const std::byte> in,
                   std::span<std::byte> out) -> simkit::Task<void> {
    FileHandle io = co_await r.fs.open(r.machine.compute_node(0), f, nullptr,
                                       InterfaceParams::passion());
    co_await io.write(in.size(), in);
    co_await io.seek(0);
    co_await io.read(out.size(), out);
    co_await io.close();
  }(rig, f, data, got));
  rig.eng.run();
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace pario
