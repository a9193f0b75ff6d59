// Integration tests for the striped file system on a simulated machine.
#include "pfs/fs.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "hw/disk.hpp"
#include "hw/machine.hpp"
#include "simkit/engine.hpp"

namespace pfs {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  StripedFs fs;
  explicit Rig(hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2))
      : machine(eng, std::move(cfg)), fs(machine) {}
};

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xFF);
  }
  return v;
}

TEST(StripedFs, WriteReadRoundTripBacked) {
  Rig rig;
  const FileId f = rig.fs.create("data", /*backed=*/true);
  auto data = pattern(200 * 1024);  // spans several 64 KB stripes
  std::vector<std::byte> got(data.size());
  rig.eng.spawn([](Rig& r, FileId f, std::span<const std::byte> in,
                   std::span<std::byte> out) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, in.size(), in);
    co_await r.fs.pread(r.machine.compute_node(0), f, 0, out.size(), out);
  }(rig, f, data, got));
  rig.eng.run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(rig.fs.file_size(f), data.size());
}

TEST(StripedFs, UnalignedOffsetsRoundTrip) {
  Rig rig;
  const FileId f = rig.fs.create("data", true);
  auto data = pattern(100'000, 3);
  std::vector<std::byte> got(40'000);
  rig.eng.spawn([](Rig& r, FileId f, std::span<const std::byte> in,
                   std::span<std::byte> out) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(1), f, 12345, in.size(), in);
    co_await r.fs.pread(r.machine.compute_node(2), f, 12345 + 1000,
                        out.size(), out);
  }(rig, f, data, got));
  rig.eng.run();
  EXPECT_TRUE(std::memcmp(got.data(), data.data() + 1000, got.size()) == 0);
}

TEST(StripedFs, UnbackedFilesTrackSizeOnly) {
  Rig rig;
  const FileId f = rig.fs.create("big", /*backed=*/false);
  rig.eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 10 << 20);
    co_await r.fs.pread(r.machine.compute_node(0), f, 0, 1 << 20);
  }(rig, f));
  rig.eng.run();
  EXPECT_EQ(rig.fs.file_size(f), 10u << 20);
  EXPECT_GT(rig.eng.now(), 0.0);
}

TEST(StripedFs, IoTimeScalesWithVolume) {
  Rig a, b;
  const FileId fa = a.fs.create("a");
  const FileId fb = b.fs.create("b");
  a.eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 1 << 20);
  }(a, fa));
  b.eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 8 << 20);
  }(b, fb));
  a.eng.run();
  b.eng.run();
  EXPECT_GT(b.eng.now(), 2.0 * a.eng.now());
}

TEST(StripedFs, MoreIoNodesSpeedUpBigTransfers) {
  Rig two(hw::MachineConfig::paragon_small(4, 2));
  Rig four(hw::MachineConfig::paragon_small(4, 4));
  for (Rig* rig : {&two, &four}) {
    const FileId f = rig->fs.create("x");
    rig->eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
      // Write-behind absorbs writes; read it back cold for disk limits.
      co_await r.fs.pread(r.machine.compute_node(0), f, 0, 16 << 20);
    }(*rig, f));
    rig->eng.run();
  }
  EXPECT_LT(four.eng.now(), two.eng.now());
  EXPECT_GT(two.eng.now() / four.eng.now(), 1.5);  // near-linear scaling
}

TEST(StripedFs, ManySmallCallsSlowerThanOneBigCall) {
  // The paper's central software effect: call count dominates.
  Rig many, one;
  const FileId fm = many.fs.create("m");
  const FileId fo = one.fs.create("o");
  many.eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
    for (int i = 0; i < 256; ++i) {
      co_await r.fs.pread(r.machine.compute_node(0), f,
                          static_cast<std::uint64_t>(i) * 4096, 4096);
    }
  }(many, fm));
  one.eng.spawn([](Rig& r, FileId f) -> simkit::Task<void> {
    co_await r.fs.pread(r.machine.compute_node(0), f, 0, 256 * 4096);
  }(one, fo));
  many.eng.run();
  one.eng.run();
  EXPECT_GT(many.eng.now(), 4.0 * one.eng.now());
}

TEST(StripedFs, CachedRereadIsFaster) {
  Rig rig;
  const FileId f = rig.fs.create("c");
  double first = 0.0, second = 0.0;
  rig.eng.spawn([](Rig& r, FileId f, double& t1, double& t2)
                    -> simkit::Task<void> {
    const auto n = r.machine.compute_node(0);
    const std::uint64_t len = 512 * 1024;  // fits the 8 MB node caches
    const simkit::Time a = r.eng.now();
    co_await r.fs.pread(n, f, 0, len);
    t1 = r.eng.now() - a;
    const simkit::Time b = r.eng.now();
    co_await r.fs.pread(n, f, 0, len);
    t2 = r.eng.now() - b;
  }(rig, f, first, second));
  rig.eng.run();
  EXPECT_LT(second, first * 0.6);
  EXPECT_GT(rig.fs.io_node(0).cache().hits(), 0u);
}

TEST(StripedFs, WriteBehindMakesWritesFasterThanColdReads) {
  // Paragon preset buffers writes; a same-size cold read hits the disks.
  Rig rig;
  const FileId f = rig.fs.create("wb");
  double write_t = 0.0, read_t = 0.0;
  rig.eng.spawn([](Rig& r, FileId f, double& wt, double& rt)
                    -> simkit::Task<void> {
    const auto n = r.machine.compute_node(0);
    const std::uint64_t len = 2 << 20;
    const simkit::Time a = r.eng.now();
    co_await r.fs.pwrite(n, f, 0, len);
    wt = r.eng.now() - a;
    // Different file region: cold read.
    const simkit::Time b = r.eng.now();
    co_await r.fs.pread(n, f, 64 << 20, len);
    rt = r.eng.now() - b;
  }(rig, f, write_t, read_t));
  rig.eng.run();
  EXPECT_LT(write_t, read_t);
}

TEST(StripedFs, FlushWaitsForWriteBehindData) {
  Rig rig;
  const FileId f = rig.fs.create("fl");
  double before_flush = 0.0, after_flush = 0.0;
  rig.eng.spawn([](Rig& r, FileId f, double& t0, double& t1)
                    -> simkit::Task<void> {
    const auto n = r.machine.compute_node(0);
    co_await r.fs.pwrite(n, f, 0, 4 << 20);
    t0 = r.eng.now();
    co_await r.fs.fsync(n, f);
    t1 = r.eng.now();
  }(rig, f, before_flush, after_flush));
  rig.eng.run();
  EXPECT_GT(after_flush, before_flush);  // flush had real work to wait on
  EXPECT_GE(rig.fs.total_disk_writes(), (4u << 20) / (64 * 1024));
}

// The SP-2 preset writes through: a one-block write acks after exactly
// one in-place disk write, the audit ledger takes the ack as durable (a
// crash at the ack loses nothing), and the node bills the disk write to
// its durability wait.  The Paragon preset acks from its cache instead.
TEST(StripedFs, Sp2WriteIsOneSynchronousDurableDiskWrite) {
  struct Seen {
    std::uint64_t disk_writes_at_ack = 0;
    std::uint64_t disk_writes_at_end = 0;
    std::uint64_t lost_at_ack = 0;
    double durability_wait = 0.0;
  };
  auto write_block = [](hw::MachineConfig cfg) {
    Rig rig(std::move(cfg));
    audit::Ledger ledger;
    audit::Scope scope(ledger);
    const FileId f = rig.fs.create("w");
    Seen seen;
    rig.eng.spawn([](Rig& r, FileId f, audit::Ledger& led,
                     Seen& out) -> simkit::Task<void> {
      const std::uint64_t len = r.fs.params().stripe_unit_bytes;
      co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, len);
      out.disk_writes_at_ack = r.fs.total_disk_writes();
      led.note_lost(f, r.fs.stripe_map(f).server_of(0), 0, len);
      out.lost_at_ack = led.totals().lost_updates;
    }(rig, f, ledger, seen));
    rig.eng.run();
    seen.disk_writes_at_end = rig.fs.total_disk_writes();
    seen.durability_wait =
        rig.fs.io_node(rig.fs.stripe_map(f).server_of(0)).durability_wait();
    return seen;
  };

  const hw::MachineConfig sp2 = hw::MachineConfig::sp2(4);
  const Seen through = write_block(sp2);
  EXPECT_EQ(through.disk_writes_at_ack, 1u);
  EXPECT_EQ(through.disk_writes_at_end, 1u);
  EXPECT_EQ(through.lost_at_ack, 0u);
  // The first write of a file lands at the head's start position: no
  // seek, so the wait is the model's sequential write time.
  hw::DiskModel disk(sp2.disk);
  EXPECT_NEAR(through.durability_wait,
              disk.access(0, sp2.io.stripe_unit_bytes, hw::AccessKind::kWrite),
              1e-12);

  const Seen behind = write_block(hw::MachineConfig::paragon_small(4, 2));
  EXPECT_EQ(behind.disk_writes_at_ack, 0u);
  EXPECT_EQ(behind.disk_writes_at_end, 1u);
  EXPECT_EQ(behind.lost_at_ack, 1u);
  EXPECT_EQ(behind.durability_wait, 0.0);
}

TEST(StripedFs, ConcurrentClientsContendAtIoNodes) {
  // Time for P clients each reading distinct data grows superlinearly
  // versus one client once the two I/O nodes saturate.
  auto run_clients = [](int nclients) {
    Rig rig(hw::MachineConfig::paragon_small(16, 2));
    const FileId f = rig.fs.create("shared");
    for (int c = 0; c < nclients; ++c) {
      rig.eng.spawn([](Rig& r, FileId f, int c) -> simkit::Task<void> {
        co_await r.fs.pread(r.machine.compute_node(
                                static_cast<std::size_t>(c)),
                            f, static_cast<std::uint64_t>(c) * (32 << 20),
                            4 << 20);
      }(rig, f, c));
    }
    rig.eng.run();
    return rig.eng.now();
  };
  const double t1 = run_clients(1);
  const double t8 = run_clients(8);
  EXPECT_GT(t8, 3.0 * t1);  // 8x the data through the same 2 nodes
}

TEST(FileHandle, CursorAdvancesAndSeeks) {
  Rig rig;
  const FileId f = rig.fs.create("h", true);
  auto data = pattern(8192, 9);
  std::vector<std::byte> got(4096);
  rig.eng.spawn([](Rig& r, FileId f, std::span<const std::byte> in,
                   std::span<std::byte> out) -> simkit::Task<void> {
    FileHandle h = co_await r.fs.open(r.machine.compute_node(0), f);
    co_await h.write(4096, in.subspan(0, 4096));
    co_await h.write(4096, in.subspan(4096));
    EXPECT_EQ(h.tell(), 8192u);
    co_await h.seek(4096);
    co_await h.read(4096, out);
    co_await h.close();
  }(rig, f, data, got));
  rig.eng.run();
  EXPECT_TRUE(std::memcmp(got.data(), data.data() + 4096, 4096) == 0);
}

TEST(FileHandle, AsyncIreadOverlapsWithDelay) {
  Rig rig;
  const FileId f = rig.fs.create("async");
  double serial_t = 0.0, overlap_t = 0.0;
  // Serial: read then compute.
  rig.eng.spawn([](Rig& r, FileId f, double& out) -> simkit::Task<void> {
    FileHandle h = co_await r.fs.open(r.machine.compute_node(0), f);
    const simkit::Time t0 = r.eng.now();
    co_await h.pread(0, 8 << 20);
    co_await r.eng.delay(0.5);  // "compute"
    out = r.eng.now() - t0;
  }(rig, f, serial_t));
  rig.eng.run();

  Rig rig2;
  const FileId f2 = rig2.fs.create("async2");
  rig2.eng.spawn([](Rig& r, FileId f, double& out) -> simkit::Task<void> {
    FileHandle h = co_await r.fs.open(r.machine.compute_node(0), f);
    const simkit::Time t0 = r.eng.now();
    auto pending = h.iread(0, 8 << 20);
    co_await r.eng.delay(0.5);  // compute while the read is in flight
    co_await pending.join();
    out = r.eng.now() - t0;
  }(rig2, f2, overlap_t));
  rig2.eng.run();
  EXPECT_LT(overlap_t, serial_t - 0.2);
}

TEST(FileHandle, BareHandleAddsNoEventsToTheRawCall) {
  // A handle opened without an interface pays nothing on top of the
  // file-system call: no time and no event (a zero-length delay would
  // still be one).  Both rigs open the same way, then read the same range
  // through the handle or through StripedFs directly.
  auto run = [](bool through_handle) {
    Rig rig;
    const FileId f = rig.fs.create("bare");
    rig.eng.spawn([](Rig& r, FileId f, bool handle) -> simkit::Task<void> {
      FileHandle h = co_await r.fs.open(r.machine.compute_node(0), f);
      if (handle) {
        co_await h.pread(64 << 10, 256 << 10);
      } else {
        co_await r.fs.pread(h.client(), h.file(), 64 << 10, 256 << 10);
      }
    }(rig, f, through_handle));
    rig.eng.run();
    return std::pair{rig.eng.now(), rig.eng.events_processed()};
  };
  const auto [handle_t, handle_events] = run(true);
  const auto [raw_t, raw_events] = run(false);
  EXPECT_EQ(handle_t, raw_t);
  EXPECT_EQ(handle_events, raw_events);
}

TEST(StripedFs, PokePeekBypassSimulatedTime) {
  Rig rig;
  const FileId f = rig.fs.create("p", true);
  auto data = pattern(100);
  rig.fs.poke(f, 50, data);
  std::vector<std::byte> got(100);
  rig.fs.peek(f, 50, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(rig.eng.now(), 0.0);
  EXPECT_EQ(rig.fs.file_size(f), 150u);
}

}  // namespace
}  // namespace pfs
