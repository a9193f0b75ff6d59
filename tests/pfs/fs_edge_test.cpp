// Edge-case tests for the striped file system.
#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "pfs/fs.hpp"
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

TEST(FsEdge, ZeroLengthOpsCostOnlySyscall) {
  Rig rig;
  const FileId f = rig.fs.create("z");
  double t = -1;
  rig.eng.spawn([](Rig& r, FileId f, double& out) -> simkit::Task<void> {
    co_await r.fs.pread(r.machine.compute_node(0), f, 0, 0);
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 0);
    out = r.eng.now();
  }(rig, f, t));
  rig.eng.run();
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 0.01);  // two syscalls, nothing else
  EXPECT_EQ(rig.fs.file_size(f), 0u);
}

TEST(FsEdge, FilesRotateFirstServer) {
  Rig rig;
  const FileId a = rig.fs.create("a");
  const FileId b = rig.fs.create("b");
  // With 2 I/O nodes, consecutive files start striping on different nodes.
  EXPECT_NE(rig.fs.stripe_map(a).server_of(0),
            rig.fs.stripe_map(b).server_of(0));
}

TEST(FsEdge, FlushWithNoDirtyDataIsCheap) {
  Rig rig;
  const FileId f = rig.fs.create("nf");
  double t = -1;
  rig.eng.spawn([](Rig& r, FileId f, double& out) -> simkit::Task<void> {
    co_await r.fs.fsync(r.machine.compute_node(0), f);
    out = r.eng.now();
  }(rig, f, t));
  rig.eng.run();
  EXPECT_LT(t, 0.01);
}

// close and fsync drain only the servers a file is striped over, one
// process each: against a file striped over all four servers, a file
// placed on one server saves both barriers the same number of events.
TEST(FsEdge, CloseAndFsyncDrainOnlyTheFilesServers) {
  Rig rig(hw::MachineConfig::paragon_small(4, 4));
  const FileId wide = rig.fs.create_placed("wide", false, {0, 1, 2, 3});
  const FileId narrow = rig.fs.create_placed("narrow", false, {2});
  const hw::NodeId c = rig.machine.compute_node(0);
  auto events_of = [&rig](simkit::Task<void> op) {
    const std::uint64_t before = rig.eng.events_processed();
    rig.eng.spawn(std::move(op));
    rig.eng.run();
    return rig.eng.events_processed() - before;
  };
  const std::uint64_t fsync_wide = events_of(rig.fs.fsync(c, wide));
  const std::uint64_t fsync_narrow = events_of(rig.fs.fsync(c, narrow));
  const std::uint64_t close_wide = events_of(rig.fs.close(c, wide));
  const std::uint64_t close_narrow = events_of(rig.fs.close(c, narrow));
  EXPECT_GT(fsync_wide, fsync_narrow);
  EXPECT_GT(close_wide, close_narrow);
  EXPECT_EQ(close_wide - close_narrow, fsync_wide - fsync_narrow);
}

TEST(FsEdge, ReadOfNeverWrittenBackedFileIsZeros) {
  Rig rig;
  const FileId f = rig.fs.create("holes", /*backed=*/true);
  std::vector<std::byte> out(4096, std::byte{0xFF});
  rig.eng.spawn([](Rig& r, FileId f, std::span<std::byte> o)
                    -> simkit::Task<void> {
    co_await r.fs.pread(r.machine.compute_node(0), f, 12345, o.size(), o);
  }(rig, f, out));
  rig.eng.run();
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(FsEdge, InterleavedFilesDoNotCorruptEachOther) {
  Rig rig;
  const FileId a = rig.fs.create("ia", true);
  const FileId b = rig.fs.create("ib", true);
  rig.eng.spawn([](Rig& r, FileId a, FileId b) -> simkit::Task<void> {
    std::vector<std::byte> da(8192, std::byte{0xAA});
    std::vector<std::byte> db(8192, std::byte{0xBB});
    const auto n = r.machine.compute_node(0);
    for (int i = 0; i < 4; ++i) {
      co_await r.fs.pwrite(n, a, static_cast<std::uint64_t>(i) * 8192, 8192,
                           da);
      co_await r.fs.pwrite(n, b, static_cast<std::uint64_t>(i) * 8192, 8192,
                           db);
    }
  }(rig, a, b));
  rig.eng.run();
  std::vector<std::byte> ga(32768), gb(32768);
  rig.fs.peek(a, 0, ga);
  rig.fs.peek(b, 0, gb);
  for (auto x : ga) ASSERT_EQ(x, std::byte{0xAA});
  for (auto x : gb) ASSERT_EQ(x, std::byte{0xBB});
}

TEST(FsEdge, OpenCloseRoundTripCostsAreBounded) {
  Rig rig;
  const FileId f = rig.fs.create("oc");
  double t = -1;
  rig.eng.spawn([](Rig& r, FileId f, double& out) -> simkit::Task<void> {
    FileHandle h = co_await r.fs.open(r.machine.compute_node(0), f);
    co_await h.close();
    out = r.eng.now();
  }(rig, f, t));
  rig.eng.run();
  EXPECT_GT(t, 0.0005);  // syscalls + round trips are not free
  EXPECT_LT(t, 0.05);    // but they are metadata-cheap
}

TEST(FsEdge, ManyFilesSpreadAcrossDisksOfANode) {
  // On the SP-2 (4 disks per node), four files map to four different
  // local disks — concurrent independent streams don't fight one arm.
  Rig one_file(hw::MachineConfig::sp2(4));
  Rig four_files(hw::MachineConfig::sp2(4));
  {
    const FileId f = one_file.fs.create("f0");
    for (int c = 0; c < 4; ++c) {
      one_file.eng.spawn([](Rig& r, FileId f, int c) -> simkit::Task<void> {
        co_await r.fs.pread(r.machine.compute_node(
                                static_cast<std::size_t>(c)),
                            f, static_cast<std::uint64_t>(c) << 24,
                            2 << 20);
      }(one_file, f, c));
    }
    one_file.eng.run();
  }
  {
    std::vector<FileId> fs;
    for (int i = 0; i < 4; ++i) {
      // Left operand spelled as std::string: GCC 12's -Wrestrict misfires
      // on the `const char* + string&&` overload at -O3.
      fs.push_back(four_files.fs.create(std::string("f") + std::to_string(i)));
    }
    for (int c = 0; c < 4; ++c) {
      four_files.eng.spawn([](Rig& r, FileId f, int c) -> simkit::Task<void> {
        co_await r.fs.pread(r.machine.compute_node(
                                static_cast<std::size_t>(c)),
                            f, 0, 2 << 20);
      }(four_files, fs[static_cast<std::size_t>(c)], c));
    }
    four_files.eng.run();
  }
  EXPECT_LT(four_files.eng.now(), one_file.eng.now());
}

}  // namespace
}  // namespace pfs
