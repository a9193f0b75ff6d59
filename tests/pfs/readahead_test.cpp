// Server read-ahead at unit scale: a sequential reader's demand read
// that arrives while its block's prefetch is still on the disk queue
// joins that prefetch (the late hit) instead of reading the block again.
#include <gtest/gtest.h>

#include <cstdint>

#include "hw/machine.hpp"
#include "iosrv/cache_policy.hpp"
#include "pfs/fs.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"

namespace pfs {
namespace {

constexpr std::uint64_t kBlock = 64 * 1024;  // paragon stripe unit

struct Seen {
  bool resident_at_issue = true;
  bool resident_at_return = false;
};

// Reads blocks 0-2 (three misses: the third arms the run and prefetches
// blocks 3 and 4), then block 3 at once, noting whether block 3 was
// resident when the read was issued and when it returned.
simkit::Task<void> read_sequentially(StripedFs& fs, hw::NodeId client,
                                     FileId f, Seen& seen) {
  for (std::uint64_t b = 0; b < 3; ++b) {
    co_await fs.pread(client, f, b * kBlock, kBlock);
  }
  const iosrv::BlockKey third{f, 3};
  seen.resident_at_issue = fs.io_node(0).cache().contains(third);
  co_await fs.pread(client, f, 3 * kBlock, kBlock);
  seen.resident_at_return = fs.io_node(0).cache().contains(third);
}

TEST(ReadAhead, LateDemandReadJoinsItsQueuedPrefetch) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(1, 1);
  cfg.io.server.readahead.enabled = true;
  hw::Machine machine(eng, std::move(cfg));
  StripedFs fs(machine);
  const FileId f = fs.create("sequential");
  Seen seen;
  eng.spawn(read_sequentially(fs, machine.compute_node(0), f, seen));
  eng.run();

  const IoNode& node = fs.io_node(0);
  // The demand read found block 3's prefetch queued and joined it.
  EXPECT_FALSE(seen.resident_at_issue);
  EXPECT_EQ(node.readahead_late_hits(), 1u);
  EXPECT_EQ(node.readahead_hits(), 0u);
  // Block 3 came off the disk once: three demand misses plus one read
  // per prefetch (3 and 4 from block 2's access, 5 from block 3's).
  EXPECT_EQ(node.readahead_issued(), 3u);
  EXPECT_EQ(node.disk_reads(), 3u + node.readahead_issued());
  // The joined read completed only once the prefetch had landed.
  EXPECT_TRUE(seen.resident_at_return);
}

}  // namespace
}  // namespace pfs
