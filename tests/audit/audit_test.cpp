// Auditor ledger semantics: version tracking across ack/durable/lost
// edges, the three violation classes, and the negative test proving an
// injected lost update cannot slip past the cross-check.
#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

namespace {

TEST(AuditLedger, DurableAckThenReadIsClean) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 7, 4096, /*durable_at_ack=*/true);
  led.note_read(1, 0, 7);
  EXPECT_EQ(led.totals().writes_acked, 1u);
  EXPECT_EQ(led.totals().reads_checked, 1u);
  EXPECT_EQ(led.violations(), 0u);
}

TEST(AuditLedger, BufferedAckDrainedThenReadIsClean) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 7, 4096, /*durable_at_ack=*/false);
  led.note_durable(1, 0, 7);
  led.note_read(1, 0, 7);
  EXPECT_EQ(led.violations(), 0u);
}

// The negative test the satellite asks for: a server that acks a write,
// never drains it, and loses it in a crash IS caught, and a later read
// of that block is flagged stale.
TEST(AuditLedger, InjectedLostUpdateIsCaught) {
  audit::Ledger led;
  led.note_write_acked(3, 1, 12, 65536, /*durable_at_ack=*/false);
  led.note_lost(3, 1, 12, 65536);
  EXPECT_EQ(led.totals().lost_updates, 1u);
  EXPECT_EQ(led.totals().lost_bytes, 65536u);
  led.note_read(3, 1, 12);
  EXPECT_EQ(led.totals().stale_reads, 1u);
  EXPECT_EQ(led.violations(), 2u);
}

// A server claiming loss on a block the ledger saw durable (or never
// acked) is an accounting mismatch, not a violation: the independent
// cross-check must not parrot the server's own numbers.
TEST(AuditLedger, LossClaimsOnDurableOrUnknownBlocksAreIgnored) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 5, 4096, /*durable_at_ack=*/true);
  led.note_lost(1, 0, 5, 4096);   // durable at ack: a plain crash can't
  led.note_lost(9, 0, 99, 4096);  // never acked at all
  EXPECT_EQ(led.violations(), 0u);
  EXPECT_EQ(led.totals().lost_updates, 0u);
}

TEST(AuditLedger, FreshWriteSupersedesLostVersion) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 5, 4096, false);
  led.note_lost(1, 0, 5, 4096);
  // The client rewrites the block after recovery: reading it now
  // observes the fresh version, not the lost one.
  led.note_write_acked(1, 0, 5, 4096, false);
  led.note_durable(1, 0, 5);
  led.note_read(1, 0, 5);
  EXPECT_EQ(led.totals().lost_updates, 1u);
  EXPECT_EQ(led.totals().stale_reads, 0u);
}

// A scrub destroys every acked block of the scrubbed server, durable or
// buffered, in every file, counting each once; other servers' blocks
// and never-written holes are left alone.
TEST(AuditLedger, ScrubDestroysDurableCopies) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 1, 4096, /*durable_at_ack=*/true);
  led.note_write_acked(1, 1, 2, 4096, /*durable_at_ack=*/true);
  led.note_write_acked(2, 0, 0, 4096, /*durable_at_ack=*/true);
  led.note_write_acked(2, 0, 0, 4096, /*durable_at_ack=*/true);  // rewrite
  led.note_write_acked(5, 0, 3, 4096, /*durable_at_ack=*/false);
  led.note_write_acked(5, 1, 3, 4096, /*durable_at_ack=*/false);
  led.note_scrubbed(0);
  EXPECT_EQ(led.totals().scrub_destroyed, 3u);  // server 0's three blocks
  led.note_scrubbed(0);  // nothing acked is left on server 0 to destroy
  EXPECT_EQ(led.totals().scrub_destroyed, 3u);
  led.note_read(1, 0, 1);
  led.note_read(2, 0, 0);
  led.note_read(5, 0, 3);
  led.note_read(5, 0, 2);  // a hole in the same row
  led.note_read(1, 1, 2);
  led.note_read(5, 1, 3);
  EXPECT_EQ(led.totals().stale_reads, 3u);
  // Server 1's buffered block is still pending: its own loss counts.
  led.note_lost(5, 1, 3, 4096);
  EXPECT_EQ(led.totals().lost_updates, 1u);
}

// Notes on a block that was never written — a hole inside a row, past a
// row's end, or on a file or server the ledger has no row for — flag
// nothing and leave the written block's state alone.
TEST(AuditLedger, NotesOnUnwrittenBlocksFlagNothing) {
  audit::Ledger led;
  led.note_write_acked(1, 0, 4, 4096, /*durable_at_ack=*/false);
  struct Where {
    std::uint64_t file;
    std::size_t server;
    std::uint64_t block;
  };
  for (const Where w : {Where{1, 0, 2}, Where{1, 0, 5}, Where{1, 0, 100000},
                        Where{1, 3, 4}, Where{2, 0, 4}, Where{1000, 0, 0}}) {
    led.note_durable(w.file, w.server, w.block);
    led.note_lost(w.file, w.server, w.block, 4096);
    led.note_read(w.file, w.server, w.block);
  }
  EXPECT_EQ(led.violations(), 0u);
  EXPECT_EQ(led.totals().reads_checked, 6u);
  led.note_scrubbed(7);  // a server that never stored anything
  EXPECT_EQ(led.totals().scrub_destroyed, 0u);
  // The written block is still pending, so its loss is still caught.
  led.note_lost(1, 0, 4, 4096);
  EXPECT_EQ(led.totals().lost_updates, 1u);
}

TEST(AuditLedger, WriteFarPastARowsEnd) {
  audit::Ledger led;
  constexpr std::uint64_t kFar = 250000;
  led.note_write_acked(1, 0, 0, 4096, /*durable_at_ack=*/true);
  led.note_write_acked(1, 0, kFar, 4096, /*durable_at_ack=*/false);
  led.note_lost(1, 0, kFar, 4096);
  EXPECT_EQ(led.totals().lost_updates, 1u);
  led.note_read(1, 0, kFar);
  led.note_read(1, 0, kFar / 2);  // a hole between the two writes
  led.note_read(1, 0, 0);
  EXPECT_EQ(led.totals().stale_reads, 1u);
  led.note_scrubbed(0);  // only block 0 is acked and not already lost
  EXPECT_EQ(led.totals().scrub_destroyed, 1u);
}

// One client pwrite split over two servers: one piece drains, the
// other dies with its node — a torn write, flagged exactly once.
TEST(AuditLedger, SplitWriteWithMixedFateIsTorn) {
  audit::Ledger led;
  const std::uint64_t g = led.begin_group();
  led.note_write_acked(1, 0, 10, 4096, false, g);
  led.note_write_acked(1, 1, 11, 4096, false, g);
  led.note_durable(1, 0, 10);
  EXPECT_EQ(led.totals().torn_writes, 0u);  // fate not sealed yet
  led.note_lost(1, 1, 11, 4096);
  EXPECT_EQ(led.totals().torn_writes, 1u);
}

TEST(AuditLedger, FullyDurableOrFullyLostGroupsAreNotTorn) {
  audit::Ledger led;
  const std::uint64_t g1 = led.begin_group();
  led.note_write_acked(1, 0, 1, 4096, false, g1);
  led.note_write_acked(1, 1, 2, 4096, false, g1);
  led.note_durable(1, 0, 1);
  led.note_durable(1, 1, 2);
  const std::uint64_t g2 = led.begin_group();
  led.note_write_acked(2, 0, 1, 4096, false, g2);
  led.note_write_acked(2, 1, 2, 4096, false, g2);
  led.note_lost(2, 0, 1, 4096);
  led.note_lost(2, 1, 2, 4096);
  EXPECT_EQ(led.totals().torn_writes, 0u);
  EXPECT_EQ(led.totals().lost_updates, 2u);
}

TEST(AuditScope, InstallsAndRestoresNested) {
  EXPECT_EQ(audit::current(), nullptr);
  audit::Ledger outer;
  {
    audit::Scope a(outer);
    EXPECT_EQ(audit::current(), &outer);
    audit::Ledger inner;
    {
      audit::Scope b(inner);
      EXPECT_EQ(audit::current(), &inner);
    }
    EXPECT_EQ(audit::current(), &outer);
  }
  EXPECT_EQ(audit::current(), nullptr);
}

TEST(AuditTotals, MergeSumsEveryField) {
  audit::Totals a, b;
  a.writes_acked = 1;
  a.lost_updates = 2;
  a.lost_bytes = 3;
  b.reads_checked = 4;
  b.stale_reads = 5;
  b.torn_writes = 6;
  b.scrub_destroyed = 7;
  a.merge(b);
  EXPECT_EQ(a.writes_acked, 1u);
  EXPECT_EQ(a.reads_checked, 4u);
  EXPECT_EQ(a.lost_updates, 2u);
  EXPECT_EQ(a.lost_bytes, 3u);
  EXPECT_EQ(a.stale_reads, 5u);
  EXPECT_EQ(a.torn_writes, 6u);
  EXPECT_EQ(a.scrub_destroyed, 7u);
  EXPECT_EQ(a.violations(), 2u + 5u + 6u);
}

}  // namespace
