// Tests for the Pablo-style tracer.
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace trace {
namespace {

using pfs::OpKind;

TEST(IoTracer, AggregatesPerKind) {
  IoTracer t;
  t.record(OpKind::kRead, 0.0, 1.5, 1000);
  t.record(OpKind::kRead, 2.0, 0.5, 500);
  t.record(OpKind::kWrite, 3.0, 0.25, 200);
  EXPECT_EQ(t.summary(OpKind::kRead).count(), 2u);
  EXPECT_DOUBLE_EQ(t.summary(OpKind::kRead).time(), 2.0);
  EXPECT_EQ(t.summary(OpKind::kRead).bytes, 1500u);
  EXPECT_EQ(t.summary(OpKind::kWrite).count(), 1u);
  EXPECT_EQ(t.total_ops(), 3u);
  EXPECT_DOUBLE_EQ(t.total_io_time(), 2.25);
  EXPECT_EQ(t.total_bytes(), 1700u);
}

TEST(IoTracer, LatencyStatistics) {
  IoTracer t;
  t.record(OpKind::kRead, 0.0, 1.0, 0);
  t.record(OpKind::kRead, 0.0, 3.0, 0);
  EXPECT_DOUBLE_EQ(t.summary(OpKind::kRead).latency.mean(), 2.0);
  EXPECT_DOUBLE_EQ(t.summary(OpKind::kRead).latency.max(), 3.0);
}

TEST(IoTracer, EventRetentionOptional) {
  IoTracer off(false), on(true);
  off.record(OpKind::kSeek, 1.0, 0.1, 0);
  on.record(OpKind::kSeek, 1.0, 0.1, 0);
  EXPECT_TRUE(off.events().empty());
  ASSERT_EQ(on.events().size(), 1u);
  EXPECT_EQ(on.events()[0].kind, OpKind::kSeek);
}

TEST(IoTracer, MergeCombinesRanks) {
  IoTracer a, b;
  a.record(OpKind::kRead, 0.0, 1.0, 100);
  b.record(OpKind::kRead, 0.0, 2.0, 200);
  b.record(OpKind::kOpen, 0.0, 0.1, 0);
  a.merge(b);
  EXPECT_EQ(a.summary(OpKind::kRead).count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary(OpKind::kRead).time(), 3.0);
  EXPECT_EQ(a.summary(OpKind::kOpen).count(), 1u);
}

TEST(IoTracer, ClearResets) {
  IoTracer t(true);
  t.record(OpKind::kRead, 0.0, 1.0, 10);
  t.clear();
  EXPECT_EQ(t.total_ops(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(IoTracer, PlugsIntoFileHandle) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("traced");
  IoTracer tracer;
  eng.spawn([](hw::Machine& m, pfs::StripedFs& fs, pfs::FileId f,
               IoTracer& tr) -> simkit::Task<void> {
    pfs::FileHandle h = co_await fs.open(m.compute_node(0), f, &tr);
    co_await h.write(128 * 1024);
    co_await h.seek(0);
    co_await h.read(64 * 1024);
    co_await h.fsync();
    co_await h.close();
  }(machine, fs, f, tracer));
  eng.run();
  EXPECT_EQ(tracer.summary(OpKind::kOpen).count(), 1u);
  EXPECT_EQ(tracer.summary(OpKind::kWrite).count(), 1u);
  EXPECT_EQ(tracer.summary(OpKind::kWrite).bytes, 128u * 1024u);
  EXPECT_EQ(tracer.summary(OpKind::kSeek).count(), 1u);
  EXPECT_EQ(tracer.summary(OpKind::kRead).count(), 1u);
  EXPECT_EQ(tracer.summary(OpKind::kFlush).count(), 1u);
  EXPECT_EQ(tracer.summary(OpKind::kClose).count(), 1u);
  EXPECT_GT(tracer.total_io_time(), 0.0);
  EXPECT_LE(tracer.total_io_time(), eng.now() + 1e-12);
}

}  // namespace
}  // namespace trace
