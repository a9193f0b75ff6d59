// Tests for the latency quantile view.
#include <gtest/gtest.h>

#include "trace/tracer.hpp"

namespace trace {
namespace {

TEST(LatencyQuantiles, BucketsSeparateFastAndSlowOps) {
  IoTracer t;
  // 99 fast reads (1 ms) and 1 very slow one (200 ms).
  for (int i = 0; i < 99; ++i) t.record(pfs::OpKind::kRead, 0, 1e-3, 0);
  t.record(pfs::OpKind::kRead, 0, 0.2, 0);
  const auto& s = t.summary(pfs::OpKind::kRead);
  EXPECT_LT(s.latency.percentile(0.50), 5e-3);
  EXPECT_GT(s.latency.percentile(0.995), 0.1);
  EXPECT_DOUBLE_EQ(s.latency.max(), 0.2);
}

TEST(LatencyQuantiles, MergePreservesDistribution) {
  IoTracer a, b;
  for (int i = 0; i < 50; ++i) a.record(pfs::OpKind::kWrite, 0, 1e-3, 0);
  for (int i = 0; i < 50; ++i) b.record(pfs::OpKind::kWrite, 0, 64e-3, 0);
  a.merge(b);
  const auto& s = a.summary(pfs::OpKind::kWrite);
  EXPECT_EQ(s.latency.count(), 100u);
  // Median sits at the boundary between the two populations.
  EXPECT_LE(s.latency.percentile(0.25), 4e-3);
  EXPECT_GE(s.latency.percentile(0.75), 32e-3);
}

}  // namespace
}  // namespace trace
