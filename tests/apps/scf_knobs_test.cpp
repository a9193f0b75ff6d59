// Tests for SCF 1.1's tuple knobs: application memory (M) and stripe
// unit (Su) — the axes of Figure 1's configurations IV-VII.
#include <gtest/gtest.h>

#include "apps/scf.hpp"

namespace apps {
namespace {

ScfConfig base() {
  ScfConfig cfg;
  cfg.version = ScfVersion::kPassion;
  cfg.nprocs = 4;
  cfg.io_nodes = 12;
  cfg.n_basis = 108;
  cfg.iterations = 6;
  cfg.scale = 0.4;
  return cfg;
}

TEST(ScfKnobs, MoreApplicationMemoryMeansFewerBiggerCalls) {
  ScfConfig small = base();
  small.memory_kb = 64;
  ScfConfig big = base();
  big.memory_kb = 256;
  const RunResult rs = run_scf11(small);
  const RunResult rb = run_scf11(big);
  // Same volume, ~4x fewer reads.
  EXPECT_EQ(rs.trace.summary(pfs::OpKind::kRead).bytes,
            rb.trace.summary(pfs::OpKind::kRead).bytes);
  const double call_ratio =
      static_cast<double>(rs.trace.summary(pfs::OpKind::kRead).count()) /
      static_cast<double>(rb.trace.summary(pfs::OpKind::kRead).count());
  EXPECT_NEAR(call_ratio, 4.0, 0.3);
  // Fewer calls means less per-call overhead: faster.
  EXPECT_LT(rb.exec_time, rs.exec_time);
}

TEST(ScfKnobs, MemoryHelpsFortranInterfaceMore) {
  // The Fortran interface pays more per call, so the M knob buys more.
  auto gain = [&](ScfVersion v) {
    ScfConfig small = base();
    small.version = v;
    small.memory_kb = 64;
    ScfConfig big = small;
    big.memory_kb = 256;
    return run_scf11(small).exec_time / run_scf11(big).exec_time;
  };
  EXPECT_GT(gain(ScfVersion::kOriginal), gain(ScfVersion::kPassion));
}

TEST(ScfKnobs, StripeUnitIsSecondOrder) {
  ScfConfig su64 = base();
  su64.stripe_unit_kb = 64;
  ScfConfig su128 = base();
  su128.stripe_unit_kb = 128;
  const double a = run_scf11(su64).exec_time;
  const double b = run_scf11(su128).exec_time;
  EXPECT_LT(std::max(a, b) / std::min(a, b), 1.5);
}

TEST(ScfKnobs, ImbalanceStretchesExecution) {
  ScfConfig even = base();
  even.imbalance = 0.0;
  ScfConfig skewed = base();
  skewed.imbalance = 0.3;
  // The slowest rank finishes last; skew can only hurt.
  EXPECT_LE(run_scf11(even).exec_time, run_scf11(skewed).exec_time);
}

TEST(ScfKnobs, IterationsScaleReadVolumeLinearly) {
  ScfConfig k6 = base();
  ScfConfig k11 = base();
  k11.iterations = 11;
  const RunResult r6 = run_scf11(k6);
  const RunResult r11 = run_scf11(k11);
  const double ratio =
      static_cast<double>(r11.trace.summary(pfs::OpKind::kRead).bytes) /
      static_cast<double>(r6.trace.summary(pfs::OpKind::kRead).bytes);
  EXPECT_DOUBLE_EQ(ratio, 2.0);  // 10 read passes vs 5
}

}  // namespace
}  // namespace apps
