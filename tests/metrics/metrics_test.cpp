// Tests for the metrics subsystem: instrument semantics, histogram
// percentiles against a sorted-vector reference, cross-rank merge, export
// determinism, and agreement between registry counters and the Pablo-style
// trace on a real application run.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "apps/scf.hpp"
#include "metrics/export.hpp"

namespace metrics {
namespace {

TEST(Counter, AccumulatesAndMerges) {
  Counter a, b;
  a.inc();
  a.inc(41);
  b.inc(58);
  EXPECT_EQ(a.value(), 42u);
  a.merge(b);
  EXPECT_EQ(a.value(), 100u);
}

TEST(Gauge, TracksExtremesAndLast) {
  Gauge g;
  EXPECT_EQ(g.count(), 0u);
  EXPECT_EQ(g.min(), 0.0);
  g.set(3.0);
  g.set(-1.0);
  g.set(2.0);
  EXPECT_EQ(g.count(), 3u);
  EXPECT_EQ(g.last(), 2.0);
  EXPECT_EQ(g.min(), -1.0);
  EXPECT_EQ(g.max(), 3.0);

  Gauge h;
  h.set(10.0);
  g.merge(h);
  EXPECT_EQ(g.min(), -1.0);
  EXPECT_EQ(g.max(), 10.0);
  EXPECT_EQ(g.last(), 10.0);  // largest last, merge-order independent
  EXPECT_EQ(g.count(), 4u);
}

TEST(Histogram, ExactScalarsAndUnderflow) {
  Histogram h(1e-6);
  h.observe(1e-9);  // below unit: underflow bucket
  h.observe(0.5);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5 + 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);  // clamped to exact max
}

// Percentile estimates against the nearest-rank statistic of the sorted
// sample: four sub-buckets per octave bound the relative error at
// 2^(1/4) ~ 1.19, and the estimate never undershoots (it reports the
// bucket's upper edge, clamped to the exact extremes).
TEST(Histogram, PercentilesTrackSortedReference) {
  std::mt19937 rng(12345);
  // Log-uniform over ~7 decades: exercises many octaves.
  std::uniform_real_distribution<double> exp_dist(-6.0, 1.0);
  Histogram h(1e-6);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, exp_dist(rng));
    v.push_back(x);
    h.observe(x);
  }
  std::sort(v.begin(), v.end());
  for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(std::max<double>(
        std::ceil(q * static_cast<double>(v.size())), 1.0));
    const double ref = v[rank - 1];
    const double est = h.percentile(q);
    EXPECT_GE(est, ref * 0.999) << "q=" << q;
    EXPECT_LE(est, ref * 1.20) << "q=" << q;
  }
}

TEST(Histogram, MergeEqualsCombinedStream) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(1e-5, 1e-1);
  Histogram a(1e-6), b(1e-6), combined(1e-6);
  for (int i = 0; i < 500; ++i) {
    const double x = dist(rng);
    const double y = dist(rng);
    a.observe(x);
    b.observe(y);
    combined.observe(x);
    combined.observe(y);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_EQ(a.buckets(), combined.buckets());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), combined.percentile(q));
  }
}

TEST(Histogram, MergeRejectsMismatchedUnit) {
  Histogram a(1e-6), b(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Timeseries, ThinsToOneSamplePerBin) {
  Timeseries ts(/*interval=*/1.0);
  ts.record(0.1, 1.0);
  ts.record(0.5, 2.0);  // same bin: newest wins
  ts.record(0.9, 3.0);
  ts.record(1.5, 4.0);  // next bin
  ts.record(7.2, 5.0);  // bins may be skipped entirely
  ASSERT_EQ(ts.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(ts.samples()[0].value, 3.0);
  EXPECT_DOUBLE_EQ(ts.samples()[1].value, 4.0);
  EXPECT_DOUBLE_EQ(ts.samples()[2].value, 5.0);
  EXPECT_EQ(ts.dropped(), 0u);
}

TEST(Timeseries, CapsAndCountsDropped) {
  Timeseries ts(/*interval=*/0.0, /*max_samples=*/4);
  for (int i = 0; i < 10; ++i) {
    ts.record(static_cast<simkit::Time>(i), 1.0);
  }
  EXPECT_EQ(ts.samples().size(), 4u);
  EXPECT_EQ(ts.dropped(), 6u);
}

// The cross-rank reduction: per-rank registries merged into one must equal
// a single registry that saw every event.
TEST(Registry, MergeAcrossSimulatedRanks) {
  constexpr int kRanks = 4;
  Registry combined;
  std::vector<Registry> per_rank(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (int i = 0; i <= r; ++i) {
      per_rank[static_cast<std::size_t>(r)].counter("io.calls").inc();
      combined.counter("io.calls").inc();
      const double lat = 1e-3 * (r + 1) * (i + 1);
      per_rank[static_cast<std::size_t>(r)]
          .histogram("io.latency_s")
          .observe(lat);
      combined.histogram("io.latency_s").observe(lat);
    }
    per_rank[static_cast<std::size_t>(r)].gauge("rank.exec_s").set(r + 1.0);
    combined.gauge("rank.exec_s").set(r + 1.0);
  }
  Registry merged;
  for (const Registry& r : per_rank) merged.merge(r);
  EXPECT_EQ(merged.counter("io.calls").value(), 10u);
  EXPECT_EQ(to_json(merged), to_json(combined));
}

TEST(Scope, InstallsAndNests) {
  EXPECT_EQ(current(), nullptr);
  Registry outer;
  {
    Scope s(outer);
    EXPECT_EQ(current(), &outer);
    Registry inner;
    {
      Scope s2(inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(Export, JsonShape) {
  Registry reg;
  reg.counter("a.count").inc(3);
  reg.gauge("b.level").set(1.5);
  reg.histogram("c.lat").observe(0.25);
  reg.timeseries("d.depth").record(0.5, 2.0);
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("\"schema\": \"iosim.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat\""), std::string::npos);
}

apps::ScfConfig tiny_cfg(apps::ScfVersion v) {
  apps::ScfConfig cfg;
  cfg.version = v;
  cfg.nprocs = 2;
  cfg.io_nodes = 2;
  cfg.n_basis = 108;
  cfg.iterations = 3;
  cfg.scale = 0.05;
  return cfg;
}

// Determinism: the same seeded run twice produces byte-identical metrics
// JSON (the registry and exporters introduce no iteration-order or
// formatting nondeterminism).
TEST(Integration, SameRunSameJson) {
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    Registry reg;
    {
      Scope s(reg);
      (void)apps::run_scf11(tiny_cfg(apps::ScfVersion::kPassion));
    }
    json[i] = to_json(reg);
  }
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);
}

// Observation-only: enabling metrics must not change the simulation (no
// simulated time or RNG is consumed by recording).
TEST(Integration, MetricsDoNotPerturbSimulation) {
  const apps::RunResult plain =
      apps::run_scf11(tiny_cfg(apps::ScfVersion::kOriginal));
  Registry reg;
  apps::RunResult metered;
  {
    Scope s(reg);
    metered = apps::run_scf11(tiny_cfg(apps::ScfVersion::kOriginal));
  }
  EXPECT_EQ(plain.exec_time, metered.exec_time);
  EXPECT_EQ(plain.io_time, metered.io_time);
  EXPECT_EQ(plain.io_calls, metered.io_calls);
  EXPECT_FALSE(reg.empty());
}

// Acceptance criterion: per-call counts in the registry match the counts
// the Pablo-style tracer derives for the same run, for both SCF 1.1
// interfaces and for the prefetching version, whose Reads are recorded
// by the Prefetcher rather than by a handle call.
TEST(Integration, IfaceCountsMatchTrace) {
  struct Case {
    apps::ScfVersion version;
    const char* mode;
  };
  for (const Case c : {Case{apps::ScfVersion::kOriginal, "fortran"},
                       Case{apps::ScfVersion::kPassion, "passion"},
                       Case{apps::ScfVersion::kPassionPrefetch, "passion"}}) {
    Registry reg;
    apps::RunResult r;
    {
      Scope s(reg);
      r = apps::run_scf11(tiny_cfg(c.version));
    }
    const std::string prefix = std::string("pario.iface.") + c.mode + ".";
    for (const auto& [kind, op] :
         {std::pair{pfs::OpKind::kRead, "read"},
          std::pair{pfs::OpKind::kWrite, "write"},
          std::pair{pfs::OpKind::kSeek, "seek"},
          std::pair{pfs::OpKind::kOpen, "open"},
          std::pair{pfs::OpKind::kClose, "close"}}) {
      EXPECT_EQ(reg.counter(prefix + op + ".calls").value(),
                r.trace.summary(kind).count())
          << apps::to_string(c.version) << " " << op;
    }
    EXPECT_EQ(reg.counter("apps.scf11.io_calls").value(), r.io_calls)
        << apps::to_string(c.version);
  }
}

}  // namespace
}  // namespace metrics
