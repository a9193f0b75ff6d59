// Tests for the I/O summary, latency and utilization reports and table
// rendering.
#include "exp/report.hpp"

#include <gtest/gtest.h>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "simkit/engine.hpp"
#include "trace/tracer.hpp"

namespace expt {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  Rig() : machine(eng, hw::MachineConfig::paragon_small(4, 2)), fs(machine) {}
};

TEST(Report, CountsMatchAfterAWorkload) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("u");
  rig.eng.spawn([](Rig& r, pfs::FileId f) -> simkit::Task<void> {
    co_await r.fs.pread(r.machine.compute_node(0), f, 0, 1 << 20);
  }(rig, f));
  rig.eng.run();
  const auto u0 = io_node_utilization(rig.fs, 0, rig.eng.now());
  const auto u1 = io_node_utilization(rig.fs, 1, rig.eng.now());
  // 1 MB in 64 KB stripes round-robin over 2 nodes: 8 requests each.
  EXPECT_EQ(u0.requests, 8u);
  EXPECT_EQ(u1.requests, 8u);
  EXPECT_GT(u0.busy_fraction, 0.0);
  EXPECT_LE(u0.busy_fraction, 1.0);
}

TEST(Report, RendersAllNodesPlusAggregate) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("u");
  rig.eng.spawn([](Rig& r, pfs::FileId f) -> simkit::Task<void> {
    co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 256 * 1024);
  }(rig, f));
  rig.eng.run();
  const std::string rep = utilization_report(rig.fs, rig.eng.now());
  EXPECT_NE(rep.find("| 0 "), std::string::npos);
  EXPECT_NE(rep.find("| 1 "), std::string::npos);
  EXPECT_NE(rep.find("| all "), std::string::npos);
  EXPECT_NE(rep.find("busy"), std::string::npos);
}

TEST(IoSummaryTable, ContainsRowsAndPercentages) {
  trace::IoTracer t;
  t.record(pfs::OpKind::kOpen, 0.0, 2.0, 0);
  t.record(pfs::OpKind::kRead, 0.0, 60.0, 37ULL << 30);
  t.record(pfs::OpKind::kWrite, 0.0, 3.0, 2ULL << 30);
  const std::string s = io_summary_table(t, 130.0).str();
  EXPECT_NE(s.find("| Open "), std::string::npos);
  EXPECT_NE(s.find("| Read "), std::string::npos);
  EXPECT_NE(s.find("| All I/O "), std::string::npos);
  // Read is 60/65 of I/O time ≈ 92.31%.
  EXPECT_NE(s.find("92.31"), std::string::npos);
  // All I/O is 65/130 of exec = 50%.
  EXPECT_NE(s.find("50.00"), std::string::npos);
  // Seek never happened: no row.
  EXPECT_EQ(s.find("Seek"), std::string::npos);
  // Read volume in GB; Open moved no bytes, so its volume cell is blank.
  EXPECT_NE(s.find("| 39.73 "), std::string::npos);
  const std::string csv = io_summary_table(t, 130.0).csv();
  EXPECT_TRUE(csv.starts_with(
      "Oper,Oper Count,I/O Time (s),Vol (GB),% of I/O,% of exec\n"
      "Open,1,2.00,,3.08,1.54\n"))
      << csv;
}

TEST(LatencyTable, ListsActiveKindsOnlyWithQuantilesWithinMax) {
  trace::IoTracer t;
  t.record(pfs::OpKind::kRead, 0, 5e-3, 100);
  t.record(pfs::OpKind::kOpen, 0, 50e-3, 0);
  const std::string s = latency_table(t).str();
  EXPECT_NE(s.find("| Read "), std::string::npos);
  EXPECT_NE(s.find("| Open "), std::string::npos);
  EXPECT_EQ(s.find("Seek"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
  // One sample per kind: every column is that sample, since the bucket
  // edge is clamped into [min, max].
  EXPECT_NE(s.find("| 50.00   | 50.00   | 50.00   | 50.00  |"),
            std::string::npos)
      << s;
}

TEST(Table, CsvEscapesNothingButJoins) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x", "y"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\nx,y\n");
}

TEST(Table, StrAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"long-name-here", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| long-name-here | 1 |"), std::string::npos);
}

}  // namespace
}  // namespace expt
