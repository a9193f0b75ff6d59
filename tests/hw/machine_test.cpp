// Tests for Machine node numbering, presets, compute timing.
#include "hw/machine.hpp"

#include <gtest/gtest.h>

#include "simkit/engine.hpp"

namespace hw {
namespace {

TEST(Machine, NodeNumbering) {
  simkit::Engine eng;
  Machine m(eng, MachineConfig::paragon_small(8, 2));
  EXPECT_EQ(m.compute_node(0), 0u);
  EXPECT_EQ(m.compute_node(7), 7u);
  EXPECT_EQ(m.io_node(0), 8u);
  EXPECT_EQ(m.io_node(1), 9u);
  EXPECT_FALSE(m.is_io_node(7));
  EXPECT_TRUE(m.is_io_node(8));
  EXPECT_TRUE(m.is_io_node(9));
}

TEST(Machine, NetworkCoversAllNodes) {
  simkit::Engine eng;
  Machine m(eng, MachineConfig::paragon_large(64, 16));
  EXPECT_GE(m.network().node_count(), 80u);
}

TEST(Machine, ComputeTimeMatchesMflops) {
  simkit::Engine eng;
  auto cfg = MachineConfig::paragon_small(2, 2);
  cfg.cpu_mflops = 25.0;
  Machine m(eng, cfg);
  double t = -1.0;
  eng.spawn([](simkit::Engine& e, Machine& m, double& out)
                -> simkit::Task<void> {
    co_await m.compute(50e6);  // 50 MFLOP at 25 MFLOPS = 2 s
    out = e.now();
  }(eng, m, t));
  eng.run();
  EXPECT_NEAR(t, 2.0, 1e-9);
  EXPECT_NEAR(m.compute_time(50e6), 2.0, 1e-12);
}

TEST(Machine, MemCopyTimeMatchesRate) {
  simkit::Engine eng;
  auto cfg = MachineConfig::paragon_small(2, 2);
  cfg.mem_copy_mb_per_s = 30.0;
  Machine m(eng, cfg);
  double t = -1.0;
  eng.spawn([](simkit::Engine& e, Machine& m, double& out)
                -> simkit::Task<void> {
    co_await m.mem_copy(30'000'000);
    out = e.now();
  }(eng, m, t));
  eng.run();
  EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(MachineConfig, PresetsMatchPaperPlatforms) {
  const auto ps = MachineConfig::paragon_small(56, 4);
  EXPECT_EQ(ps.io.stripe_unit_bytes, 64u * 1024u);
  EXPECT_EQ(ps.topology, TopologyKind::kMesh2D);

  const auto sp = MachineConfig::sp2(64);
  EXPECT_EQ(sp.io_nodes, 4u);
  EXPECT_EQ(sp.io.stripe_unit_bytes, 32u * 1024u);
  EXPECT_EQ(sp.io.disks_per_io_node, 4u);
  EXPECT_EQ(sp.topology, TopologyKind::kMultistageSwitch);
}

TEST(MachineConfig, ParagonWriteBehindSp2Not) {
  // Thakur et al. (1996): Paragon faster on writes, SP-2 faster on reads.
  EXPECT_EQ(MachineConfig::paragon_large(16, 12).io.server.durability.policy,
            iosrv::DurabilityPolicy::kWriteBehind);
  EXPECT_EQ(MachineConfig::sp2(16).io.server.durability.policy,
            iosrv::DurabilityPolicy::kWriteThrough);
}

TEST(Machine, DefaultFailureDomainsAreSingletons) {
  simkit::Engine eng;
  Machine m(eng, MachineConfig::paragon_small(8, 4));
  EXPECT_EQ(m.io_domain_fan_in(), 1u);
  EXPECT_EQ(m.io_domain_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(m.io_domain_of(i), i);
  EXPECT_EQ(m.io_domain_members(2),
            (std::vector<std::uint32_t>{2}));
}

TEST(Machine, SwitchFanInGroupsIoNodesIntoDomains) {
  MachineConfig cfg = MachineConfig::paragon_small(8, 6);
  cfg.io_nodes_per_switch = 4;  // 6 nodes behind 4-port switches: 4 + 2
  simkit::Engine eng;
  Machine m(eng, cfg);
  EXPECT_EQ(m.io_domain_count(), 2u);
  EXPECT_EQ(m.io_domain_of(0), 0u);
  EXPECT_EQ(m.io_domain_of(3), 0u);
  EXPECT_EQ(m.io_domain_of(4), 1u);
  EXPECT_EQ(m.io_domain_members(0),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(m.io_domain_members(1), (std::vector<std::uint32_t>{4, 5}));

  cfg.io_nodes_per_switch = 6;  // fan-in equal to the partition: one domain
  Machine wide(eng, cfg);
  EXPECT_EQ(wide.io_domain_count(), 1u);
  EXPECT_EQ(wide.io_domain_of(5), 0u);

  // Fan-in above the partition used to silently clamp; it is now a typed
  // configuration error (see MachineConfig::validate).
  cfg.io_nodes_per_switch = 16;
  EXPECT_THROW(Machine(eng, cfg), ConfigError);
}

TEST(MachineConfig, ValidateRejectsImpossibleShapes) {
  MachineConfig ok = MachineConfig::paragon_small(8, 2);
  EXPECT_NO_THROW(ok.validate());

  MachineConfig no_io = ok;
  no_io.io_nodes = 0;
  EXPECT_THROW(no_io.validate(), ConfigError);

  MachineConfig no_compute = ok;
  no_compute.compute_nodes = 0;
  EXPECT_THROW(no_compute.validate(), ConfigError);

  MachineConfig wide_switch = ok;
  wide_switch.io_nodes_per_switch = 3;  // > io_nodes = 2
  EXPECT_THROW(wide_switch.validate(), ConfigError);

  // Boundary cases that must PASS: fan-in equal to the partition, and
  // the 0 sentinel (singleton domains).
  MachineConfig edge = ok;
  edge.io_nodes_per_switch = 2;
  EXPECT_NO_THROW(edge.validate());
  edge.io_nodes_per_switch = 0;
  EXPECT_NO_THROW(edge.validate());
}

TEST(MachineConfig, CrashSemanticsNeedPooledWriteBehind) {
  MachineConfig cfg = MachineConfig::paragon_small(8, 2);
  cfg.io.server.durability.crash_semantics = true;
  // Every buffering policy on the legacy flusher is rejected...
  for (const iosrv::DurabilityPolicy p :
       {iosrv::DurabilityPolicy::kWriteBehind,
        iosrv::DurabilityPolicy::kOrderedDrain,
        iosrv::DurabilityPolicy::kJournaled}) {
    cfg.io.server.durability.policy = p;
    cfg.io.server.writeback.mode = iosrv::WritebackMode::kLegacy;
    EXPECT_THROW(cfg.validate(), ConfigError) << iosrv::to_string(p);
    cfg.io.server.writeback.mode = iosrv::WritebackMode::kPool;
    EXPECT_NO_THROW(cfg.validate()) << iosrv::to_string(p);
  }

  // ...but write_through keeps no write in server memory: any mode works,
  // so the SP-2 preset takes crash semantics as it is.
  cfg.io.server.durability.policy = iosrv::DurabilityPolicy::kWriteThrough;
  cfg.io.server.writeback.mode = iosrv::WritebackMode::kLegacy;
  EXPECT_NO_THROW(cfg.validate());
  MachineConfig sp2 = MachineConfig::sp2(8);
  sp2.io.server.durability.crash_semantics = true;
  EXPECT_NO_THROW(sp2.validate());
}

TEST(Machine, ConstructorValidates) {
  simkit::Engine eng;
  MachineConfig bad = MachineConfig::paragon_small(8, 2);
  bad.io_nodes = 0;
  EXPECT_THROW(Machine(eng, bad), ConfigError);
}

TEST(MachineConfig, ParagonXlEnvelope) {
  const auto m = MachineConfig::paragon_xl(2048, 64);
  EXPECT_EQ(m.compute_nodes, 2048u);
  EXPECT_EQ(m.io_nodes, 64u);
  EXPECT_EQ(m.topology, TopologyKind::kMultistageSwitch);
  EXPECT_EQ(m.io_nodes_per_switch, 8u);
  EXPECT_NO_THROW(m.validate());

  // Switch-scoped domains: 64 servers behind 8-port switches = 8 racks.
  simkit::Engine eng;
  Machine mach(eng, m);
  EXPECT_EQ(mach.io_domain_count(), 8u);
  EXPECT_EQ(mach.io_domain_of(7), 0u);
  EXPECT_EQ(mach.io_domain_of(8), 1u);

  // The validated envelope: outside 1024-4096 x 64-128 is a typed error.
  EXPECT_THROW(MachineConfig::paragon_xl(512, 64), ConfigError);
  EXPECT_THROW(MachineConfig::paragon_xl(8192, 64), ConfigError);
  EXPECT_THROW(MachineConfig::paragon_xl(1024, 32), ConfigError);
  EXPECT_THROW(MachineConfig::paragon_xl(1024, 256), ConfigError);
  EXPECT_NO_THROW(MachineConfig::paragon_xl(1024, 64));
  EXPECT_NO_THROW(MachineConfig::paragon_xl(4096, 128));
}

}  // namespace
}  // namespace hw
