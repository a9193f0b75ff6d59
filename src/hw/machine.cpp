#include "hw/machine.hpp"

#include <memory>

namespace hw {
namespace {

std::unique_ptr<Topology> make_topology(const MachineConfig& cfg) {
  const std::size_t n = cfg.total_nodes();
  switch (cfg.topology) {
    case TopologyKind::kMesh2D: {
      const std::uint32_t cols = cfg.mesh_cols;
      const auto rows = static_cast<std::uint32_t>((n + cols - 1) / cols);
      return std::make_unique<MeshTopology>(cols, rows);
    }
    case TopologyKind::kMultistageSwitch:
      return std::make_unique<SwitchTopology>(n);
  }
  return nullptr;
}

}  // namespace

Machine::Machine(simkit::Engine& eng, MachineConfig cfg)
    : eng_(eng), cfg_(std::move(cfg)) {
  cfg_.validate();
  net_ = std::make_unique<Network>(eng_, make_topology(cfg_), cfg_.net);
}

void MachineConfig::validate() const {
  if (compute_nodes == 0) {
    throw ConfigError("MachineConfig '" + name +
                      "': compute_nodes must be > 0");
  }
  if (io_nodes == 0) {
    throw ConfigError("MachineConfig '" + name + "': io_nodes must be > 0");
  }
  if (io_nodes_per_switch > io_nodes) {
    throw ConfigError("MachineConfig '" + name +
                      "': io_nodes_per_switch exceeds io_nodes");
  }
  if (io.server.durability.crash_semantics &&
      io.server.durability.policy != iosrv::DurabilityPolicy::kWriteThrough &&
      io.server.writeback.mode != iosrv::WritebackMode::kPool) {
    throw ConfigError("MachineConfig '" + name +
                      "': crash_semantics with buffered writes needs "
                      "writeback.mode = pool");
  }
}

MachineConfig MachineConfig::paragon_small(std::size_t compute_nodes,
                                           std::size_t io_nodes) {
  MachineConfig m;
  m.name = "Paragon-56";
  m.compute_nodes = compute_nodes;
  m.io_nodes = io_nodes;
  // i860 XP: 75 MFLOPS peak; sustained application rates were ~1/3 of peak.
  m.cpu_mflops = 25.0;
  m.mem_copy_mb_per_s = 30.0;
  m.topology = TopologyKind::kMesh2D;
  m.mesh_cols = 4;  // the paper's 14x4 mesh
  m.net.link_mb_per_s = 70.0;  // 175 MB/s raw links, ~70 effective under NX
  m.net.per_hop_latency_us = 0.6;
  m.net.sw_overhead_us = 55.0;
  m.disk = DiskParams::paragon_raid3();
  m.io.stripe_unit_bytes = 64 * 1024;
  m.io.disks_per_io_node = 1;
  m.io.server_overhead_ms = 0.6;  // PFS daemon cost per request
  m.io.client_syscall_ms = 0.5;
  // I/O nodes carried 16 MB, mostly consumed by OSF/1 and the daemons.
  m.io.cache_bytes_per_io_node = 2ULL << 20;
  // Paragon was observed faster on writes: the default write_behind
  // policy acks from the I/O-node cache.
  return m;
}

MachineConfig MachineConfig::paragon_large(std::size_t compute_nodes,
                                           std::size_t io_nodes) {
  MachineConfig m = paragon_small(compute_nodes, io_nodes);
  m.name = "Paragon-512";
  m.mesh_cols = 16;
  return m;
}

MachineConfig MachineConfig::sp2(std::size_t compute_nodes) {
  MachineConfig m;
  m.name = "SP2-80";
  m.compute_nodes = compute_nodes;
  m.io_nodes = 4;  // four of five PIOFS server nodes usable for user files
  // RS/6000 Model 390 (POWER2 66 MHz): strong FP, ~50 MFLOPS sustained.
  m.cpu_mflops = 50.0;
  m.mem_copy_mb_per_s = 80.0;
  m.topology = TopologyKind::kMultistageSwitch;
  m.net.link_mb_per_s = 35.0;  // TB2 switch, ~35 MB/s effective under MPL
  m.net.per_hop_latency_us = 12.0;
  m.net.sw_overhead_us = 40.0;
  m.disk = DiskParams::sp2_ssa_9gb();
  m.io.stripe_unit_bytes = 32 * 1024;  // PIOFS BSU
  m.io.disks_per_io_node = 4;          // 4 x 9 GB SSA per server
  m.io.server_overhead_ms = 0.7;
  m.io.client_syscall_ms = 0.3;
  m.io.cache_bytes_per_io_node = 16ULL << 20;
  // SP-2 was observed faster on reads: every write waits for its disk.
  m.io.server.durability.policy = iosrv::DurabilityPolicy::kWriteThrough;
  return m;
}

MachineConfig MachineConfig::paragon_xl(std::size_t compute_nodes,
                                        std::size_t io_nodes) {
  if (compute_nodes < 1024 || compute_nodes > 4096) {
    throw ConfigError("paragon_xl: compute_nodes must be in [1024, 4096]");
  }
  if (io_nodes < 64 || io_nodes > 128) {
    throw ConfigError("paragon_xl: io_nodes must be in [64, 128]");
  }
  MachineConfig m;
  m.name = "Paragon-XL";
  m.compute_nodes = compute_nodes;
  m.io_nodes = io_nodes;
  // Rack switches scope I/O failure domains: 8 servers share a switch,
  // so a rack event takes out a bounded slice of the I/O partition.
  m.io_nodes_per_switch = 8;
  // A generation past the i860: faster cores, but the interconnect
  // per-message software overhead shrinks far less than link bandwidth
  // grows — which is exactly why flat O(P^2) exchanges stop scaling.
  m.cpu_mflops = 200.0;
  m.mem_copy_mb_per_s = 400.0;
  m.topology = TopologyKind::kMultistageSwitch;
  m.net.link_mb_per_s = 300.0;
  m.net.per_hop_latency_us = 0.5;
  m.net.sw_overhead_us = 20.0;
  // Commodity drives of the same vintage: faster media, shorter seeks.
  m.disk.track_to_track_seek_ms = 0.8;
  m.disk.average_seek_ms = 5.0;
  m.disk.rpm = 7200.0;
  m.disk.transfer_mb_per_s = 40.0;
  m.disk.controller_overhead_ms = 0.2;
  m.disk.capacity_bytes = 64ULL << 30;
  m.io.stripe_unit_bytes = 64 * 1024;
  m.io.disks_per_io_node = 4;
  m.io.server_overhead_ms = 0.2;
  m.io.client_syscall_ms = 0.05;
  m.io.cache_bytes_per_io_node = 64ULL << 20;
  return m;
}

}  // namespace hw
