// hw/machine.hpp — a whole platform: compute partition, I/O partition,
// interconnect, and the calibration constants for the I/O subsystem.
//
// Node numbering: compute nodes are 0..C-1, I/O nodes are C..C+I-1.  This
// mirrors the Paragon's service-partition layout (I/O nodes at the edge of
// the mesh) and keeps rank->node mapping trivial for the runtime.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/disk.hpp"
#include "hw/network.hpp"
#include "iosrv/config.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace hw {

enum class TopologyKind : std::uint8_t { kMesh2D, kMultistageSwitch };

/// Typed error for impossible platform shapes.  Thrown by
/// MachineConfig::validate() (and therefore the Machine constructor)
/// instead of letting a zero-node partition trip asserts deep in pfs/mprt.
struct ConfigError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Calibration knobs for the parallel-file-system I/O path.  These are the
/// "architectural and software" constants the paper's effects hinge on;
/// pfs:: consumes them, the ablation_overhead scenario sweeps them.
struct IoSubsysParams {
  std::uint64_t stripe_unit_bytes = 64 * 1024;  // PFS default 64 KB
  std::uint32_t disks_per_io_node = 1;
  double server_overhead_ms = 0.8;   // per request at the I/O node daemon
  double client_syscall_ms = 0.35;   // per call trap/marshal on the client
  std::uint64_t cache_bytes_per_io_node = 4ULL << 20;
  /// SCAN (elevator) disk scheduling at the I/O nodes instead of FIFO.
  bool scan_scheduling = false;
  /// Active I/O server knobs (cache replacement policy, pattern-driven
  /// read-ahead, pooled write-behind, and the durability policy that
  /// decides what a write ack promises).  The defaults reproduce the
  /// legacy passive write-behind server byte for byte; see
  /// iosrv/config.hpp.
  iosrv::Config server;
};

struct MachineConfig {
  std::string name;
  std::size_t compute_nodes = 4;
  std::size_t io_nodes = 2;
  /// Failure-domain fan-in: consecutive I/O nodes share one rack switch,
  /// so a switch/rack fault takes all of them out together (fault::
  /// InjectionPlan's domain outages are scoped by this grouping).  0 (the
  /// default) puts every I/O node in its own domain — no correlated
  /// blast radius, and bit-identical behavior to pre-domain builds.
  std::size_t io_nodes_per_switch = 0;
  double cpu_mflops = 25.0;            // effective, not peak
  double mem_copy_mb_per_s = 30.0;     // memcpy bandwidth (buffer copies)
  TopologyKind topology = TopologyKind::kMesh2D;
  std::uint32_t mesh_cols = 4;         // for kMesh2D
  NetParams net;
  DiskParams disk;
  IoSubsysParams io;

  std::size_t total_nodes() const noexcept {
    return compute_nodes + io_nodes;
  }

  /// Reject impossible shapes with a ConfigError naming the bad field:
  /// zero compute nodes, zero I/O nodes, a switch fan-in larger than
  /// the I/O partition, or server crash semantics on the legacy flusher
  /// under any policy but write_through (only the pool models what a
  /// crash destroys).
  /// Called by the Machine constructor, so every simulation fails fast
  /// instead of asserting downstream.
  void validate() const;

  // -- Presets (calibrated to the paper's platforms; see DESIGN.md §2) ----

  /// 56-node Paragon used for the FFT experiments (2 or 4 I/O nodes).
  static MachineConfig paragon_small(std::size_t compute_nodes,
                                     std::size_t io_nodes);
  /// 512-node Paragon used for SCF/AST (12, 16 or 64 I/O node partitions).
  static MachineConfig paragon_large(std::size_t compute_nodes,
                                     std::size_t io_nodes);
  /// 80-node SP-2 with PIOFS: 4 I/O nodes, 4 SSA disks each, 32 KB BSU.
  static MachineConfig sp2(std::size_t compute_nodes);
  /// Scale-out platform beyond the paper: 1024-4096 compute nodes and
  /// 64-128 I/O servers on a multistage switch, with switch-scoped I/O
  /// failure domains (8 servers per rack switch).  Throws ConfigError
  /// outside those ranges — the preset is the validated envelope the
  /// figure2_xl sweep runs in (DESIGN.md §16).
  static MachineConfig paragon_xl(std::size_t compute_nodes,
                                  std::size_t io_nodes);
};

class Machine {
 public:
  Machine(simkit::Engine& eng, MachineConfig cfg);

  simkit::Engine& engine() noexcept { return eng_; }
  const MachineConfig& config() const noexcept { return cfg_; }
  Network& network() noexcept { return *net_; }

  NodeId compute_node(std::size_t i) const {
    assert(i < cfg_.compute_nodes);
    return static_cast<NodeId>(i);
  }
  NodeId io_node(std::size_t i) const {
    assert(i < cfg_.io_nodes);
    return static_cast<NodeId>(cfg_.compute_nodes + i);
  }
  bool is_io_node(NodeId n) const noexcept {
    return n >= cfg_.compute_nodes && n < cfg_.total_nodes();
  }

  // -- I/O failure domains (rack switches, see io_nodes_per_switch) -------
  /// Fan-in actually in effect: clamped to [1, io_nodes].
  std::size_t io_domain_fan_in() const noexcept {
    const std::size_t f =
        cfg_.io_nodes_per_switch == 0 ? 1 : cfg_.io_nodes_per_switch;
    return cfg_.io_nodes == 0 ? 1 : std::min(f, cfg_.io_nodes);
  }
  std::size_t io_domain_count() const noexcept {
    const std::size_t f = io_domain_fan_in();
    return (cfg_.io_nodes + f - 1) / f;
  }
  /// Domain of I/O node `i` (index into the I/O partition, not a NodeId).
  std::size_t io_domain_of(std::size_t i) const noexcept {
    return i / io_domain_fan_in();
  }
  /// I/O-partition indices belonging to domain `d`.
  std::vector<std::uint32_t> io_domain_members(std::size_t d) const {
    std::vector<std::uint32_t> m;
    const std::size_t f = io_domain_fan_in();
    for (std::size_t i = d * f; i < std::min((d + 1) * f, cfg_.io_nodes);
         ++i) {
      m.push_back(static_cast<std::uint32_t>(i));
    }
    return m;
  }

  /// Timed computation of `flops` floating-point operations on a node.
  /// (Every node computes at the same configured effective rate.)
  simkit::Task<void> compute(double flops) {
    co_await eng_.delay(flops / (cfg_.cpu_mflops * 1e6));
  }

  /// Timed in-memory copy of `bytes` (used for interface-layer buffering).
  simkit::Task<void> mem_copy(std::uint64_t bytes) {
    co_await eng_.delay(static_cast<double>(bytes) /
                        (cfg_.mem_copy_mb_per_s * 1e6));
  }

  simkit::Duration compute_time(double flops) const noexcept {
    return flops / (cfg_.cpu_mflops * 1e6);
  }

 private:
  simkit::Engine& eng_;
  MachineConfig cfg_;
  std::unique_ptr<Network> net_;
};

}  // namespace hw
