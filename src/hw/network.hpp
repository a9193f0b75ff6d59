// hw/network.hpp — interconnect timing model with endpoint contention.
//
// The model is deliberately endpoint-centric: each node owns a NIC modelled
// as a unit resource; a transfer serializes on the sender NIC for
// bytes/bandwidth, propagates with per-hop latency, then serializes on the
// receiver NIC for bytes/bandwidth.  For the I/O studies reproduced here
// the bottleneck is the handful of I/O-node endpoints, which this model
// captures; per-link wormhole contention is intentionally out of scope
// (see DESIGN.md §5.2 and the ablation_network scenario).
//
// transfer() holds each NIC inline (acquire, delay, release in its own
// frame) rather than in a sub-task: every message of every layer passes
// through here, and a remote transfer then costs one coroutine frame
// instead of three (DESIGN.md §14, frame budget).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/resource.hpp"
#include "simkit/task.hpp"
#include "simkit/time.hpp"

namespace hw {

using NodeId = std::uint32_t;

struct NetParams {
  double link_mb_per_s = 50.0;      // effective per-NIC bandwidth
  double per_hop_latency_us = 1.0;  // router/switch hop latency
  double sw_overhead_us = 50.0;     // per-message software (send) overhead
};

/// Pure geometry: how many hops between two nodes.
class Topology {
 public:
  virtual ~Topology() = default;
  virtual std::uint32_t hops(NodeId a, NodeId b) const = 0;
  virtual std::size_t node_count() const = 0;
};

/// 2-D mesh, nodes numbered row-major — the Paragon layout.  I/O nodes sit
/// at the high end of the numbering (last rows), as service partitions did.
class MeshTopology final : public Topology {
 public:
  MeshTopology(std::uint32_t cols, std::uint32_t rows)
      : cols_(cols), rows_(rows) {
    assert(cols > 0 && rows > 0);
  }
  std::uint32_t hops(NodeId a, NodeId b) const override {
    const auto [ax, ay] = coords(a);
    const auto [bx, by] = coords(b);
    const std::uint32_t dx = ax > bx ? ax - bx : bx - ax;
    const std::uint32_t dy = ay > by ? ay - by : by - ay;
    return dx + dy;
  }
  std::size_t node_count() const override {
    return static_cast<std::size_t>(cols_) * rows_;
  }
  std::pair<std::uint32_t, std::uint32_t> coords(NodeId n) const {
    return {n % cols_, n / cols_};
  }

 private:
  std::uint32_t cols_;
  std::uint32_t rows_;
};

/// Multistage switch (SP-2): constant hop count between any two nodes.
class SwitchTopology final : public Topology {
 public:
  SwitchTopology(std::size_t nodes, std::uint32_t stages = 3)
      : nodes_(nodes), stages_(stages) {}
  std::uint32_t hops(NodeId a, NodeId b) const override {
    return a == b ? 0 : stages_;
  }
  std::size_t node_count() const override { return nodes_; }

 private:
  std::size_t nodes_;
  std::uint32_t stages_;
};

class Network {
 public:
  Network(simkit::Engine& eng, std::unique_ptr<Topology> topo,
          NetParams params)
      : eng_(eng), topo_(std::move(topo)), p_(params) {
    nics_.reserve(topo_->node_count());
    for (std::size_t i = 0; i < topo_->node_count(); ++i) {
      nics_.push_back(std::make_unique<simkit::Resource>(eng_, 1));
    }
  }

  const NetParams& params() const noexcept { return p_; }
  const Topology& topology() const noexcept { return *topo_; }
  std::size_t node_count() const noexcept { return nics_.size(); }

  simkit::Resource& nic(NodeId n) { return *nics_.at(n); }

  /// Timed transfer of `bytes` from `src` to `dst` with NIC contention.
  /// Local transfers pay only the software overhead and one memcpy-rate
  /// serialization.
  simkit::Task<void> transfer(NodeId src, NodeId dst, std::uint64_t bytes) {
    co_await eng_.delay(simkit::microseconds(p_.sw_overhead_us));
    if (src == dst) {
      co_await eng_.delay(serialization(bytes));
      co_return;
    }
    const simkit::Duration ser = serialization(bytes);
    simkit::Resource& out = *nics_.at(src);
    co_await out.acquire();
    co_await eng_.delay(ser);
    out.release();
    co_await eng_.delay(propagation(src, dst));
    simkit::Resource& in = *nics_.at(dst);
    co_await in.acquire();
    co_await eng_.delay(ser);
    in.release();
  }

  simkit::Duration serialization(std::uint64_t bytes) const {
    return static_cast<double>(bytes) / (p_.link_mb_per_s * 1e6);
  }
  simkit::Duration propagation(NodeId src, NodeId dst) const {
    return simkit::microseconds(p_.per_hop_latency_us) *
           static_cast<double>(topo_->hops(src, dst));
  }

 private:
  simkit::Engine& eng_;
  std::unique_ptr<Topology> topo_;
  NetParams p_;
  std::vector<std::unique_ptr<simkit::Resource>> nics_;
};

}  // namespace hw
