// pfs/diskarm.hpp — disk arm with FIFO or SCAN (elevator) scheduling.
//
// The I/O-node server queues requests for each disk.  FIFO service (the
// default, and the conservative model used for the paper reproduction)
// seeks wherever the next arrival points; SCAN sweeps the arm across the
// platter serving requests in position order, the classic elevator
// algorithm real file servers used.  The ablation_scan scenario
// quantifies the difference on the paper's scattered-access patterns.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "hw/disk.hpp"
#include "metrics/metrics.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace pfs {

class DiskArm {
 public:
  DiskArm(simkit::Engine& eng, const hw::DiskParams& params, bool scan);
  DiskArm(const DiskArm&) = delete;
  DiskArm& operator=(const DiskArm&) = delete;

  /// Wait for the arm (FIFO or SCAN order), then perform the timed
  /// access.
  simkit::Task<void> serve(std::uint64_t phys, std::uint64_t len,
                           hw::AccessKind kind);

  const hw::DiskModel& model() const noexcept { return model_; }
  /// Fault-injection needs to stretch service times on a live arm.
  hw::DiskModel& mutable_model() noexcept { return model_; }
  std::uint64_t services() const noexcept { return services_; }
  std::size_t queue_length() const noexcept { return queue_.size(); }

 private:
  struct Waiter {
    std::uint64_t phys;
    std::coroutine_handle<> h;
  };

  struct Acquire {
    DiskArm& arm;
    std::uint64_t phys;
    bool await_ready() noexcept {
      if (!arm.busy_) {
        arm.busy_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      arm.queue_.push_back(Waiter{phys, h});
    }
    void await_resume() const noexcept {}
  };

  void release();
  std::size_t pick_next() const;

  simkit::Engine& eng_;
  hw::DiskModel model_;
  bool scan_;
  // Instrument handles, resolved once from the registry installed at
  // construction; all null when metrics are off (the default).
  metrics::Counter* m_seeks_ = nullptr;
  metrics::Histogram* m_seek_s_ = nullptr;
  metrics::Histogram* m_transfer_s_ = nullptr;
  metrics::Histogram* m_queue_wait_s_ = nullptr;
  bool busy_ = false;
  bool sweep_up_ = true;
  std::uint64_t services_ = 0;
  // Arrival order (erase keeps it).  A deque, so the FIFO pick — always
  // the front — pops without moving the waiters behind it.
  std::deque<Waiter> queue_;
};

}  // namespace pfs
