#include "pfs/diskarm.hpp"

#include <algorithm>

namespace pfs {

DiskArm::DiskArm(simkit::Engine& eng, const hw::DiskParams& params,
                 bool scan)
    : eng_(eng), model_(params), scan_(scan) {
  // Disk-arm instruments aggregate over all arms in the simulation — the
  // paper's seek-vs-transfer argument is machine-wide, not per-spindle.
  if (metrics::Registry* r = metrics::current()) {
    m_seeks_ = &r->counter("pfs.disk.seeks");
    m_seek_s_ = &r->histogram("pfs.disk.seek_s");
    m_transfer_s_ = &r->histogram("pfs.disk.transfer_s");
    m_queue_wait_s_ = &r->histogram("pfs.disk.queue_wait_s");
  }
}

simkit::Task<void> DiskArm::serve(std::uint64_t phys, std::uint64_t len,
                                  hw::AccessKind kind) {
  const simkit::Time t_arrive = eng_.now();
  co_await Acquire{*this, phys};
  hw::AccessBreakdown bd;
  const simkit::Duration t =
      model_.access(phys, len, kind, m_seek_s_ ? &bd : nullptr);
  ++services_;
  if (m_seek_s_) {
    m_queue_wait_s_->observe(eng_.now() - t_arrive);
    m_transfer_s_->observe(bd.transfer);
    if (bd.seek > 0.0) {
      m_seeks_->inc();
      m_seek_s_->observe(bd.seek);
    }
  }
  co_await eng_.delay(t);
  release();
}

std::size_t DiskArm::pick_next() const {
  // FIFO: the queue is in arrival order, so the oldest is at the front.
  if (!scan_) return 0;
  // SCAN: the nearest request at/above (sweeping up) or at/below
  // (sweeping down) the head.  release() has already reversed the sweep
  // if nothing lies ahead, so a match exists.  Strict comparisons keep
  // the earliest arrival among requests at the same position.
  const std::uint64_t head = model_.head_position();
  std::size_t best = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::uint64_t p = queue_[i].phys;
    if (sweep_up_ ? p < head : p > head) continue;  // behind the sweep
    if (best == queue_.size() ||
        (sweep_up_ ? p < queue_[best].phys : p > queue_[best].phys)) {
      best = i;
    }
  }
  return best;
}

void DiskArm::release() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  if (scan_) {
    // Direction bookkeeping: flip when no request remains ahead.
    const std::uint64_t head = model_.head_position();
    const bool any_up = std::any_of(queue_.begin(), queue_.end(),
                                    [&](const Waiter& w) {
                                      return w.phys >= head;
                                    });
    const bool any_down = std::any_of(queue_.begin(), queue_.end(),
                                      [&](const Waiter& w) {
                                        return w.phys <= head;
                                      });
    if (sweep_up_ && !any_up && any_down) sweep_up_ = false;
    if (!sweep_up_ && !any_down && any_up) sweep_up_ = true;
  }
  const std::size_t next = pick_next();
  const auto h = queue_[next].h;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(next));
  eng_.schedule_at(eng_.now(), h);
}

}  // namespace pfs
