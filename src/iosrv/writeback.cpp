#include "iosrv/writeback.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace iosrv {

WritebackPool::WritebackPool(simkit::Engine& eng, const WritebackConfig& cfg,
                             std::size_t cache_blocks, Writer writer)
    : eng_(eng), writer_(std::move(writer)) {
  cap_ = cfg.pool_blocks != 0 ? cfg.pool_blocks : cache_blocks;
  cap_ = std::max<std::size_t>(cap_, 1);
  const double hw = std::clamp(cfg.high_watermark, 0.0, 1.0);
  const double lw = std::clamp(cfg.low_watermark, 0.0, 1.0);
  high_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(hw * static_cast<double>(cap_))),
      1, cap_);
  low_ = std::min<std::size_t>(
      static_cast<std::size_t>(std::floor(lw * static_cast<double>(cap_))),
      high_ - 1);
}

simkit::Task<void> WritebackPool::submit(DirtyBlock b) {
  assert(!is_dirty(b.key) && "caller absorbs overwrites of dirty blocks");
  if (dirty_.size() >= cap_) {
    ++stalls_;
    const simkit::Time t0 = eng_.now();
    while (dirty_.size() >= cap_) co_await wait_for_buffer();
    stall_time_ += eng_.now() - t0;
  }
  if (is_dirty(b.key)) {
    // A concurrent write to the same block buffered it while this one
    // was stalled (the caller's absorb check ran before the stall).
    // Queueing it again would double-count file_dirty_: the duplicate
    // completion's erase() finds nothing and early-returns, the count
    // never reaches zero, and every later drain_file() on the file
    // waits forever.  Absorb here instead, exactly like the caller.
    co_return;
  }
  const std::uint64_t file = b.key.file;
  dirty_.insert(b.key, Extent{b.local_offset, b.length});
  file_dirty_[file] += 1;
  queue_.push_back(std::move(b));
  max_dirty_ = std::max(max_dirty_, dirty_.size());
  if (dirty_.size() >= high_) ensure_drainer();
}

void WritebackPool::ensure_drainer() {
  if (drainer_running_) return;
  drainer_running_ = true;
  eng_.spawn(drain_loop(), "iosrv.drain");
}

simkit::Task<void> WritebackPool::drain_loop() {
  ++wakes_;
  while (want_drain()) {
    const std::size_t width = std::min(kDrainWidth, queue_.size());
    std::vector<simkit::ProcHandle> workers;
    workers.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      workers.push_back(eng_.spawn(drain_worker(), "iosrv.drain.w"));
    }
    for (simkit::ProcHandle& w : workers) co_await w.join();
  }
  // No suspension between the last want_drain() check and this reset,
  // so a submit that crosses the watermark always sees the truth.
  drainer_running_ = false;
}

simkit::Task<void> WritebackPool::drain_worker() {
  while (want_drain()) {
    DirtyBlock b = queue_.front();
    queue_.pop_front();
    std::exception_ptr err;
    try {
      co_await writer_(b);
    } catch (...) {
      err = std::current_exception();
    }
    complete(b, err);
  }
}

void WritebackPool::complete(const DirtyBlock& b, std::exception_ptr err) {
  if (!dirty_.erase(b.key)) {
    // The block was invalidated while this write was in flight: its
    // loss is already accounted, the file bookkeeping already reset.
    return;
  }
  if (err) {
    // The block leaves the pool either way (the legacy flusher dropped
    // failed data too), but the failure is recorded so drain_file() can
    // refuse to report the file clean.
    ++write_errors_;
    FileErrors& fe = failed_[b.key.file];
    ++fe.blocks;
    if (!fe.first) fe.first = err;
  } else {
    ++drained_;
  }
  auto it = file_dirty_.find(b.key.file);
  assert(it != file_dirty_.end());
  if (--it->second == 0) {
    file_dirty_.erase(it);
    auto trig = file_clean_.find(b.key.file);
    if (trig != file_clean_.end()) {
      trig->second->fire(eng_);
      file_clean_.erase(trig);
    }
  }
  if (!stalled_.empty() && dirty_.size() < cap_) {
    eng_.schedule_at(eng_.now(), stalled_.front());
    stalled_.pop_front();
  }
}

simkit::Task<void> WritebackPool::drain_file_worker(std::uint64_t file) {
  for (;;) {
    auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [file](const DirtyBlock& b) { return b.key.file == file; });
    if (it == queue_.end()) co_return;
    DirtyBlock b = *it;
    queue_.erase(it);
    std::exception_ptr err;
    try {
      co_await writer_(b);
    } catch (...) {
      err = std::current_exception();
    }
    complete(b, err);
  }
}

simkit::Task<void> WritebackPool::drain_file(std::uint64_t file) {
  // Force out only this file's blocks; everyone else keeps absorbing
  // overwrites.  (An earlier version raised a global force flag that
  // made the background drainer flush the entire pool — one tenant's
  // fsync destroyed write-behind absorption for the whole node.)
  auto pending = file_dirty_.find(file);
  if (pending != file_dirty_.end()) {
    const std::size_t width = std::min<std::size_t>(
        kDrainWidth, static_cast<std::size_t>(pending->second));
    std::vector<simkit::ProcHandle> workers;
    workers.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      workers.push_back(
          eng_.spawn(drain_file_worker(file), "iosrv.fsync.w"));
    }
    for (simkit::ProcHandle& w : workers) co_await w.join();
  }
  // Blocks a background drain worker picked up before we started finish
  // there; wait until the file's dirty count reaches zero.
  while (file_dirty_.count(file) != 0) {
    auto& trig = file_clean_[file];
    if (!trig) trig = std::make_shared<simkit::Trigger>();
    auto local = trig;  // keep alive across the wait
    co_await local->wait();
  }
  auto fe = failed_.find(file);
  if (fe != failed_.end()) {
    std::exception_ptr err = fe->second.first;
    failed_.erase(fe);
    if (err) std::rethrow_exception(err);
  }
}

LossReport WritebackPool::invalidate_all() {
  LossReport r;
  r.lost.reserve(dirty_.size());
  dirty_.for_each([&r](const BlockKey& k, const Extent& ext) {
    r.lost.push_back(DirtyBlock{k, ext.local_offset, ext.length});
    r.bytes += ext.length;
  });
  r.blocks = r.lost.size();
  // dirty_ iterates in slot order; sort so loss accounting and journal
  // replay are deterministic.
  std::sort(r.lost.begin(), r.lost.end(),
            [](const DirtyBlock& a, const DirtyBlock& b) {
              return a.key.file != b.key.file ? a.key.file < b.key.file
                                              : a.key.block < b.key.block;
            });
  queue_.clear();
  dirty_.clear();
  file_dirty_.clear();
  // Force-drain waiters wake with nothing pending: their data is lost,
  // not in flight.  Loss is reported by the caller (the crash path),
  // not as a drain error — the flush did not fail, the node died.
  for (auto& [file, trig] : file_clean_) trig->fire(eng_);
  file_clean_.clear();
  while (!stalled_.empty()) {
    eng_.schedule_at(eng_.now(), stalled_.front());
    stalled_.pop_front();
  }
  ++invalidations_;
  lost_blocks_ += r.blocks;
  lost_bytes_ += r.bytes;
  return r;
}

}  // namespace iosrv
