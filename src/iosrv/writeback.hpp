// iosrv/writeback.hpp — bounded dirty-buffer pool with watermark-driven
// background draining.
//
// The legacy IoNode write-behind model spawned one flusher per buffered
// write: every dirty block's disk write was queued immediately, so a
// checkpoint burst slammed the full burst into the disk queue ahead of
// any demand read.  The pool generalizes it:
//
//   * a write completes once it holds one of `pool_blocks` dirty
//     buffers; when the pool is full the writer STALLS (the watermark
//     stall the server accounts for),
//   * a background drainer starts once the pool crosses the high
//     watermark and drains oldest-first down to the low watermark,
//     keeping at most kDrainWidth disk writes in flight — the
//     throttle that leaves disk-queue room for demand reads,
//   * drain_file() forces one file's blocks out (close/flush
//     semantics) and completes only when that file has no dirty blocks
//     left; other files keep absorbing overwrites — a flush barrier on
//     one tenant must not destroy write-behind for everyone else.
//
// Every coroutine here is finite: the drainer exits when its work is
// done, so a simulation drains exactly when all forced flushes have
// completed.  Blocks below the low watermark with no force pending stay
// buffered — that is what a write-behind cache is.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "iosrv/cache_policy.hpp"
#include "iosrv/config.hpp"
#include "iosrv/flat_map.hpp"
#include "simkit/engine.hpp"
#include "simkit/trigger.hpp"

namespace iosrv {

/// One buffered write-behind block: the cache key plus what the flusher
/// needs to price the disk write.  Absorbed overwrites keep the first
/// write's extent, as the legacy flusher did.
struct DirtyBlock {
  BlockKey key;
  std::uint64_t local_offset = 0;
  std::uint64_t length = 0;
};

/// What a crash invalidation destroyed: every acked-but-unflushed block
/// the pool held, sorted by (file, block) so downstream accounting and
/// journal replay are deterministic.
struct LossReport {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  std::vector<DirtyBlock> lost;
};

class WritebackPool {
 public:
  /// Performs the physical write of one block (the IoNode binds this to
  /// its disk arms).  A throw is counted per pool and per file and
  /// surfaced to the next drain_file() waiter on that file.
  using Writer = std::function<simkit::Task<void>(const DirtyBlock&)>;

  /// `cache_blocks` substitutes for WritebackConfig::pool_blocks == 0.
  WritebackPool(simkit::Engine& eng, const WritebackConfig& cfg,
                std::size_t cache_blocks, Writer writer);

  std::size_t pool_blocks() const noexcept { return cap_; }
  std::size_t high_watermark_blocks() const noexcept { return high_; }
  std::size_t low_watermark_blocks() const noexcept { return low_; }

  bool is_dirty(const BlockKey& k) const { return dirty_.contains(k); }
  std::size_t dirty_count() const noexcept { return dirty_.size(); }

  /// Buffer one block (precondition: !is_dirty(b.key) — the caller
  /// absorbs overwrites of an already-dirty block).  Completes once a
  /// pool buffer is held; stalls while the pool is full.
  simkit::Task<void> submit(DirtyBlock b);

  /// Force-drain until `file` has no dirty blocks (close/fsync
  /// semantics).  Only this file's queued blocks are forced; everyone
  /// else's stay buffered and keep absorbing overwrites.  If any of the
  /// file's blocks failed to write since the last drain, the first
  /// recorded error is rethrown to the waiter once the file is
  /// quiescent — a flush that lost data must not report success.  The
  /// failure record is consumed by whichever waiter observes it first.
  simkit::Task<void> drain_file(std::uint64_t file);

  /// Power-loss semantics: discard every buffered block (queued and
  /// in-flight alike), wake force-drain waiters (their data is gone,
  /// not pending), release stalled submitters, and report what was
  /// lost.  In-flight drain writes that complete after this are ignored
  /// — their block no longer exists in the pool.
  LossReport invalidate_all();

  // -- statistics ---------------------------------------------------------
  std::uint64_t drained() const noexcept { return drained_; }
  std::uint64_t stalls() const noexcept { return stalls_; }
  simkit::Duration stall_time() const noexcept { return stall_time_; }
  std::size_t max_dirty() const noexcept { return max_dirty_; }
  std::uint64_t drainer_wakes() const noexcept { return wakes_; }
  std::uint64_t write_errors() const noexcept { return write_errors_; }
  std::uint64_t lost_blocks() const noexcept { return lost_blocks_; }
  std::uint64_t lost_bytes() const noexcept { return lost_bytes_; }
  std::uint64_t invalidations() const noexcept { return invalidations_; }
  /// Blocks of `file` whose drain write failed and has not yet been
  /// surfaced to a drain_file() waiter.
  std::uint64_t failed_blocks(std::uint64_t file) const noexcept {
    auto it = failed_.find(file);
    return it == failed_.end() ? 0 : it->second.blocks;
  }

 private:
  /// Concurrent drain writes per node — the throttle that keeps a
  /// checkpoint burst from starving demand reads at the disk queue.
  static constexpr std::size_t kDrainWidth = 2;

  simkit::Task<void> drain_loop();
  simkit::Task<void> drain_worker();
  /// One forced-drain worker: writes out `file`'s queued blocks only.
  simkit::Task<void> drain_file_worker(std::uint64_t file);
  void ensure_drainer();
  /// Wants-draining predicate for the background drainer: above the low
  /// watermark with work queued.  Forced drains run their own workers.
  bool want_drain() const noexcept {
    return !queue_.empty() && dirty_.size() > low_;
  }
  void complete(const DirtyBlock& b, std::exception_ptr err);

  auto wait_for_buffer() {
    struct Awaiter {
      WritebackPool& p;
      bool await_ready() const noexcept { return p.dirty_.size() < p.cap_; }
      void await_suspend(std::coroutine_handle<> h) {
        p.stalled_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  simkit::Engine& eng_;
  Writer writer_;
  std::size_t cap_;
  std::size_t high_;
  std::size_t low_;

  /// Extent of a buffered block, kept per key so invalidation can price
  /// the loss (and reconstruct DirtyBlocks for journal replay) even for
  /// blocks already picked up by a drain worker.
  struct Extent {
    std::uint64_t local_offset = 0;
    std::uint64_t length = 0;
  };
  /// Un-surfaced drain failures for one file.
  struct FileErrors {
    std::uint64_t blocks = 0;
    std::exception_ptr first;
  };

  std::deque<DirtyBlock> queue_;  // buffered, not yet picked by a worker
  FlatMap<BlockKey, Extent, BlockKeyHash> dirty_;
  std::map<std::uint64_t, std::uint64_t> file_dirty_;  // file -> blocks
  std::map<std::uint64_t, std::shared_ptr<simkit::Trigger>> file_clean_;
  std::map<std::uint64_t, FileErrors> failed_;
  std::deque<std::coroutine_handle<>> stalled_;
  bool drainer_running_ = false;

  std::uint64_t drained_ = 0;
  std::uint64_t stalls_ = 0;
  simkit::Duration stall_time_ = 0.0;
  std::size_t max_dirty_ = 0;
  std::uint64_t wakes_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t lost_blocks_ = 0;
  std::uint64_t lost_bytes_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace iosrv
