// pfs/ionode.hpp — one I/O node: daemon front-end, disks, cache, flusher.
//
// Service model (per request, all FIFO):
//   1. front-end daemon CPU: a unit resource held for server_overhead_ms —
//      this is the per-call software cost that dominates unoptimized I/O
//      in the paper (the more calls, the worse),
//   2. block cache lookup (pluggable iosrv::CachePolicy — LRU by
//      default, ARC for scan-resistant shared servers),
//   3. on miss / write_through write (SP-2): the owning disk arm is
//      acquired and a mechanical DiskModel prices the access (stateful
//      head position, so interleaved far-apart requests pay seeks),
//   4. every other durability policy buffers (Paragon): writes complete
//      once a dirty-cache slot is taken; a spawned flush process writes
//      the block out asynchronously.  With iosrv::WritebackMode::kPool the
//      per-write flusher is replaced by a bounded dirty pool drained
//      between watermarks.
//
// With read-ahead enabled (iosrv::ReadAheadConfig) the node watches each
// (client, file) stream for constant-stride runs and prefetches ahead of
// them under an in-flight budget (the kReadAhead* constants) — the
// ViPIOS-style "smart server" the related-work papers argue for.  All
// iosrv features default off; the default node is byte-identical to the
// pre-iosrv passive server.
//
// Crash semantics (iosrv::DurabilityConfig, default OFF; buffered writes
// must then use the pool, see MachineConfig::validate): when enabled and
// a fault::Injector crash hits this node, the volatile state dies with
// it — the block cache and writeback pool are invalidated,
// in-flight drains and prefetches are cancelled (epoch check), and
// acked-but-unflushed blocks become lost updates reported to the
// audit:: ledger and the loss counters.  The DurabilityPolicy decides
// what an ack promised: write_through pays the disk before acking,
// ordered_drain keeps write-behind speed but honors fsync barriers,
// journaled pays a sequential redo-log append per write and replays
// the log on recovery after a plain (non-scrub) crash.
//
// There are no eternal server loops: every piece of work is a finite
// coroutine, so a simulation drains exactly when all I/O (including
// background flushes and prefetches) has completed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "hw/disk.hpp"
#include "hw/machine.hpp"
#include "iosrv/cache_policy.hpp"
#include "iosrv/flat_map.hpp"
#include "iosrv/pattern.hpp"
#include "iosrv/writeback.hpp"
#include "metrics/metrics.hpp"
#include "pfs/diskarm.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"
#include "simkit/resource.hpp"
#include "simkit/trigger.hpp"

namespace pfs {

class IoNode {
 public:
  /// `index` is the node's position in the machine's I/O partition (the
  /// identity fault plans refer to); `injector` may be null (no faults).
  IoNode(simkit::Engine& eng, hw::NodeId self, std::size_t index,
         const hw::IoSubsysParams& io, const hw::DiskParams& disk,
         fault::Injector* injector = nullptr);

  // -- read-ahead tuning (when io.server.readahead.enabled) ---------------
  /// Run length (consecutive constant-stride accesses) that arms
  /// prefetching for a stream.
  static constexpr int kReadAheadMinRun = 3;
  /// Blocks prefetched ahead of the run per triggering access.
  static constexpr std::uint32_t kReadAheadDegree = 2;
  /// Maximum prefetch reads in flight per I/O node (the budget).
  static constexpr std::uint32_t kReadAheadBudget = 4;

  hw::NodeId node_id() const noexcept { return self_; }
  std::size_t index() const noexcept { return index_; }

  /// Full server-side handling of one stripe-unit-bounded request.
  /// `client` identifies the requesting compute node — the pattern
  /// tracker keys its streams by (client, file).
  simkit::Task<void> process(hw::AccessKind kind, hw::NodeId client,
                             FileId file, std::uint64_t local_offset,
                             std::uint64_t length);

  /// Wait until all dirty blocks of `file` on this node have been flushed.
  simkit::Task<void> drain(FileId file);

  // -- statistics ---------------------------------------------------------
  std::uint64_t requests_served() const noexcept { return served_; }
  std::uint64_t disk_reads() const noexcept { return disk_reads_; }
  std::uint64_t disk_writes() const noexcept { return disk_writes_; }
  const iosrv::CachePolicy& cache() const noexcept { return *cache_; }
  simkit::Duration busy_time() const noexcept { return busy_; }
  /// Total requests queued at this node's disks right now (the paper's
  /// contention measure).
  std::size_t disk_queue_depth() const noexcept;

  // Read-ahead accounting (all zero unless readahead.enabled).
  std::uint64_t readahead_issued() const noexcept { return ra_issued_; }
  /// Demand hits on a completed, not-yet-referenced prefetched block.
  std::uint64_t readahead_hits() const noexcept { return ra_hits_; }
  /// Demand reads that found their block's prefetch still in flight and
  /// waited for it instead of issuing a second disk read.
  std::uint64_t readahead_late_hits() const noexcept { return ra_late_hits_; }
  /// Prefetched blocks evicted (or dropped) without ever being used.
  std::uint64_t readahead_waste() const noexcept { return ra_waste_; }

  /// Dirty-pool stats; null in legacy write-behind mode.
  const iosrv::WritebackPool* writeback_pool() const noexcept {
    return pool_.get();
  }

  // Crash-semantics accounting (all zero unless durability.crash_semantics).
  /// Acked-but-unflushed blocks destroyed by crashes on this node.
  std::uint64_t lost_dirty_blocks() const noexcept {
    return lost_dirty_blocks_;
  }
  std::uint64_t lost_bytes() const noexcept { return lost_bytes_; }
  /// In-flight prefetches whose node died under them.
  std::uint64_t readahead_cancelled() const noexcept { return ra_cancelled_; }
  /// Crash invalidations of the block cache (cold re-entry events).
  std::uint64_t cache_invalidations() const noexcept {
    return cache_invalidations_;
  }
  std::uint64_t journal_appends() const noexcept { return journal_appends_; }
  std::uint64_t journal_replayed() const noexcept { return journal_replayed_; }
  /// Client-visible time spent blocked on durable-ack machinery: the
  /// synchronous in-place write under write_through, the redo-log
  /// append under journaled, and drain barriers (fsync/close) under
  /// every policy.  This is "what the durability contract costs", kept
  /// separate from makespan so queueing noise cannot hide the price.
  simkit::Duration durability_wait() const noexcept {
    return durability_wait_;
  }

  /// Did a crash destroy acked-but-unflushed data of `file` on this node
  /// in (t0, t1]?  The writeback-loss analogue of
  /// fault::Injector::node_scrubbed_in — checkpoint validity chains are
  /// truncated by either.
  bool file_lost_in(FileId file, simkit::Time t0, simkit::Time t1) const;

 private:
  // One file's per-node data lives on one local disk (PIOFS servers kept
  // each file in a local AIX file system); distinct files spread across
  // the node's disks.  This keeps a single shared file from enjoying
  // intra-node striping the real system didn't provide.
  DiskArm& disk_for(FileId file) { return *disks_[file % disks_.size()]; }

  /// Physical placement: server-local file offsets are mapped onto the
  /// disk through 8 MB segments from a bump allocator, so files are
  /// near-contiguous locally and distinct files live far apart.
  std::uint64_t phys_of(FileId file, std::uint64_t local_offset);

  simkit::Task<void> flush_block(FileId file, std::uint64_t local_offset,
                                 std::uint64_t length, iosrv::BlockKey key);

  /// Feed the pattern tracker and launch prefetches along a detected run.
  void maybe_readahead(hw::NodeId client, FileId file, std::uint64_t block);
  simkit::Task<void> prefetch_block(FileId file, iosrv::BlockKey key);

  static constexpr std::uint64_t kSegmentBytes = 8ULL << 20;

  /// Reject the request with IoError if a crash window holds the node
  /// down (counted as a rejection).
  void check_faults();

  // -- crash semantics (no-ops unless durability.crash_semantics) --------
  /// Power-loss at the crash edge: invalidate cache and pool, account
  /// lost updates (or park them for journal replay), cancel drains.
  void on_crash(bool scrub);
  /// Reboot edge: replay the surviving redo log, if any.
  void on_recover();
  void account_loss(const iosrv::LossReport& lr);
  simkit::Task<void> replay_journal(std::vector<iosrv::DirtyBlock> blocks);
  /// Sequential redo-log append on the dedicated log arm — the
  /// per-write durability price of DurabilityPolicy::kJournaled.
  simkit::Task<void> journal_append(std::uint64_t length);

  simkit::Engine& eng_;
  hw::NodeId self_;
  std::size_t index_;
  fault::Injector* injector_;
  hw::IoSubsysParams io_;
  simkit::Resource front_;        // daemon CPU (capacity 1)
  simkit::Resource dirty_slots_;  // legacy write-behind backpressure
  std::vector<std::unique_ptr<DiskArm>> disks_;
  // Dedicated redo-log spindle (kJournaled only): appends are strictly
  // sequential, so giving the log its own arm keeps them at streaming
  // cost instead of doubling the seek traffic on the data disks.
  std::unique_ptr<DiskArm> log_disk_;
  std::unique_ptr<iosrv::CachePolicy> cache_;
  iosrv::PatternTracker pattern_;
  std::unique_ptr<iosrv::WritebackPool> pool_;  // null in legacy mode
  std::vector<std::vector<std::uint64_t>> segments_;  // by FileId
  std::uint64_t next_segment_ = 0;

  std::map<FileId, std::uint64_t> dirty_count_;
  std::map<FileId, std::shared_ptr<simkit::Trigger>> drain_triggers_;

  // Prefetched-but-unreferenced residents (hit/waste accounting) and
  // prefetches still on the disk queue (late-hit joining).
  iosrv::FlatSet<iosrv::BlockKey, iosrv::BlockKeyHash> ra_unused_;
  iosrv::FlatMap<iosrv::BlockKey, std::shared_ptr<simkit::Trigger>,
                 iosrv::BlockKeyHash>
      ra_inflight_;

  // Crash-semantics state.  crash_epoch_ bumps at every crash edge;
  // coroutines that straddle a crash (drain writes, prefetches, journal
  // replay) capture it before their disk access and treat a mismatch
  // afterwards as "this work died with the node".
  std::uint64_t crash_epoch_ = 0;
  bool last_crash_scrub_ = false;
  std::vector<iosrv::DirtyBlock> replay_pending_;  // surviving redo log
  std::map<FileId, std::vector<simkit::Time>> lost_times_;
  std::uint64_t journal_base_ = 0;
  bool journal_base_set_ = false;
  std::uint64_t journal_head_ = 0;

  std::uint64_t served_ = 0;
  std::uint64_t disk_reads_ = 0;
  std::uint64_t disk_writes_ = 0;
  std::uint64_t ra_issued_ = 0;
  std::uint64_t ra_hits_ = 0;
  std::uint64_t ra_late_hits_ = 0;
  std::uint64_t ra_waste_ = 0;
  std::uint64_t ra_cancelled_ = 0;
  std::uint64_t lost_dirty_blocks_ = 0;
  std::uint64_t lost_bytes_ = 0;
  std::uint64_t cache_invalidations_ = 0;
  std::uint64_t journal_appends_ = 0;
  std::uint64_t journal_replayed_ = 0;
  simkit::Duration durability_wait_ = 0.0;
  simkit::Duration busy_ = 0.0;

  // Instrument handles from the registry installed at construction; all
  // null when metrics are off (the default).  Feature-specific handles
  // stay null when the feature is off so the legacy metrics surface is
  // unchanged.
  metrics::Counter* m_requests_ = nullptr;
  metrics::Counter* m_cache_hits_ = nullptr;
  metrics::Counter* m_cache_misses_ = nullptr;
  metrics::Counter* m_cache_evictions_ = nullptr;
  metrics::Counter* m_disk_reads_ = nullptr;
  metrics::Counter* m_disk_writes_ = nullptr;
  metrics::Counter* m_ra_issued_ = nullptr;
  metrics::Counter* m_ra_hits_ = nullptr;
  metrics::Counter* m_ra_late_hits_ = nullptr;
  metrics::Counter* m_ra_waste_ = nullptr;
  metrics::Counter* m_wb_drained_ = nullptr;
  metrics::Counter* m_wb_stalls_ = nullptr;
  metrics::Counter* m_lost_blocks_ = nullptr;
  metrics::Counter* m_lost_bytes_ = nullptr;
  metrics::Counter* m_invalidations_ = nullptr;
  metrics::Counter* m_ra_cancelled_ = nullptr;
  metrics::Counter* m_journal_appends_ = nullptr;
  metrics::Counter* m_journal_replayed_ = nullptr;
  metrics::Timeseries* m_queue_depth_ = nullptr;
};

}  // namespace pfs
