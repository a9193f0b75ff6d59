#include "pfs/ionode.hpp"

#include <algorithm>
#include <cassert>

#include "audit/audit.hpp"

namespace pfs {

namespace {
/// Redo-log capacity in blocks under DurabilityPolicy::kJournaled; it
/// bounds the dirty pool (a write cannot ack until its journal slot is
/// appended).
constexpr std::uint64_t kJournalBlocks = 256;

constexpr std::uint64_t cache_blocks(const hw::IoSubsysParams& io) {
  const std::uint64_t blocks =
      io.cache_bytes_per_io_node / io.stripe_unit_bytes;
  return std::max<std::uint64_t>(blocks, 4);
}
}  // namespace

IoNode::IoNode(simkit::Engine& eng, hw::NodeId self, std::size_t index,
               const hw::IoSubsysParams& io, const hw::DiskParams& disk,
               fault::Injector* injector)
    : eng_(eng),
      self_(self),
      index_(index),
      injector_(injector),
      io_(io),
      front_(eng, 1),
      dirty_slots_(eng, cache_blocks(io)),
      cache_(iosrv::make_policy(io.server.policy, cache_blocks(io))) {
  disks_.reserve(io_.disks_per_io_node);
  for (std::uint32_t i = 0; i < io_.disks_per_io_node; ++i) {
    disks_.push_back(
        std::make_unique<DiskArm>(eng, disk, io_.scan_scheduling));
    if (injector_) {
      injector_->attach_disk(index_, i, &disks_.back()->mutable_model());
    }
  }
  if (io_.server.durability.policy == iosrv::DurabilityPolicy::kJournaled) {
    // Classic dedicated-log-device deployment: the redo log never
    // shares an arm with data, so the append per ack stays a sequential
    // stream and journaled's extra disk traffic does not contend with
    // reads or background drains.  Not injector-attached: the log
    // device dies with the node (scrub destroys it) and takes no part in
    // the data disks' Markov walk.
    log_disk_ = std::make_unique<DiskArm>(eng, disk, io_.scan_scheduling);
  }
  if (io_.server.writeback.mode == iosrv::WritebackMode::kPool) {
    iosrv::WritebackConfig wb = io_.server.writeback;
    if (io_.server.durability.policy == iosrv::DurabilityPolicy::kJournaled) {
      // The pool is the in-memory image of the bounded redo log: a
      // write cannot ack until its journal slot exists, so the log
      // capacity caps the dirty pool.
      const std::uint64_t cap =
          wb.pool_blocks != 0 ? wb.pool_blocks : cache_blocks(io_);
      wb.pool_blocks =
          static_cast<std::uint32_t>(std::min(cap, kJournalBlocks));
    }
    pool_ = std::make_unique<iosrv::WritebackPool>(
        eng_, wb, cache_blocks(io_),
        [this](const iosrv::DirtyBlock& b) -> simkit::Task<void> {
          const FileId file = static_cast<FileId>(b.key.file);
          const std::uint64_t ep = crash_epoch_;
          co_await disk_for(file).serve(phys_of(file, b.local_offset),
                                        b.length, hw::AccessKind::kWrite);
          // A crash while this drain write was in flight: the data was
          // in the dead node's memory, the write never landed.  The
          // pool already dropped the block (complete() ignores it).
          if (ep != crash_epoch_) co_return;
          ++disk_writes_;
          if (m_disk_writes_) m_disk_writes_->inc();
          if (m_wb_drained_) m_wb_drained_->inc();
          cache_->mark_clean(b.key);
          if (audit::Ledger* led = audit::current()) {
            led->note_durable(b.key.file, index_, b.key.block);
          }
        });
  }
  if (injector_ && io_.server.durability.crash_semantics) {
    injector_->on_node_crash([this](std::size_t n, bool scrub) {
      if (n == index_) on_crash(scrub);
    });
    injector_->on_node_recovery([this](std::size_t n) {
      if (n == index_) on_recover();
    });
  }
  cache_->set_evict_listener([this](const iosrv::BlockKey& k) {
    if (m_cache_evictions_) m_cache_evictions_->inc();
    if (ra_unused_.erase(k)) {
      ++ra_waste_;
      if (m_ra_waste_) m_ra_waste_->inc();
    }
  });
  if (metrics::Registry* r = metrics::current()) {
    // Cache and disk-op counters aggregate across nodes; the queue-depth
    // timeseries is per node (hot-spotting is a per-node phenomenon).
    const std::string prefix = "pfs.node" + std::to_string(index_) + ".";
    m_requests_ = &r->counter("pfs.requests");
    m_cache_hits_ = &r->counter("pfs.cache.hits");
    m_cache_misses_ = &r->counter("pfs.cache.misses");
    m_cache_evictions_ = &r->counter("pfs.cache.evictions");
    m_disk_reads_ = &r->counter("pfs.disk.reads");
    m_disk_writes_ = &r->counter("pfs.disk.writes");
    if (io_.server.readahead.enabled) {
      m_ra_issued_ = &r->counter("pfs.server.readahead.issued");
      m_ra_hits_ = &r->counter("pfs.server.readahead.hits");
      m_ra_late_hits_ = &r->counter("pfs.server.readahead.late_hits");
      m_ra_waste_ = &r->counter("pfs.server.readahead.waste");
    }
    if (pool_) {
      m_wb_drained_ = &r->counter("pfs.server.writeback.drained");
      m_wb_stalls_ = &r->counter("pfs.server.writeback.stalls");
    }
    if (io_.server.durability.crash_semantics) {
      m_lost_blocks_ = &r->counter("pfs.server.writeback.lost_blocks");
      m_lost_bytes_ = &r->counter("pfs.server.writeback.lost_bytes");
      m_invalidations_ = &r->counter("pfs.server.cache.invalidations");
      if (io_.server.readahead.enabled) {
        m_ra_cancelled_ = &r->counter("pfs.server.readahead.cancelled");
      }
    }
    if (io_.server.durability.policy ==
        iosrv::DurabilityPolicy::kJournaled) {
      m_journal_appends_ = &r->counter("pfs.server.journal.appends");
      m_journal_replayed_ = &r->counter("pfs.server.journal.replayed");
    }
    m_queue_depth_ =
        &r->timeseries(prefix + "queue_depth", /*interval=*/1e-3);
  }
}

std::size_t IoNode::disk_queue_depth() const noexcept {
  std::size_t depth = 0;
  for (const auto& d : disks_) depth += d->queue_length();
  return depth;
}

void IoNode::check_faults() {
  if (injector_ && injector_->node_down(index_)) {
    injector_->count_rejection();
    throw IoError(index_);
  }
}

std::uint64_t IoNode::phys_of(FileId file, std::uint64_t local_offset) {
  if (file >= segments_.size()) segments_.resize(file + 1);
  auto& segs = segments_[file];
  const std::uint64_t idx = local_offset / kSegmentBytes;
  while (segs.size() <= idx) {
    segs.push_back(next_segment_);
    next_segment_ += kSegmentBytes;
  }
  return segs[idx] + local_offset % kSegmentBytes;
}

simkit::Task<void> IoNode::process(hw::AccessKind kind, hw::NodeId client,
                                   FileId file, std::uint64_t local_offset,
                                   std::uint64_t length) {
  assert(length > 0 &&
         length <= io_.stripe_unit_bytes &&
         "requests must be stripe-unit-bounded (client splits them)");
  // A crashed node rejects at arrival (the client's connection attempt
  // fails fast); a healthy arrival can still die below if the node
  // crashes while the request is queued for the daemon.
  check_faults();
  ++served_;
  if (m_requests_) {
    m_requests_->inc();
    m_queue_depth_->record(eng_.now(),
                           static_cast<double>(disk_queue_depth()));
  }
  const simkit::Time t0 = eng_.now();

  // 1. Daemon CPU: strictly serialized per-node, the per-call cost,
  // held inline so a request pays no sub-task frame for it.
  co_await front_.acquire();
  co_await eng_.delay(simkit::milliseconds(io_.server_overhead_ms));
  front_.release();
  check_faults();

  const iosrv::BlockKey key{file, local_offset / io_.stripe_unit_bytes};
  const bool ra_on = io_.server.readahead.enabled;

  if (kind == hw::AccessKind::kRead) {
    const bool hit = cache_->lookup(key);
    if (m_cache_hits_) (hit ? m_cache_hits_ : m_cache_misses_)->inc();
    if (hit) {
      if (ra_on && ra_unused_.erase(key)) {
        ++ra_hits_;
        if (m_ra_hits_) m_ra_hits_->inc();
      }
    } else {
      const std::shared_ptr<simkit::Trigger>* inflight =
          ra_on ? ra_inflight_.find(key) : nullptr;
      if (inflight) {
        // The block's prefetch is already on the disk queue: join it
        // instead of issuing a duplicate disk read.  Copy the trigger:
        // the table entry moves or goes while this request waits.
        std::shared_ptr<simkit::Trigger> trig = *inflight;
        co_await trig->wait();
        ra_unused_.erase(key);
        ++ra_late_hits_;
        if (m_ra_late_hits_) m_ra_late_hits_->inc();
      } else {
        co_await disk_for(file).serve(phys_of(file, local_offset), length,
                                      hw::AccessKind::kRead);
        ++disk_reads_;
        if (m_disk_reads_) m_disk_reads_->inc();
        // Only a full stripe unit read populates the cache (block-grained).
        if (length == io_.stripe_unit_bytes) cache_->insert(key, false);
      }
    }
    if (ra_on) maybe_readahead(client, file, key.block);
  } else if (io_.server.durability.policy ==
             iosrv::DurabilityPolicy::kWriteThrough) {
    // The whole in-place write sits between request and ack: that is
    // write_through's per-write durability price.
    const simkit::Time w0 = eng_.now();
    co_await disk_for(file).serve(phys_of(file, local_offset), length,
                                  hw::AccessKind::kWrite);
    durability_wait_ += eng_.now() - w0;
    ++disk_writes_;
    if (m_disk_writes_) m_disk_writes_->inc();
    cache_->insert(key, false);
  } else {
    // Every journaled ack pays its redo-log append first — absorbed
    // overwrites included, since each acked write is its own record.
    if (io_.server.durability.policy ==
        iosrv::DurabilityPolicy::kJournaled) {
      co_await journal_append(length);
    }
    if (pool_ ? pool_->is_dirty(key) : cache_->is_dirty(key)) {
      // Absorbed into an already-buffered block: no new slot, no new
      // flush; refresh the cache entry.
      cache_->insert(key, true);
    } else if (pool_) {
      const std::size_t stalls_before = pool_->stalls();
      co_await pool_->submit({key, local_offset, length});
      if (m_wb_stalls_ && pool_->stalls() != stalls_before) {
        m_wb_stalls_->inc();
      }
      cache_->insert(key, true);
    } else {
      co_await dirty_slots_.acquire();  // backpressure when flusher lags
      cache_->insert(key, true);
      ++dirty_count_[file];
      eng_.spawn(flush_block(file, local_offset, length, key), "flush");
    }
  }
  busy_ += eng_.now() - t0;
}

void IoNode::maybe_readahead(hw::NodeId client, FileId file,
                             std::uint64_t block) {
  const iosrv::RunInfo run = pattern_.note(client, file, block);
  if (run.stride == 0 || run.length < kReadAheadMinRun) return;
  for (std::uint32_t i = 1; i <= kReadAheadDegree; ++i) {
    if (ra_inflight_.size() >= kReadAheadBudget) break;
    const std::int64_t next =
        static_cast<std::int64_t>(block) +
        run.stride * static_cast<std::int64_t>(i);
    if (next < 0) break;
    const iosrv::BlockKey k{file, static_cast<std::uint64_t>(next)};
    if (cache_->contains(k) || ra_inflight_.contains(k)) continue;
    ra_inflight_.insert(k, std::make_shared<simkit::Trigger>());
    ++ra_issued_;
    if (m_ra_issued_) m_ra_issued_->inc();
    eng_.spawn(prefetch_block(file, k), "iosrv.ra");
  }
}

simkit::Task<void> IoNode::prefetch_block(FileId file, iosrv::BlockKey key) {
  const std::uint64_t local_offset = key.block * io_.stripe_unit_bytes;
  const std::uint64_t ep = crash_epoch_;
  co_await disk_for(file).serve(phys_of(file, local_offset),
                                io_.stripe_unit_bytes, hw::AccessKind::kRead);
  if (ep != crash_epoch_) {
    // The node died while this prefetch was on the disk queue: the data
    // has no cache to land in.  Still wake joiners and release the
    // budget slot — the speculation is cancelled, not leaked.
    ++ra_cancelled_;
    if (m_ra_cancelled_) m_ra_cancelled_->inc();
  } else {
    ++disk_reads_;
    if (m_disk_reads_) m_disk_reads_->inc();
    if (cache_->insert(key, false)) {
      ra_unused_.insert(key);
    } else {
      // Cache saturated with pinned blocks: the speculative read is lost.
      ++ra_waste_;
      if (m_ra_waste_) m_ra_waste_->inc();
    }
  }
  std::shared_ptr<simkit::Trigger>* inflight = ra_inflight_.find(key);
  assert(inflight);
  std::shared_ptr<simkit::Trigger> trig = std::move(*inflight);
  ra_inflight_.erase(key);
  trig->fire(eng_);
}

simkit::Task<void> IoNode::flush_block(FileId file, std::uint64_t local_offset,
                                       std::uint64_t length,
                                       iosrv::BlockKey key) {
  co_await disk_for(file).serve(phys_of(file, local_offset), length,
                                hw::AccessKind::kWrite);
  ++disk_writes_;
  if (m_disk_writes_) m_disk_writes_->inc();
  cache_->mark_clean(key);
  if (audit::Ledger* led = audit::current()) {
    led->note_durable(file, index_, key.block);
  }
  dirty_slots_.release();
  auto it = dirty_count_.find(file);
  if (it != dirty_count_.end() && --it->second == 0) {
    dirty_count_.erase(it);
    auto trig = drain_triggers_.find(file);
    if (trig != drain_triggers_.end()) {
      trig->second->fire(eng_);
      drain_triggers_.erase(trig);
    }
  }
}

simkit::Task<void> IoNode::journal_append(std::uint64_t length) {
  if (!journal_base_set_) {
    // The log arm still carves an 8 MB segment from the shared bump
    // allocator so replay offsets line up, but the appends themselves
    // go to the dedicated spindle — a pure sequential stream.
    journal_base_ = next_segment_;
    next_segment_ += kSegmentBytes;
    journal_base_set_ = true;
  }
  const std::uint64_t off = journal_base_ + journal_head_;
  journal_head_ = (journal_head_ + length) % kSegmentBytes;
  const simkit::Time w0 = eng_.now();
  DiskArm& log = log_disk_ ? *log_disk_ : *disks_[0];
  co_await log.serve(off, length, hw::AccessKind::kWrite);
  // Each append is a log force: the ack waits for the platter, and the
  // commit sector rotates past before the next record can follow it.
  log.mutable_model().note_sync_commit();
  durability_wait_ += eng_.now() - w0;
  ++journal_appends_;
  if (m_journal_appends_) m_journal_appends_->inc();
}

void IoNode::account_loss(const iosrv::LossReport& lr) {
  if (lr.blocks == 0) return;
  const simkit::Time now = eng_.now();
  lost_dirty_blocks_ += lr.blocks;
  lost_bytes_ += lr.bytes;
  if (m_lost_blocks_) m_lost_blocks_->inc(lr.blocks);
  if (m_lost_bytes_) m_lost_bytes_->inc(lr.bytes);
  audit::Ledger* led = audit::current();
  FileId prev = kInvalidFile;
  for (const iosrv::DirtyBlock& b : lr.lost) {  // sorted by (file, block)
    const FileId f = static_cast<FileId>(b.key.file);
    if (f != prev) {
      lost_times_[f].push_back(now);
      prev = f;
    }
    if (led) led->note_lost(b.key.file, index_, b.key.block, b.length);
  }
}

void IoNode::on_crash(bool scrub) {
  ++crash_epoch_;
  last_crash_scrub_ = scrub;
  // Everything resident dies with the node: prefetched-but-unused
  // blocks become waste, the cache comes back cold.
  if (!ra_unused_.empty()) {
    ra_waste_ += ra_unused_.size();
    if (m_ra_waste_) m_ra_waste_->inc(ra_unused_.size());
    ra_unused_.clear();
  }
  cache_->invalidate_all();
  ++cache_invalidations_;
  if (m_invalidations_) m_invalidations_->inc();
  if (pool_) {
    iosrv::LossReport lr = pool_->invalidate_all();
    if (io_.server.durability.policy == iosrv::DurabilityPolicy::kJournaled &&
        !scrub) {
      // The redo log survives a plain crash: acked blocks are parked
      // for deterministic replay at the reboot edge, not lost.
      replay_pending_.insert(replay_pending_.end(), lr.lost.begin(),
                             lr.lost.end());
    } else {
      account_loss(lr);
    }
  }
  // A scrub destroys the redo log too — anything still waiting for
  // replay (this crash's blocks or a previous one's) is lost after all.
  if (scrub && !replay_pending_.empty()) {
    iosrv::LossReport lr;
    lr.lost = std::move(replay_pending_);
    replay_pending_.clear();
    lr.blocks = lr.lost.size();
    for (const iosrv::DirtyBlock& b : lr.lost) lr.bytes += b.length;
    account_loss(lr);
  }
  if (scrub) {
    if (audit::Ledger* led = audit::current()) led->note_scrubbed(index_);
  }
}

void IoNode::on_recover() {
  if (replay_pending_.empty()) return;
  std::vector<iosrv::DirtyBlock> blocks;
  blocks.swap(replay_pending_);
  eng_.spawn(replay_journal(std::move(blocks)), "iosrv.replay");
}

simkit::Task<void> IoNode::replay_journal(
    std::vector<iosrv::DirtyBlock> blocks) {
  const std::uint64_t ep = crash_epoch_;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (ep != crash_epoch_) {
      // Crashed again mid-replay.  A plain re-crash keeps the log: the
      // remainder replays at the next reboot.  A scrub destroyed it.
      std::vector<iosrv::DirtyBlock> rest(blocks.begin() + i, blocks.end());
      if (last_crash_scrub_) {
        iosrv::LossReport lr;
        lr.lost = std::move(rest);
        lr.blocks = lr.lost.size();
        for (const iosrv::DirtyBlock& b : lr.lost) lr.bytes += b.length;
        account_loss(lr);
      } else {
        replay_pending_.insert(replay_pending_.end(), rest.begin(),
                               rest.end());
      }
      co_return;
    }
    const iosrv::DirtyBlock& b = blocks[i];
    const FileId file = static_cast<FileId>(b.key.file);
    co_await disk_for(file).serve(phys_of(file, b.local_offset), b.length,
                                  hw::AccessKind::kWrite);
    ++disk_writes_;
    if (m_disk_writes_) m_disk_writes_->inc();
    ++journal_replayed_;
    if (m_journal_replayed_) m_journal_replayed_->inc();
  }
}

bool IoNode::file_lost_in(FileId file, simkit::Time t0,
                          simkit::Time t1) const {
  auto it = lost_times_.find(file);
  if (it == lost_times_.end()) return false;
  for (const simkit::Time t : it->second) {
    if (t0 < t && t <= t1) return true;
  }
  return false;
}

simkit::Task<void> IoNode::drain(FileId file) {
  // A drain barrier (fsync or close) is client-visible wait under every
  // policy; how often a policy forces one is part of its price.
  const simkit::Time w0 = eng_.now();
  if (pool_) {
    co_await pool_->drain_file(file);
    durability_wait_ += eng_.now() - w0;
    co_return;
  }
  while (dirty_count_.count(file) != 0) {
    auto& trig = drain_triggers_[file];
    if (!trig) trig = std::make_shared<simkit::Trigger>();
    auto local = trig;  // keep alive across the wait
    co_await local->wait();
  }
  durability_wait_ += eng_.now() - w0;
}

}  // namespace pfs
