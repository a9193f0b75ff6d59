#include "ckpt/ckpt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "iosrv/config.hpp"
#include "metrics/metrics.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/types.hpp"

namespace ckpt {

std::string Policy::name() const {
  std::string n = write == Write::kSync ? "sync" : "async";
  n += data == Data::kFull ? "_full" : "_incr";
  return n;
}

std::optional<Policy> Policy::parse(std::string_view s) {
  for (const Write write : {Write::kSync, Write::kAsync}) {
    for (const Data data : {Data::kFull, Data::kIncremental}) {
      Policy p;
      p.write = write;
      p.data = data;
      if (p.name() == s) return p;
    }
  }
  return std::nullopt;
}

namespace {

/// Deterministic checkpoint-state content for (rank, step): restarts can
/// prove they read back the exact step they rolled back to.
std::byte pattern_byte(int rank, int step, std::uint64_t i) {
  return static_cast<std::byte>(
      (static_cast<std::uint64_t>(rank) * 131 +
       static_cast<std::uint64_t>(step) * 17 + i * 7 + 0x2D) &
      0xFF);
}

/// Bytes the rotating dirty window covers per step.
std::uint64_t dirty_window_bytes(const Workload& w) {
  const std::uint64_t state = w.state_bytes_per_rank;
  if (state == 0) return 0;
  if (w.dirty_fraction_per_step >= 1.0) return state;
  const double frac = std::max(w.dirty_fraction_per_step, 0.0);
  const auto db =
      static_cast<std::uint64_t>(frac * static_cast<double>(state));
  return std::min(state, std::max<std::uint64_t>(db, 1));
}

/// Rank r's slice of the checkpoint file: `pieces` chunks interleaved
/// round-robin by rank, so the collective write/read really exchanges.
/// Every rank uses the same length for piece j (the division remainder is
/// spread one byte at a time over the leading pieces), so slot (j, rank)
/// never overlaps a neighbour even when state_bytes_per_rank is not a
/// multiple of the piece count.
std::vector<pario::Extent> state_extents(const Workload& w, int rank) {
  const auto pieces =
      static_cast<std::uint64_t>(std::max(w.state_pieces, 1));
  const std::uint64_t base = w.state_bytes_per_rank / pieces;
  const std::uint64_t rem = w.state_bytes_per_rank % pieces;
  const auto nprocs = static_cast<std::uint64_t>(w.nprocs);
  std::vector<pario::Extent> ext;
  ext.reserve(static_cast<std::size_t>(pieces));
  std::uint64_t prefix = 0;  // one rank's state bytes in pieces before j
  for (std::uint64_t j = 0; j < pieces; ++j) {
    const std::uint64_t len = base + (j < rem ? 1 : 0);
    if (len == 0) break;  // more pieces than bytes: the rest are empty
    ext.push_back({.file_offset =
                       prefix * nprocs +
                       static_cast<std::uint64_t>(rank) * len,
                   .length = len,
                   .buf_offset = prefix});
    prefix += len;
  }
  return ext;
}

/// Rank r's extents in a checkpoint file: the interleaved state layout for
/// a full checkpoint, or the rank's slot of `per_rank_bytes` for a delta
/// (whose payload packs the dirty regions, see dirty_extents).
std::vector<pario::Extent> rank_extents(const Workload& w, int rank,
                                        bool full,
                                        std::uint64_t per_rank_bytes) {
  if (full) return state_extents(w, rank);
  return {{.file_offset = static_cast<std::uint64_t>(rank) * per_rank_bytes,
           .length = per_rank_bytes,
           .buf_offset = 0}};
}

/// Total payload of a delta covering steps (from_step, to_step].
std::uint64_t delta_payload_bytes(const Workload& w, int from_step,
                                  int to_step) {
  std::uint64_t total = 0;
  for (const auto& e : dirty_extents(w, from_step, to_step)) total += e.length;
  return total;
}

/// One link of the committed restore chain (a delta checkpoint).
struct ChainLink {
  pfs::FileId file = pfs::kInvalidFile;
  int from_step = 0;
  int to_step = 0;
  std::uint64_t per_rank_bytes = 0;
  simkit::Time commit_time = simkit::kTimeZero;  // scrubs after this kill it
};

/// The restore chain: last committed full checkpoint plus the consecutive
/// deltas committed on top of it.  Replayed in order at restart.
struct Chain {
  bool valid = false;
  pfs::FileId full_file = pfs::kInvalidFile;
  int full_step = 0;
  simkit::Time full_commit = simkit::kTimeZero;
  std::vector<ChainLink> deltas;
};

/// One issued async checkpoint: ranks stage snapshots into it and detach
/// drain tasks; the last drain to finish decides commit or drop.
struct AsyncRec {
  std::uint64_t epoch = 0;  // attempt epoch at issue (stale => dropped)
  int step = 0;             // steps covered (to_step)
  int prev_step = 0;        // chain must end here for a delta to commit
  bool full = false;
  pfs::FileId file = pfs::kInvalidFile;
  std::uint64_t per_rank_bytes = 0;
  int pending = 0;          // ranks whose drain has not finished
  bool failed = false;      // some rank's drain exhausted its retries
  simkit::Time issue_time = simkit::kTimeZero;
  simkit::Time snapshot_done = simkit::kTimeZero;  // last rank's stage copy
  std::vector<std::vector<std::byte>> staged;      // per rank (backed runs)
};

/// Mutable run state shared by the driver and every rank's coroutine.
/// Single-threaded simulation: no synchronization needed; the bookkeeping
/// fields change either on rank 0 (sync commits) or inside the last
/// finishing drain task (async commits), so each event writes them once.
struct RunState {
  bool prologue_done = false;
  bool have_ckpt = false;
  int ckpt_step = 0;     // steps covered by the last committed checkpoint
  int resume_step = 0;   // first step the next attempt executes
  bool failed = false;   // this attempt hit a coordinated failure
  bool productive = false;
  simkit::Time anchor = simkit::kTimeZero;  // lost-work accrues from here
  Chain chain;
  // Scrub-aware restore routing, recomputed by the driver before every
  // restart: which full-checkpoint copy the next restore reads, and which
  // scrub-invalidated copy (if any) health-aware recovery re-mirrors from
  // the surviving one after the restore.  kInvalidFile restore_source
  // means "the committed chain's full_file".
  pfs::FileId restore_source = pfs::kInvalidFile;
  pfs::FileId remirror_target = pfs::kInvalidFile;
  std::uint64_t epoch = 0;        // bumped per restart; stale drains drop
  std::uint64_t staged_bytes = 0; // async staging occupancy (all ranks)
  std::map<int, std::shared_ptr<AsyncRec>> inflight;  // by to_step
  Report rep;

  // Registry instruments (ckpt.*), resolved once in run(); all null when
  // metrics are off.  The policy-specific instruments are only created
  // for non-sync_full policies, so sync_full metrics output is unchanged.
  metrics::Histogram* m_write_s = nullptr;
  metrics::Histogram* m_lost_work_s = nullptr;
  metrics::Histogram* m_recovery_s = nullptr;
  metrics::Counter* m_checkpoints = nullptr;
  metrics::Counter* m_restarts = nullptr;
  metrics::Counter* m_bytes = nullptr;
  metrics::Gauge* m_staging = nullptr;        // ckpt.staging_bytes
  metrics::Histogram* m_overlap_s = nullptr;  // issue -> commit overlap
  metrics::Histogram* m_delta_bytes = nullptr;
  metrics::Histogram* m_stage_wait_s = nullptr;
  metrics::Counter* m_dropped = nullptr;
  metrics::Timeseries* ts_issue = nullptr;   // async issues: (time, step)
  metrics::Timeseries* ts_commit = nullptr;  // commits: (time, step);
                                             // drops: (time, -step)

  void resolve_meters(const Policy& pol) {
    if (metrics::Registry* r = metrics::current()) {
      m_write_s = &r->histogram("ckpt.write_s");
      m_lost_work_s = &r->histogram("ckpt.lost_work_s");
      m_recovery_s = &r->histogram("ckpt.recovery_s");
      m_checkpoints = &r->counter("ckpt.checkpoints");
      m_restarts = &r->counter("ckpt.restarts");
      m_bytes = &r->counter("ckpt.bytes");
      if (!pol.is_sync_full()) {
        m_staging = &r->gauge("ckpt.staging_bytes");
        m_overlap_s = &r->histogram("ckpt.drain_overlap_s");
        m_delta_bytes = &r->histogram("ckpt.delta_bytes", 1.0);
        m_stage_wait_s = &r->histogram("ckpt.stage_wait_s");
        m_dropped = &r->counter("ckpt.dropped");
        ts_issue = &r->timeseries("ckpt.issue");
        ts_commit = &r->timeseries("ckpt.commit");
      }
    }
  }

  void note_failure(simkit::Time now) {
    failed = true;
    if (productive) {
      rep.lost_work += now - anchor;
      if (m_lost_work_s) m_lost_work_s->observe(now - anchor);
      productive = false;
    }
  }
  void begin_productive(simkit::Time now) {
    productive = true;
    anchor = now;
  }

  void note_staging(std::int64_t delta_bytes_signed) {
    staged_bytes = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(staged_bytes) + delta_bytes_signed);
    if (m_staging) m_staging->set(static_cast<double>(staged_bytes));
  }

  /// Commit a checkpoint covering `step`: update the restore chain and the
  /// rollback anchor.  `snap_done` is the instant the committed state was
  /// captured — work performed after it is lost on the next rollback;
  /// `commit_now` is when the data became durable (scrubbing crashes after
  /// it invalidate the copy).
  void commit(int step, bool full, pfs::FileId file, int from_step,
              std::uint64_t per_rank_bytes, std::uint64_t bytes_written,
              simkit::Time snap_done, simkit::Time commit_now) {
    have_ckpt = true;
    ckpt_step = step;
    resume_step = step;
    if (full) {
      chain.valid = true;
      chain.full_file = file;
      chain.full_step = step;
      chain.full_commit = commit_now;
      chain.deltas.clear();
      restore_source = file;
      remirror_target = pfs::kInvalidFile;
      rep.full_checkpoints += 1;
    } else {
      chain.deltas.push_back(
          {file, from_step, step, per_rank_bytes, commit_now});
      rep.delta_checkpoints += 1;
      rep.delta_bytes += bytes_written;
      if (m_delta_bytes) {
        m_delta_bytes->observe(static_cast<double>(bytes_written));
      }
    }
    rep.checkpoints += 1;
    rep.ckpt_bytes += bytes_written;
    anchor = std::max(anchor, snap_done);
    if (m_checkpoints) {
      m_checkpoints->inc();
      m_bytes->inc(bytes_written);
    }
  }

  /// Last drain of an async checkpoint finished: commit it, or drop it if
  /// it is stale (pre-restart epoch, job already complete), failed, or no
  /// longer extends the committed chain (a lost delta permanently breaks
  /// the chain until the next full checkpoint).
  void finalize_async(const std::shared_ptr<AsyncRec>& rec, simkit::Time now,
                      int nprocs) {
    auto it = inflight.find(rec->step);
    if (it != inflight.end() && it->second == rec) inflight.erase(it);
    const bool stale = rec->epoch != epoch || rep.completed;
    const bool extends =
        rec->full || (have_ckpt && ckpt_step == rec->prev_step);
    if (stale || rec->failed || rec->step <= ckpt_step || !extends) {
      rep.dropped_checkpoints += 1;
      if (m_dropped) m_dropped->inc();
      if (ts_commit) ts_commit->record(now, -static_cast<double>(rec->step));
      return;
    }
    commit(rec->step, rec->full, rec->file, rec->prev_step,
           rec->per_rank_bytes,
           rec->per_rank_bytes * static_cast<std::uint64_t>(nprocs),
           rec->snapshot_done, now);
    if (ts_commit) ts_commit->record(now, static_cast<double>(rec->step));
    if (m_overlap_s) m_overlap_s->observe(now - rec->issue_time);
  }
};

}  // namespace

std::vector<pario::Extent> dirty_extents(const Workload& w, int from_step,
                                         int to_step) {
  std::vector<pario::Extent> out;
  const std::uint64_t state = w.state_bytes_per_rank;
  const std::uint64_t db = dirty_window_bytes(w);
  if (state == 0 || db == 0 || to_step <= from_step) return out;
  const auto count = static_cast<std::uint64_t>(to_step - from_step);
  const std::uint64_t total = count * db;
  if (total >= state || total / count != db) {  // laps (or overflows): all
    out.push_back({.file_offset = 0, .length = state, .buf_offset = 0});
    return out;
  }
  const std::uint64_t start =
      (static_cast<std::uint64_t>(from_step) * db) % state;
  if (start + total <= state) {
    out.push_back({.file_offset = start, .length = total, .buf_offset = 0});
  } else {
    const std::uint64_t first = state - start;
    out.push_back({.file_offset = start, .length = first, .buf_offset = 0});
    out.push_back(
        {.file_offset = 0, .length = total - first, .buf_offset = first});
  }
  return out;
}

int last_dirty_step(const Workload& w, int at_step, std::uint64_t i) {
  const std::uint64_t state = w.state_bytes_per_rank;
  const std::uint64_t db = dirty_window_bytes(w);
  if (state == 0 || i >= state || db == 0 || at_step <= 0) return 0;
  if (db >= state) return at_step;
  for (int t = at_step; t >= 1; --t) {
    const std::uint64_t start =
        (static_cast<std::uint64_t>(t - 1) * db) % state;
    const std::uint64_t rel = (i + state - start) % state;
    if (rel < db) return t;
  }
  return 0;
}

Report run(hw::Machine& machine, pfs::StripedFs& fs,
           fault::Injector* injector, Workload w, Options opt) {
  simkit::Engine& eng = machine.engine();
  const simkit::Time job_start = eng.now();
  const Policy pol = opt.policy;

  // -- files ---------------------------------------------------------------
  // Checkpoint files follow opt.placement: kStriped uses the default
  // whole-partition layout (identical to the pre-placement engine); the
  // pinned placements confine the primary to failure domain 0 and the
  // mirror to domain 0 (kSameDomain) or the next domain (kOtherDomain).
  auto create_ckpt_target = [&](const std::string& nm, bool mirror) {
    if (opt.placement == Options::Placement::kStriped ||
        machine.io_domain_count() == 0) {
      return fs.create(nm, w.backed_state);
    }
    const std::size_t d =
        (mirror && opt.placement == Options::Placement::kOtherDomain)
            ? 1 % machine.io_domain_count()
            : 0;
    return fs.create_placed(nm, w.backed_state, machine.io_domain_members(d));
  };
  const pfs::FileId ckpt_file =
      create_ckpt_target("ckpt." + w.name, /*mirror=*/false);
  const pfs::FileId ckpt_replica =
      opt.replicate_checkpoint
          ? create_ckpt_target("ckpt." + w.name + ".mirror", /*mirror=*/true)
          : pfs::kInvalidFile;
  // Only sync full checkpoints are mirrored: the mirror is written, fsynced
  // and counted with the primary, is the restore's fail-over target, and
  // is the second copy restart routing may fall back to.
  const pfs::FileId mirror =
      pol.is_sync_full() ? ckpt_replica : pfs::kInvalidFile;
  std::vector<pfs::FileId> priv;
  pfs::FileId dump = pfs::kInvalidFile;
  if (w.io == StepIo::kPrivateRead) {
    priv.reserve(static_cast<std::size_t>(w.nprocs));
    for (int r = 0; r < w.nprocs; ++r) {
      priv.push_back(fs.create(w.name + ".priv." + std::to_string(r)));
    }
  } else if (w.io == StepIo::kCollectiveDump) {
    dump = fs.create(w.name + ".dump");
  }
  // Non-sync_full policies create more checkpoint targets lazily, AFTER
  // the files above, so the sync_full file/stripe layout is untouched:
  // a second full-checkpoint buffer for async double-buffering (an
  // in-flight full must never overwrite the committed one) and one file
  // per delta, cached by checkpoint index so restarted attempts reuse it.
  pfs::FileId ckpt_file_b = pfs::kInvalidFile;
  std::map<int, pfs::FileId> delta_file_by_k;
  auto delta_file = [&](int k) {
    auto it = delta_file_by_k.find(k);
    if (it == delta_file_by_k.end()) {
      it = delta_file_by_k
               .emplace(k, create_ckpt_target("ckpt." + w.name + ".d" +
                                                  std::to_string(k),
                                              /*mirror=*/false))
               .first;
    }
    return it->second;
  };

  // Step/prologue I/O and checkpoint writes retry without fail-over (a
  // write must land on every copy); full-checkpoint restores may fail
  // over to the mirror.
  pario::RetryPolicy step_retry = opt.retry;
  step_retry.replica = pfs::kInvalidFile;
  pario::RetryPolicy ckpt_retry = opt.retry;
  ckpt_retry.replica = mirror;
  pario::RetryPolicy drain_retry =
      opt.drain_retry.max_attempts > 0 ? opt.drain_retry : step_retry;
  drain_retry.replica = pfs::kInvalidFile;  // drains never fail over

  // Under the ordered_drain durability policy a checkpoint only commits
  // once its acked bytes are on disk: every checkpoint write is followed
  // by an fsync barrier, so a later server crash cannot silently hollow
  // out a committed copy.  The other policies skip the barrier — that is
  // exactly the durability/overhead tradeoff the bench measures.
  const bool ordered_drain =
      fs.params().server.durability.policy ==
      iosrv::DurabilityPolicy::kOrderedDrain;

  // Health-aware recovery: every job I/O path feeds one tracker (pure
  // observation — no simulated events), and checkpoint restores hedge
  // against the mirror once a latency estimate exists.
  std::optional<pario::HealthTracker> health;
  if (opt.health_aware) {
    health.emplace(fs.io_node_count());
    step_retry.health = &*health;
    drain_retry.health = &*health;
    ckpt_retry.health = &*health;
    ckpt_retry.hedge_latency_multiple = opt.hedge_latency_multiple;
    if (injector && fs.params().server.durability.crash_semantics) {
      pario::follow_crashes(*health, *injector, eng);
    }
  }

  RunState st;
  st.rep.policy = pol;
  st.resolve_meters(pol);
  pario::TwoPhaseOptions tp_step;  // also checkpoint writes, delta reads
  tp_step.retry = &step_retry;
  tp_step.retry_stats = &st.rep.retry;
  pario::TwoPhaseOptions tp_ckpt_read;
  tp_ckpt_read.retry = &ckpt_retry;
  tp_ckpt_read.retry_stats = &st.rep.retry;

  const int interval = std::max(opt.ckpt_interval_steps, 0);
  const std::uint64_t chunk =
      std::max<std::uint64_t>(w.io_chunk_bytes, 1);
  const std::uint64_t rank_budget = std::max<std::uint64_t>(
      pol.staging_budget_bytes / std::max(w.nprocs, 1), 1);

  // Per-rank live state buffers (content-backed runs only).
  std::vector<std::vector<std::byte>> state;
  if (w.backed_state) {
    state.assign(static_cast<std::size_t>(w.nprocs),
                 std::vector<std::byte>(w.state_bytes_per_rank));
  }
  auto state_span = [&](int r) -> std::span<std::byte> {
    if (!w.backed_state) return {};
    return std::span<std::byte>(state[static_cast<std::size_t>(r)]);
  };
  // Live-state content model: byte i of rank r after step s holds the
  // pattern of the last step whose dirty window covered i (step 0 = the
  // initial state).  With the default dirty fraction of 1.0 every step
  // rewrites everything, which reduces to the pre-incremental behavior.
  auto init_state = [&](int r) {
    if (!w.backed_state) return;
    auto& buf = state[static_cast<std::size_t>(r)];
    for (std::uint64_t i = 0; i < w.state_bytes_per_rank; ++i) {
      buf[i] = pattern_byte(r, 0, i);
    }
  };
  auto apply_step = [&](int r, int done_step) {
    if (!w.backed_state) return;
    auto& buf = state[static_cast<std::size_t>(r)];
    for (const auto& e : dirty_extents(w, done_step - 1, done_step)) {
      for (std::uint64_t j = 0; j < e.length; ++j) {
        buf[e.file_offset + j] =
            pattern_byte(r, done_step, e.file_offset + j);
      }
    }
  };
  auto gather_delta = [&](int r, int from_step, int to_step) {
    std::vector<std::byte> payload;
    if (!w.backed_state) return payload;
    const auto& buf = state[static_cast<std::size_t>(r)];
    payload.resize(delta_payload_bytes(w, from_step, to_step));
    for (const auto& e : dirty_extents(w, from_step, to_step)) {
      std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(e.file_offset),
                  e.length,
                  payload.begin() + static_cast<std::ptrdiff_t>(e.buf_offset));
    }
    return payload;
  };

  // -- async background drain ----------------------------------------------
  // One detached task per rank per issued checkpoint: stream the staged
  // snapshot through the striped FS with large per-rank calls.  This is
  // where async checkpoint traffic genuinely contends with foreground I/O
  // at the I/O nodes.  The last drain to finish commits (or drops) the
  // checkpoint; failures are absorbed here — a lost background checkpoint
  // must not crash the job, it only weakens the restore chain.
  std::vector<std::optional<simkit::ProcHandle>> prev_drain(
      static_cast<std::size_t>(w.nprocs));
  auto drain_body = [&](std::shared_ptr<AsyncRec> rec, int r,
                        hw::NodeId node,
                        std::vector<pario::Extent> pieces)
      -> simkit::Task<void> {
    const simkit::Time d0 = eng.now();
    bool ok = true;
    try {
      std::span<const std::byte> payload;
      if (w.backed_state) {
        payload = rec->staged[static_cast<std::size_t>(r)];
      }
      co_await pario::resilient_pwritev(fs, node, rec->file,
                                        std::move(pieces), payload,
                                        drain_retry, &st.rep.retry);
      if (ordered_drain) {
        // Same barrier as the sync path: an async checkpoint may not
        // commit while its bytes are still acked-but-buffered at a
        // server that could crash and lose them.
        co_await pario::resilient_fsync(fs, node, rec->file, drain_retry,
                                        &st.rep.retry);
      }
    } catch (const pfs::IoError&) {
      ok = false;
    }
    st.rep.drain_time += eng.now() - d0;
    st.note_staging(-static_cast<std::int64_t>(rec->per_rank_bytes));
    if (w.backed_state) {
      auto& staged = rec->staged[static_cast<std::size_t>(r)];
      staged.clear();
      staged.shrink_to_fit();
    }
    if (!ok) rec->failed = true;
    rec->pending -= 1;
    if (rec->pending == 0) st.finalize_async(rec, eng.now(), w.nprocs);
  };

  // One coordinated phase: every rank runs `phase`, then all agree on the
  // outcome with a min-allreduce over the compute interconnect (which an
  // I/O-node crash does not touch).  A pfs::IoError on any rank fails the
  // phase on every rank, and rank 0 records the failure.
  auto coordinated = [&](mprt::Comm& c, auto phase) -> simkit::Task<bool> {
    bool ok = true;
    try {
      co_await phase();
    } catch (const pfs::IoError&) {
      ok = false;
    }
    std::array<double, 1> v{ok ? 1.0 : 0.0};
    co_await mprt::allreduce(c, std::span<double>(v), mprt::ReduceOp::kMin);
    ok = v[0] > 0.5;
    if (!ok && c.rank() == 0) st.note_failure(eng.now());
    co_return ok;
  };

  auto body = [&](mprt::Comm& c) -> simkit::Task<void> {
    const int r = c.rank();
    const hw::NodeId node = c.node();

    // One-time prologue: materialize the private input files every step
    // re-reads (SCF writes its integral file once, in iteration 1).  With
    // prologue_writes_private unset the files count as pre-existing input
    // (unbacked files serve reads without prior writes), so no prologue.
    if (w.io == StepIo::kPrivateRead && w.prologue_writes_private &&
        !st.prologue_done) {
      const bool ok = co_await coordinated(c, [&]() -> simkit::Task<void> {
        for (std::uint64_t off = 0; off < w.io_bytes_per_rank_step;
             off += chunk) {
          const std::uint64_t len =
              std::min(chunk, w.io_bytes_per_rank_step - off);
          co_await pario::resilient_pwrite(
              fs, node, priv[static_cast<std::size_t>(r)], off, len, {},
              step_retry, &st.rep.retry);
        }
      });
      if (!ok) co_return;
      if (r == 0) st.prologue_done = true;
    }

    // Restore from the last committed checkpoint chain (restarts only):
    // the full checkpoint, then every consecutive delta on top of it.
    if (st.have_ckpt && st.resume_step > 0) {
      const simkit::Time t0 = eng.now();
      const bool ok = co_await coordinated(c, [&]() -> simkit::Task<void> {
        const pfs::FileId full_src =
            st.restore_source != pfs::kInvalidFile ? st.restore_source
                                                   : st.chain.full_file;
        co_await pario::TwoPhase::read(c, fs, full_src,
                                       state_extents(w, r), state_span(r),
                                       nullptr, tp_ckpt_read);
        for (const ChainLink& link : st.chain.deltas) {
          std::vector<std::byte> scratch;
          std::span<std::byte> scratch_span;
          if (w.backed_state) {
            scratch.resize(link.per_rank_bytes);
            scratch_span = scratch;
          }
          co_await pario::TwoPhase::read(
              c, fs, link.file,
              rank_extents(w, r, /*full=*/false, link.per_rank_bytes),
              scratch_span, nullptr, tp_step);
          if (w.backed_state) {  // scatter the delta into the live state
            auto& buf = state[static_cast<std::size_t>(r)];
            for (const auto& e :
                 dirty_extents(w, link.from_step, link.to_step)) {
              std::copy_n(
                  scratch.begin() + static_cast<std::ptrdiff_t>(e.buf_offset),
                  e.length,
                  buf.begin() + static_cast<std::ptrdiff_t>(e.file_offset));
            }
          }
        }
        if (w.backed_state) {
          const auto& buf = state[static_cast<std::size_t>(r)];
          for (std::uint64_t i = 0; i < w.state_bytes_per_rank; ++i) {
            if (buf[i] !=
                pattern_byte(r, last_dirty_step(w, st.ckpt_step, i), i)) {
              st.rep.state_verified = false;
              break;
            }
          }
        }
        // Health-aware recovery re-mirrors a scrub-invalidated copy from
        // the state just restored, so the next burst cannot strand the job
        // with a single copy (counted as a repaired divergence).
        if (st.remirror_target != pfs::kInvalidFile) {
          co_await pario::TwoPhase::write(c, fs, st.remirror_target,
                                          state_extents(w, r), state_span(r),
                                          nullptr, tp_step);
        }
      });
      if (r == 0) {
        st.rep.recovery_time += eng.now() - t0;
        if (st.m_recovery_s) st.m_recovery_s->observe(eng.now() - t0);
        if (ok && st.remirror_target != pfs::kInvalidFile) {
          health->note_repaired();
          // The re-mirrored copy is whole again as of now: future scrub
          // checks must measure from this instant, and restores may fail
          // over to it again.
          st.chain.full_commit = eng.now();
          st.remirror_target = pfs::kInvalidFile;
        }
      }
      if (!ok) co_return;
    } else {
      init_state(r);  // fresh attempt from step 0: (re)set initial state
    }
    if (r == 0) st.begin_productive(eng.now());

    for (int step = st.resume_step; step < w.steps; ++step) {
      co_await machine.compute(w.flops_per_rank_step);
      apply_step(r, step + 1);

      if (w.io != StepIo::kNone) {
        const bool ok = co_await coordinated(c, [&]() -> simkit::Task<void> {
          if (w.io == StepIo::kPrivateRead) {
            for (std::uint64_t off = 0; off < w.io_bytes_per_rank_step;
                 off += chunk) {
              const std::uint64_t len =
                  std::min(chunk, w.io_bytes_per_rank_step - off);
              co_await pario::resilient_pread(
                  fs, node, priv[static_cast<std::size_t>(r)], off, len, {},
                  step_retry, &st.rep.retry);
            }
          } else {  // kCollectiveDump: shared solution file, rank-blocked
            std::vector<pario::Extent> mine{
                {.file_offset = static_cast<std::uint64_t>(r) *
                                w.io_bytes_per_rank_step,
                 .length = w.io_bytes_per_rank_step,
                 .buf_offset = 0}};
            co_await pario::TwoPhase::write(c, fs, dump, std::move(mine), {},
                                            nullptr, tp_step);
          }
        });
        if (!ok) co_return;
      }

      // Coordinated checkpoint after every `interval` completed steps (not
      // after the last step — the job is finished, nothing left to lose).
      const int done_steps = step + 1;
      if (interval == 0 || done_steps % interval != 0 ||
          done_steps >= w.steps) {
        continue;
      }
      // The checkpoint's plan, shared by both write paths: its index k
      // decides full vs delta (Policy::full_at), so restarted attempts
      // re-issue the same kind to the same file.
      const int k = done_steps / interval;
      const bool full = pol.full_at(k - 1);
      const int prev_step = done_steps - interval;
      const std::uint64_t per_rank_bytes =
          full ? w.state_bytes_per_rank
               : delta_payload_bytes(w, prev_step, done_steps);
      const simkit::Time t0 = eng.now();

      if (pol.write == Policy::Write::kSync) {
        // -- synchronous: ranks block inside the coordinated write --------
        // Every target gets the same extents and bytes: the primary (or
        // this checkpoint's delta file), plus the mirror of a mirrored full.
        std::vector<pfs::FileId> targets{full ? ckpt_file : delta_file(k)};
        if (full && mirror != pfs::kInvalidFile) targets.push_back(mirror);
        std::vector<std::byte> delta;
        std::span<const std::byte> data = state_span(r);
        if (!full) {
          delta = gather_delta(r, prev_step, done_steps);
          data = delta;
        }
        const bool ok = co_await coordinated(c, [&]() -> simkit::Task<void> {
          for (const pfs::FileId f : targets) {
            co_await pario::TwoPhase::write(
                c, fs, f, rank_extents(w, r, full, per_rank_bytes), data,
                nullptr, tp_step);
          }
          // Under ordered_drain a checkpoint is only declared good once
          // every acked byte is on disk: a crash-truncated drain throws
          // here and turns the commit into a coordinated failure instead
          // of a silently hollow checkpoint.
          if (ordered_drain) {
            for (const pfs::FileId f : targets) {
              co_await pario::resilient_fsync(fs, node, f, step_retry,
                                              &st.rep.retry);
            }
          }
        });
        if (!ok) co_return;
        if (r == 0) {
          st.rep.ckpt_overhead += eng.now() - t0;
          st.commit(done_steps, full, targets.front(), prev_step,
                    per_rank_bytes,
                    per_rank_bytes * static_cast<std::uint64_t>(w.nprocs) *
                        targets.size(),
                    eng.now(), eng.now());
          if (st.m_checkpoints) st.m_write_s->observe(eng.now() - t0);
          st.begin_productive(eng.now());
        }
        continue;
      }

      // -- asynchronous: stage a snapshot, drain in the background --------
      // Blocking cost = staging copy + waiting for this rank's previous
      // drain (one snapshot per rank in flight) + a full degrade to
      // blocking when the snapshot exceeds the rank's staging budget.
      auto& prev = prev_drain[static_cast<std::size_t>(r)];
      if (prev && !prev->done()) {
        co_await prev->join();
        if (r == 0) {
          st.rep.stage_wait += eng.now() - t0;
          if (st.m_stage_wait_s) st.m_stage_wait_s->observe(eng.now() - t0);
        }
      }

      std::shared_ptr<AsyncRec> rec;
      auto it = st.inflight.find(done_steps);
      if (it != st.inflight.end() && it->second->epoch == st.epoch) {
        rec = it->second;
      } else {
        rec = std::make_shared<AsyncRec>();
        rec->epoch = st.epoch;
        rec->step = done_steps;
        rec->prev_step = prev_step;
        rec->full = full;
        rec->per_rank_bytes = per_rank_bytes;
        rec->pending = w.nprocs;
        rec->issue_time = eng.now();
        if (!full) {
          rec->file = delta_file(k);
        } else if (st.chain.valid && st.chain.full_file == ckpt_file) {
          // Double-buffer: never target the committed full checkpoint.
          if (ckpt_file_b == pfs::kInvalidFile) {
            ckpt_file_b =
                create_ckpt_target("ckpt." + w.name + ".b", /*mirror=*/false);
          }
          rec->file = ckpt_file_b;
        } else {
          rec->file = ckpt_file;
        }
        if (w.backed_state) {
          rec->staged.resize(static_cast<std::size_t>(w.nprocs));
        }
        st.inflight[done_steps] = rec;
        if (st.ts_issue) {
          st.ts_issue->record(eng.now(), static_cast<double>(done_steps));
        }
      }

      // Stage: a timed memory copy into the bounded staging buffer.
      co_await machine.mem_copy(per_rank_bytes);
      if (w.backed_state) {
        rec->staged[static_cast<std::size_t>(r)] =
            full ? state[static_cast<std::size_t>(r)]
                 : gather_delta(r, prev_step, done_steps);
      }
      rec->snapshot_done = std::max(rec->snapshot_done, eng.now());
      st.note_staging(static_cast<std::int64_t>(per_rank_bytes));

      simkit::ProcHandle h = eng.spawn(
          drain_body(rec, r, node, rank_extents(w, r, full, per_rank_bytes)),
          "ckpt.drain." + w.name);
      prev = h;
      if (per_rank_bytes > rank_budget) {
        co_await h.join();  // budget exceeded: degrade to blocking
      }
      if (r == 0) st.rep.ckpt_overhead += eng.now() - t0;
      if (r == 0 && st.m_write_s) st.m_write_s->observe(eng.now() - t0);
    }
  };

  // -- drive: attempt / agree-on-failure / wait-out-outage / restart ------
  // Cluster::run keeps a reference to the body function until the ranks
  // finish; a named object (not a temporary at the call site) outlives it.
  const std::function<simkit::Task<void>(mprt::Comm&)> rank_body = body;
  for (;;) {
    st.failed = false;
    mprt::Cluster cluster(machine, w.nprocs);
    simkit::ProcHandle main =
        eng.spawn(cluster.run(rank_body), "ckpt." + w.name);
    // Step (not run): a full drain would also consume future fault edges
    // and fling the clock to the plan horizon.
    while (!main.done() && eng.step()) {
    }
    if (!main.done()) break;  // starved: a bug, surfaces as !completed
    if (!st.failed) {
      st.rep.completed = true;
      break;
    }
    st.rep.restarts += 1;
    if (st.m_restarts) st.m_restarts->inc();
    // In-flight drains belong to the attempt that just died: whatever they
    // commit from here on no longer matches the job's rollback decision,
    // so a new epoch sends them to the dropped pile.
    st.epoch += 1;
    if (st.rep.restarts > opt.max_restarts) break;
    if (injector) {
      // Sit out the remaining outage: the reboot edges are scheduled
      // events, so run_until lands the clock exactly on the last one.
      const simkit::Time up = injector->all_up_by(eng.now());
      if (up > eng.now()) {
        const simkit::Time t0 = eng.now();
        eng.run_until(up);
        st.rep.recovery_time += eng.now() - t0;
        if (st.m_recovery_s) st.m_recovery_s->observe(eng.now() - t0);
      }
    }
    // Decide whether the committed chain survived the scrubbing crashes
    // since commit, and route the next restore accordingly.  Pure plan
    // queries — with no scrubbing windows armed (every pre-domain plan)
    // this resolves to exactly the old behavior.
    if (injector && st.have_ckpt) {
      const simkit::Time now = eng.now();
      const int lost_before = st.rep.lost_checkpoints;
      auto scrubbed = [&](pfs::FileId f, simkit::Time since) {
        for (const std::uint32_t s : fs.stripe_map(f).server_list()) {
          if (injector->node_scrubbed_in(s, since, now)) return true;
        }
        // A writeback-loss window is a scrub in miniature: a plain crash
        // that destroyed acked-but-unflushed bytes of this copy after its
        // commit leaves the copy hollow, so the chain must not vouch for
        // it.  (ordered_drain never lands here — its commits fsync first,
        // so the loss precedes the commit and fails the agreement.)
        return fs.file_lost_in(f, since, now);
      };
      // A scrubbed delta truncates the replay chain at that link; the
      // links above it are unreachable and count as lost.
      for (std::size_t i = 0; i < st.chain.deltas.size(); ++i) {
        if (scrubbed(st.chain.deltas[i].file,
                     st.chain.deltas[i].commit_time)) {
          st.rep.lost_checkpoints +=
              static_cast<int>(st.chain.deltas.size() - i);
          st.chain.deltas.resize(i);
          st.ckpt_step = st.chain.deltas.empty()
                             ? st.chain.full_step
                             : st.chain.deltas.back().to_step;
          st.resume_step = st.ckpt_step;
          break;
        }
      }
      const bool primary_ok =
          !scrubbed(st.chain.full_file, st.chain.full_commit);
      const bool mirror_ok =
          mirror != pfs::kInvalidFile &&
          !scrubbed(mirror, st.chain.full_commit);
      if (!primary_ok && !mirror_ok) {
        // Every copy of the full checkpoint is gone: the whole chain is
        // unrestorable — back to step 0.
        st.rep.lost_checkpoints +=
            1 + static_cast<int>(st.chain.deltas.size());
        st.have_ckpt = false;
        st.ckpt_step = 0;
        st.resume_step = 0;
        st.chain = Chain{};
        st.restore_source = pfs::kInvalidFile;
        st.remirror_target = pfs::kInvalidFile;
        ckpt_retry.replica = mirror;
      } else if (primary_ok && mirror_ok) {
        st.restore_source = st.chain.full_file;
        ckpt_retry.replica = mirror;
        st.remirror_target = pfs::kInvalidFile;
        if (health) {
          // Both copies are whole: read the one whose servers look
          // healthier, keep the other as the fail-over/hedge target.
          const auto a = fs.stripe_map(st.chain.full_file).server_list();
          const auto b = fs.stripe_map(mirror).server_list();
          if (health->pick_healthier(a, b, now) == 1) {
            st.restore_source = mirror;
            ckpt_retry.replica = st.chain.full_file;
          }
        }
      } else {
        // One copy survived; nothing valid to fail over to.  Health-aware
        // recovery re-mirrors the scrubbed copy after the restore.
        const pfs::FileId good = primary_ok ? st.chain.full_file : mirror;
        const pfs::FileId bad = primary_ok ? mirror : st.chain.full_file;
        st.restore_source = good;
        ckpt_retry.replica = pfs::kInvalidFile;
        st.remirror_target =
            health && bad != pfs::kInvalidFile ? bad : pfs::kInvalidFile;
      }
      const int newly_lost = st.rep.lost_checkpoints - lost_before;
      if (newly_lost > 0) {
        if (metrics::Registry* reg = metrics::current()) {
          reg->counter("ckpt.lost_checkpoints")
              .inc(static_cast<std::uint64_t>(newly_lost));
        }
      }
    }
  }
  st.rep.exec_time = eng.now() - job_start;
  if (health) {
    st.rep.hedged_reads = health->hedges_issued();
    st.rep.hedge_wins = health->hedge_wins();
    st.rep.divergences_repaired =
        static_cast<int>(health->divergences_repaired());
  }

  // Drain leftover fault edges and background checkpoint drains so their
  // coroutine frames don't leak (they are finite processes; the
  // measurement above is already taken, so the clock moving to the plan
  // horizon is harmless — completions past this point count as dropped).
  eng.run();
  return st.rep;
}

double young_interval(double ckpt_cost_s, double mtbf_s) {
  if (ckpt_cost_s <= 0.0 || mtbf_s <= 0.0) return 0.0;
  return std::sqrt(2.0 * ckpt_cost_s * mtbf_s);
}

double young_daly_interval(double ckpt_cost_s, double mtbf_s) {
  if (ckpt_cost_s <= 0.0 || mtbf_s <= 0.0) return 0.0;
  if (ckpt_cost_s >= 2.0 * mtbf_s) return mtbf_s;
  const double x = ckpt_cost_s / (2.0 * mtbf_s);
  return std::sqrt(2.0 * ckpt_cost_s * mtbf_s) *
             (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
         ckpt_cost_s;
}

}  // namespace ckpt
