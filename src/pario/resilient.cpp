#include "pario/resilient.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "metrics/metrics.hpp"
#include "simkit/trigger.hpp"

namespace pario {

void RetryPolicy::validate() const {
  if (max_attempts < 1) {
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  }
  if (backoff_ms < 0.0) {
    throw std::invalid_argument("RetryPolicy: backoff_ms must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    throw std::invalid_argument(
        "RetryPolicy: backoff_multiplier must be >= 1");
  }
  if (hedge_latency_multiple < 0.0) {
    throw std::invalid_argument(
        "RetryPolicy: hedge_latency_multiple must be >= 0");
  }
}

void RetryStats::note_attempt() {
  ++attempts;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.retry.attempts").inc();
  }
}

void RetryStats::note_retry(simkit::Duration backoff) {
  ++retries;
  backoff_time += backoff;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.retry.retries").inc();
    r->histogram("pario.retry.backoff_s").observe(backoff);
  }
}

void RetryStats::note_failover(bool write) {
  ++failovers;
  if (write) ++diverged_writes;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.retry.failovers").inc();
    if (write) r->counter("pario.retry.diverged_writes").inc();
  }
}

void RetryStats::note_exhausted() {
  ++exhausted;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.retry.exhausted").inc();
  }
}

namespace {

/// Distinct I/O servers a byte range of `file` touches.
std::vector<std::uint32_t> range_servers(pfs::StripedFs& fs,
                                         pfs::FileId file,
                                         std::uint64_t offset,
                                         std::uint64_t len) {
  std::vector<std::uint32_t> out;
  for (const pfs::StripePiece& p : fs.stripe_map(file).split(offset, len)) {
    if (std::find(out.begin(), out.end(), p.server) == out.end()) {
      out.push_back(p.server);
    }
  }
  return out;
}

void feed_success(HealthTracker* health, pfs::StripedFs& fs,
                  pfs::FileId file, std::uint64_t offset, std::uint64_t len,
                  simkit::Time now, simkit::Duration latency) {
  if (!health) return;
  for (const std::uint32_t s : range_servers(fs, file, offset, len)) {
    health->note_success(s, now, latency);
  }
}

/// Shared scoreboard of one hedged read.  Heap-allocated and owned by
/// every spawned leg via shared_ptr: the loser leg (and the deadline
/// timer) may outlive the winning co_await, so nothing here can live on
/// the awaiting coroutine's frame.
struct HedgeState {
  simkit::Trigger primary_done;
  simkit::Trigger hedge_done;
  simkit::Trigger wake1;  // primary completion or deadline
  simkit::Trigger wake2;  // any leg's completion
  bool primary_ok = false;
  bool hedge_ok = false;
  std::exception_ptr primary_err;
  std::exception_ptr hedge_err;
};

/// One leg of a hedged read.  Detached: catches everything (an unjoined
/// throwing process would abort the engine) and reports via the state.
simkit::Task<void> hedge_leg(pfs::StripedFs* fs, hw::NodeId client,
                             pfs::FileId file, std::uint64_t offset,
                             std::uint64_t len, std::span<std::byte> out,
                             HealthTracker* health,
                             std::shared_ptr<HedgeState> st, bool is_hedge) {
  simkit::Engine& eng = fs->machine().engine();
  const simkit::Time t0 = eng.now();
  try {
    co_await fs->pread(client, file, offset, len, out);
    (is_hedge ? st->hedge_ok : st->primary_ok) = true;
    feed_success(health, *fs, file, offset, len, eng.now(), eng.now() - t0);
  } catch (const pfs::IoError& e) {
    (is_hedge ? st->hedge_err : st->primary_err) = std::current_exception();
    if (health) health->note_error(e.io_node(), eng.now());
  } catch (...) {
    (is_hedge ? st->hedge_err : st->primary_err) = std::current_exception();
  }
  (is_hedge ? st->hedge_done : st->primary_done).fire(eng);
}

simkit::Task<void> watch_primary(simkit::Engine* eng,
                                 std::shared_ptr<HedgeState> st) {
  co_await st->primary_done.wait();
  st->wake1.fire(*eng);
  st->wake2.fire(*eng);
}

simkit::Task<void> watch_hedge(simkit::Engine* eng,
                               std::shared_ptr<HedgeState> st) {
  co_await st->hedge_done.wait();
  st->wake2.fire(*eng);
}

simkit::Task<void> hedge_deadline(simkit::Engine* eng, simkit::Duration d,
                                  std::shared_ptr<HedgeState> st) {
  co_await eng->delay(d);
  st->wake1.fire(*eng);
}

/// Straggler-hedged read: issue the primary, and if it is still
/// outstanding past `deadline`, race the replica copy against it.  The
/// first successful completion wins; if one leg fails the other is
/// awaited before giving up.  Rethrows the primary's error when both
/// legs fail, so the caller's retry ladder classifies it as usual.
simkit::Task<void> hedged_read(pfs::StripedFs& fs, hw::NodeId client,
                               pfs::FileId file, pfs::FileId replica,
                               std::uint64_t offset, std::uint64_t len,
                               std::span<std::byte> out,
                               HealthTracker* health,
                               simkit::Duration deadline) {
  simkit::Engine& eng = fs.machine().engine();
  auto st = std::make_shared<HedgeState>();
  eng.spawn(hedge_leg(&fs, client, file, offset, len, out, health, st,
                      /*is_hedge=*/false),
            "hedge_primary");
  eng.spawn(watch_primary(&eng, st), "hedge_watch");
  eng.spawn(hedge_deadline(&eng, deadline, st), "hedge_timer");
  co_await st->wake1.wait();
  if (!st->primary_done.fired()) {
    health->note_hedge_issued();
    eng.spawn(hedge_leg(&fs, client, replica, offset, len, out, health, st,
                        /*is_hedge=*/true),
              "hedge_replica");
    eng.spawn(watch_hedge(&eng, st), "hedge_watch");
    co_await st->wake2.wait();
    if (st->hedge_done.fired() && !st->primary_done.fired()) {
      // Replica finished first.  On success that's the hedge paying off;
      // on failure fall back to the still-running primary.
      if (st->hedge_ok) {
        health->note_hedge_win();
        co_return;
      }
      co_await st->primary_done.wait();
    } else {
      if (st->primary_ok) {
        health->note_hedge_loss();
        co_return;
      }
      co_await st->hedge_done.wait();
      if (st->hedge_ok) health->note_hedge_win();
    }
  }
  if (st->primary_ok || st->hedge_ok) co_return;
  std::rethrow_exception(st->primary_err ? st->primary_err : st->hedge_err);
}

/// The retry ladder every entry point runs: kRead and kWrite move
/// [offset, offset + len), kFlush is the file's fsync barrier.
simkit::Task<void> resilient_op(pfs::OpKind kind, pfs::StripedFs& fs,
                                hw::NodeId client, pfs::FileId file,
                                std::uint64_t offset, std::uint64_t len,
                                std::span<std::byte> out,
                                std::span<const std::byte> in,
                                RetryPolicy policy, RetryStats* stats) {
  simkit::Engine& eng = fs.machine().engine();
  pfs::FileId target = file;
  double delay_ms = policy.backoff_ms;
  // Callers without their own stats still feed the metrics registry: the
  // note_* entry points are the single accounting site either way.
  RetryStats local;
  if (!stats) stats = &local;
  for (int attempt = 1;; ++attempt) {
    // co_await is illegal inside a catch handler, so the handler only
    // classifies the failure and the backoff sleep happens after it.
    bool backoff = false;
    // Hedge only reads of the primary with a live latency estimate: an
    // estimate of 0 means the tracker hasn't seen a completion yet.
    bool hedged = false;
    double est = 0.0;
    if (kind == pfs::OpKind::kRead && policy.health &&
        policy.hedge_latency_multiple > 0.0 &&
        policy.replica != pfs::kInvalidFile && target == file && len > 0) {
      est = policy.health->expected_latency(
          range_servers(fs, target, offset, len));
      // A hedge is a bet that the replica is fast; a freshly rebooted
      // replica server has a cold cache (and maybe a journal replay in
      // flight), so the bet is off while any of its servers recovers.
      hedged = est > 0.0 &&
               !policy.health->any_recovering(
                   range_servers(fs, policy.replica, offset, len), eng.now());
    }
    try {
      stats->note_attempt();
      const simkit::Time t0 = eng.now();
      if (hedged) {
        co_await hedged_read(fs, client, file, policy.replica, offset, len,
                             out, policy.health,
                             est * policy.hedge_latency_multiple);
      } else if (kind == pfs::OpKind::kRead) {
        co_await fs.pread(client, target, offset, len, out);
        feed_success(policy.health, fs, target, offset, len, eng.now(),
                     eng.now() - t0);
      } else if (kind == pfs::OpKind::kFlush) {
        // A barrier's latency says nothing about one request's service
        // time, so it feeds the tracker no success.
        co_await fs.fsync(client, target);
      } else {
        co_await fs.pwrite(client, target, offset, len, in);
        feed_success(policy.health, fs, target, offset, len, eng.now(),
                     eng.now() - t0);
      }
      co_return;
    } catch (const pfs::IoError& e) {
      // Hedged legs feed the tracker themselves; feeding here again
      // would double-count the same failure.
      if (!hedged && policy.health) {
        policy.health->note_error(e.io_node(), eng.now());
      }
      // A down node under the primary: switch to the replica stripe once
      // (it lives on different servers, so it can survive the same crash).
      if (policy.replica != pfs::kInvalidFile && target == file) {
        target = policy.replica;
        // A redirected write never reaches the primary: the pair is now
        // divergent (see RetryStats::diverged_writes); the tracker's
        // ledger remembers the range so repair_divergences can heal it.
        stats->note_failover(kind == pfs::OpKind::kWrite);
        if (kind == pfs::OpKind::kWrite && policy.health) {
          policy.health->note_divergence(
              {file, policy.replica, offset, len});
        }
        // The fail-over try is free of backoff.
      } else if (attempt >= policy.max_attempts) {
        stats->note_exhausted();
        throw;
      } else {
        stats->note_retry(simkit::milliseconds(delay_ms));
        backoff = true;
      }
    }
    if (backoff) {
      co_await eng.delay(simkit::milliseconds(delay_ms));
      delay_ms *= policy.backoff_multiplier;
    }
  }
}

simkit::Task<void> pwritev_impl(pfs::StripedFs& fs, hw::NodeId client,
                                pfs::FileId file,
                                std::vector<Extent> pieces,
                                std::span<const std::byte> data,
                                RetryPolicy policy, RetryStats* stats) {
  for (const Extent& p : pieces) {
    std::span<const std::byte> slice;
    if (!data.empty()) {
      slice = data.subspan(static_cast<std::size_t>(p.buf_offset),
                           static_cast<std::size_t>(p.length));
    }
    co_await resilient_op(pfs::OpKind::kWrite, fs, client, file,
                          p.file_offset, p.length, {}, slice, policy, stats);
  }
}

simkit::Task<void> repair_impl(pfs::StripedFs& fs, hw::NodeId client,
                               HealthTracker* health, RetryPolicy policy,
                               RetryStats* stats) {
  const std::vector<HealthTracker::Divergence> ledger =
      health->take_divergences();
  for (const HealthTracker::Divergence& d : ledger) {
    // The replica is authoritative for a diverged range; content-backed
    // pairs move real bytes, timing-only pairs just pay the I/O time.
    std::vector<std::byte> buf;
    std::span<std::byte> rd;
    std::span<const std::byte> wr;
    if (fs.is_backed(d.replica)) {
      buf.resize(static_cast<std::size_t>(d.length));
      rd = buf;
      wr = buf;
    }
    co_await resilient_op(pfs::OpKind::kRead, fs, client, d.replica,
                          d.offset, d.length, rd, {}, policy, stats);
    co_await resilient_op(pfs::OpKind::kWrite, fs, client, d.primary,
                          d.offset, d.length, {}, wr, policy, stats);
    health->note_repaired();
  }
}

}  // namespace

// The public entry points are deliberately NOT coroutines: they validate
// the policy (throwing std::invalid_argument synchronously, before any
// simulated time can pass) and return the inner coroutine's task.

simkit::Task<void> resilient_pread(pfs::StripedFs& fs, hw::NodeId client,
                                   pfs::FileId file, std::uint64_t offset,
                                   std::uint64_t len,
                                   std::span<std::byte> out,
                                   RetryPolicy policy, RetryStats* stats) {
  policy.validate();
  return resilient_op(pfs::OpKind::kRead, fs, client, file, offset, len,
                      out, {}, policy, stats);
}

simkit::Task<void> resilient_pwrite(pfs::StripedFs& fs, hw::NodeId client,
                                    pfs::FileId file, std::uint64_t offset,
                                    std::uint64_t len,
                                    std::span<const std::byte> data,
                                    RetryPolicy policy, RetryStats* stats) {
  policy.validate();
  return resilient_op(pfs::OpKind::kWrite, fs, client, file, offset, len,
                      {}, data, policy, stats);
}

simkit::Task<void> resilient_pwritev(pfs::StripedFs& fs, hw::NodeId client,
                                     pfs::FileId file,
                                     std::vector<Extent> pieces,
                                     std::span<const std::byte> data,
                                     RetryPolicy policy, RetryStats* stats) {
  policy.validate();
  return pwritev_impl(fs, client, file, std::move(pieces), data, policy,
                      stats);
}

simkit::Task<void> resilient_fsync(pfs::StripedFs& fs, hw::NodeId client,
                                   pfs::FileId file, RetryPolicy policy,
                                   RetryStats* stats) {
  policy.validate();
  // Draining the replica cannot make the primary durable: no fail-over.
  policy.replica = pfs::kInvalidFile;
  return resilient_op(pfs::OpKind::kFlush, fs, client, file, 0, 0, {}, {},
                      policy, stats);
}

simkit::Task<void> repair_divergences(pfs::StripedFs& fs, hw::NodeId client,
                                      HealthTracker& health,
                                      RetryPolicy policy,
                                      RetryStats* stats) {
  policy.validate();
  // Repair must not fail over or hedge: redirecting the primary rewrite
  // back to the replica would "heal" nothing.
  policy.replica = pfs::kInvalidFile;
  policy.hedge_latency_multiple = 0.0;
  return repair_impl(fs, client, &health, policy, stats);
}

}  // namespace pario
