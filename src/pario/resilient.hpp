// pario/resilient.hpp — retry/backoff recovery over the striped FS.
//
// The fault layer rejects requests at a crashed I/O node with a typed
// pfs::IoError; this is the policy that decides recovery at the client:
//   - with a replica configured (a mirror file laid out on different
//     servers), the first failure on the primary fails over to the
//     replica stripe, free of backoff,
//   - otherwise, and for any failure after that, the operation is
//     retried up to max_attempts with exponential backoff in *simulated*
//     time (the classic congestion-polite ladder): a short outage is
//     survivable, a long one exhausts the ladder,
//   - an operation that exhausts its attempts rethrows the last IoError,
//     which is the checkpoint/restart layer's signal to roll back.
//
// A failed striped operation is re-issued in full.  Reads are idempotent
// and writes land whole stripe pieces, so the re-issue is safe; the
// repeated pieces cost simulated time, which is exactly the penalty a
// real client pays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pario/extent.hpp"
#include "pario/health.hpp"
#include "pfs/fs.hpp"
#include "simkit/task.hpp"

namespace pario {

struct RetryPolicy {
  int max_attempts = 4;            // total tries per operation (>= 1)
  double backoff_ms = 5.0;         // delay before the first retry
  double backoff_multiplier = 2.0; // exponential ladder
  /// Mirror file to fail over to on an IoError (same offsets).
  /// kInvalidFile (default) disables fail-over.
  pfs::FileId replica = pfs::kInvalidFile;
  /// Optional health feed: completions update the tracker's per-server
  /// EWMA latency and error scores, and failed-over writes land in its
  /// divergence ledger.  Null (default) observes nothing.
  HealthTracker* health = nullptr;
  /// Straggler hedging for reads: once the primary read has been
  /// outstanding for this multiple of the tracker's expected latency, the
  /// same range is re-issued against the replica and the first completion
  /// wins.  Requires `health` and `replica`; 0 (default) disables.  Never
  /// hedges before the tracker has latency samples.
  double hedge_latency_multiple = 0.0;

  /// Reject nonsensical configurations (max_attempts < 1, negative
  /// backoff, multiplier < 1, negative hedge multiple) with
  /// std::invalid_argument.  The resilient_* entry points call this
  /// before any simulated time elapses.
  void validate() const;
};

/// Per-callsite retry accounting.  The fields are the compatibility
/// accessor (readers across ckpt/exp/tests consume them directly); all
/// accounting flows through the note_* entry points below, which also
/// mirror every event into the installed metrics registry (pario.retry.*)
/// — there is exactly one place each counter is bumped.
struct RetryStats {
  std::uint64_t attempts = 0;   // operations issued (first tries + retries)
  std::uint64_t retries = 0;    // re-issues after a failure
  std::uint64_t failovers = 0;  // operations redirected to the replica
  std::uint64_t exhausted = 0;  // operations that gave up
  /// Writes that landed only on the replica because the primary's node
  /// was down.  Each one leaves the pair divergent: once the primary
  /// reboots, reading it returns stale bytes with no error.  Callers that
  /// read the primary later must reconcile (rewrite both copies, as the
  /// checkpoint engine does) whenever this is non-zero.
  std::uint64_t diverged_writes = 0;
  simkit::Duration backoff_time = 0.0;  // simulated time spent backing off

  void note_attempt();
  void note_retry(simkit::Duration backoff);
  /// `write` marks the redirected operation as a divergence-creating one.
  void note_failover(bool write);
  void note_exhausted();

  void merge(const RetryStats& o) {
    attempts += o.attempts;
    retries += o.retries;
    failovers += o.failovers;
    exhausted += o.exhausted;
    diverged_writes += o.diverged_writes;
    backoff_time += o.backoff_time;
  }
};

/// pread with retry/backoff/fail-over.  Throws pfs::IoError only after the
/// policy is exhausted, and std::invalid_argument immediately (before the
/// coroutine runs) on an invalid policy.  (Coroutine parameters are by
/// value, repo-wide; these wrappers validate eagerly, then delegate.)
simkit::Task<void> resilient_pread(pfs::StripedFs& fs, hw::NodeId client,
                                   pfs::FileId file, std::uint64_t offset,
                                   std::uint64_t len,
                                   std::span<std::byte> out,
                                   RetryPolicy policy,
                                   RetryStats* stats = nullptr);

/// pwrite with retry/backoff/fail-over.  On an IoError the write is
/// redirected to the replica ONLY — the primary is left untouched and
/// becomes stale once its node reboots (counted in
/// RetryStats::diverged_writes).  Callers that later read the primary must
/// reconcile the pair themselves, e.g. by rewriting both copies on the
/// next update as the checkpoint engine does.
simkit::Task<void> resilient_pwrite(pfs::StripedFs& fs, hw::NodeId client,
                                    pfs::FileId file, std::uint64_t offset,
                                    std::uint64_t len,
                                    std::span<const std::byte> data,
                                    RetryPolicy policy,
                                    RetryStats* stats = nullptr);

/// Vectored resilient pwrite: issues one resilient_pwrite per piece, in
/// order, from a single staged buffer (`data` may be empty for timing-only
/// files; a piece's `buf_offset` indexes it).  This is the background
/// checkpoint drain's write path — an independent per-client stream of
/// large calls that contends with foreground I/O at the I/O nodes; it
/// deliberately does NOT aggregate across clients (no collective — the
/// caller may be a detached task).
/// Throws the first piece's exhausted pfs::IoError; earlier pieces stay
/// written (idempotent re-issue is the caller's rollback story).
simkit::Task<void> resilient_pwritev(pfs::StripedFs& fs, hw::NodeId client,
                                     pfs::FileId file,
                                     std::vector<Extent> pieces,
                                     std::span<const std::byte> data,
                                     RetryPolicy policy,
                                     RetryStats* stats = nullptr);

/// Durability barrier with retry/backoff: drains every acked-but-buffered
/// block of `file` to disk at its servers (pfs::StripedFs::fsync) and
/// completes only when the drain reports clean.  This is the client-side
/// entry point of the ordered_drain durability policy — the checkpoint
/// engine calls it before declaring a commit durable.  A drain failure
/// (a node crash mid-drain) is retried on the same file up to the
/// policy's ladder; fsync never fails over to the replica, because a
/// replica drain cannot make the *primary's* acked bytes durable.  Throws
/// the last pfs::IoError once the ladder is exhausted.
simkit::Task<void> resilient_fsync(pfs::StripedFs& fs, hw::NodeId client,
                                   pfs::FileId file, RetryPolicy policy,
                                   RetryStats* stats = nullptr);

/// Reconcile every range in the tracker's divergence ledger: re-read the
/// authoritative replica copy and rewrite the stale primary, through the
/// same resilient policy.  Counts repairs in the tracker.  The ledger is
/// drained up front; ranges whose repair itself exhausts the policy are
/// NOT re-queued (the next diverged write will re-report them).
simkit::Task<void> repair_divergences(pfs::StripedFs& fs, hw::NodeId client,
                                      HealthTracker& health,
                                      RetryPolicy policy,
                                      RetryStats* stats = nullptr);

}  // namespace pario
