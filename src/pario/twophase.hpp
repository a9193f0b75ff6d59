// pario/twophase.hpp — two-phase (collective) I/O, after Thakur et al.'s
// PASSION library [10] and the collective I/O used to optimize BTIO & AST.
//
// Idea: when P processes each need scattered pieces of a shared file,
// don't let each process issue many small, seek-heavy requests.  Instead
// (1) partition the accessed file range into P contiguous, stripe-aligned
// "file domains", one per process; (2) each process performs few large
// sequential I/O calls covering its domain; (3) the processes redistribute
// the data among themselves over the interconnect (alltoallv).  Trading
// interconnect traffic for I/O calls wins because per-call software cost
// and disk seeks dominate small scattered access.
//
// One engine serves every collective topology.  A per-call plan decides
// who aggregates (every rank, the first `aggregators` ranks, or the group
// leaders under kTwoLevel) and how an aggregator learns each rank's
// pieces (a replicated extent table, or records shipped inline with the
// data); the phases themselves are shared.
//
// This is a real implementation: with data-backed files and buffers it
// moves actual bytes (tests check byte-exactness against direct access);
// without them the same code paths run timing-only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mprt/comm.hpp"
#include "pario/extent.hpp"
#include "pario/resilient.hpp"
#include "pfs/fs.hpp"
#include "simkit/task.hpp"

namespace pario {

struct TwoPhaseStats {
  simkit::Duration io_time = 0.0;        // phase 1 (file system)
  simkit::Duration exchange_time = 0.0;  // phase 2 (interconnect + copies)
  std::uint64_t io_calls = 0;
  std::uint64_t io_bytes = 0;
};

struct TwoPhaseOptions {
  /// Number of aggregator processes performing the file I/O (ROMIO's
  /// cb_nodes).  0 = every rank aggregates (the default).  Fewer
  /// aggregators concentrate the file traffic — useful when ranks far
  /// outnumber I/O nodes.
  ///
  /// This picks the flat plan's aggregators, used under the kFlat
  /// topology.  It is ignored under kTwoLevel, whose plan makes the
  /// topology's group LEADERS the aggregators: the rank->aggregator data
  /// motion rides the leader routing, and the replicated O(P) extent
  /// table gives way to a bounds allreduce plus inline sub-extent records
  /// (DESIGN.md §16).
  int aggregators = 0;

  /// Retry/backoff policy for the aggregators' file I/O (fault runs).
  /// When an aggregator exhausts the policy, it FINISHES the message
  /// protocol first (so no rank deadlocks inside the collective) and
  /// rethrows the pfs::IoError after its barrier/exchange — callers
  /// coordinate the failure with an agreement collective of their own.
  /// Null (default) = direct FS calls, errors propagate immediately.
  const RetryPolicy* retry = nullptr;
  RetryStats* retry_stats = nullptr;
};

class TwoPhase {
 public:
  /// Collective write: every rank of `comm` calls this with its own piece
  /// list (`mine`, buf_offsets indexing `local_data`).  Blocks until the
  /// rank's share of the collective completes.
  static simkit::Task<void> write(mprt::Comm& comm, pfs::StripedFs& fs,
                                  pfs::FileId file, std::vector<Extent> mine,
                                  std::span<const std::byte> local_data = {},
                                  TwoPhaseStats* stats = nullptr,
                                  TwoPhaseOptions options = {});

  /// Collective read: scattered pieces land in `local_out` at their
  /// buf_offsets.
  static simkit::Task<void> read(mprt::Comm& comm, pfs::StripedFs& fs,
                                 pfs::FileId file, std::vector<Extent> mine,
                                 std::span<std::byte> local_out = {},
                                 TwoPhaseStats* stats = nullptr,
                                 TwoPhaseOptions options = {});

  // -- exposed for tests ---------------------------------------------------

  /// Intersect (sorted) pieces with [lo, hi), preserving order and buffer
  /// mapping.
  static std::vector<Extent> intersect(std::span<const Extent> pieces,
                                       std::uint64_t lo, std::uint64_t hi);

  /// Union of file ranges as maximal disjoint runs (overlaps/adjacency
  /// merged); buf_offset of the result is meaningless.
  static std::vector<Extent> merge_runs(std::vector<Extent> pieces);
};

}  // namespace pario
