// sched/platform.hpp — run a multi-tenant job stream on one machine.
//
// This is the platform-economics layer the ROADMAP's "heavy traffic"
// north star asks for: a queue of JobClass instances contending for a
// finite compute partition and ONE shared pfs::StripedFs.  Each running
// job is a restartable, preemptible unit — steps of (compute + step I/O)
// with coordinated checkpoints under its class's ckpt::Policy, rollback
// to the last committed checkpoint when an injected fault defeats the
// retry ladder, and re-execution of the lost steps.
//
// The experiment the layer exists for is platform-level I/O
// coordination, in the spirit of Herault et al.'s cooperative
// checkpointing for shared HPC platforms:
//   - kFreeForAll:   every job hits the PFS whenever it likes; bursts of
//                    simultaneous checkpoints grind everyone down.
//   - kOrderedSlots: heavy I/O phases (step dumps AND checkpoints) pass
//                    through a small FIFO slot pool, so the disk system
//                    always sees a few streaming clients, never a mob.
//   - kCooperative:  checkpoints specifically are platform-scheduled —
//                    at most one job checkpoints at a time, and a job
//                    whose slot is taken KEEPS COMPUTING and checkpoints
//                    at its next step boundary (deferral, not blocking).
// The headline metric is platform waste: node-seconds held by jobs while
// not making forward progress (checkpoint stalls, slot waits, rolled-back
// work, recovery).  Queue wait costs users, waste costs the platform.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "hw/machine.hpp"
#include "pario/resilient.hpp"
#include "pfs/fs.hpp"
#include "sched/job.hpp"
#include "sched/queue.hpp"
#include "simkit/time.hpp"

namespace sched {

enum class Coordination : std::uint8_t {
  kFreeForAll,
  kOrderedSlots,
  kCooperative,
};

const char* to_string(Coordination c);

struct PlatformOptions {
  Discipline discipline = Discipline::kFcfs;
  Coordination coordination = Coordination::kFreeForAll;
  /// Retry/backoff policy for all job I/O (step, checkpoint, restore).
  pario::RetryPolicy retry;
};

/// Everything measured about one job's life on the platform.
struct JobOutcome {
  Job job;
  simkit::Time start_time = 0.0;   // allocation instant
  simkit::Time finish_time = 0.0;
  double ideal_runtime_s = 0.0;    // contention-free estimate (denominator)
  simkit::Duration queue_wait = 0.0;
  simkit::Duration productive = 0.0;    // step time that survived rollbacks
  simkit::Duration ckpt_blocked = 0.0;  // stalls inside checkpointing
  simkit::Duration ckpt_wait = 0.0;     // cooperative deferral span
  simkit::Duration io_slot_wait = 0.0;  // ordered-slot queueing
  simkit::Duration lost_work = 0.0;     // productive time discarded
  simkit::Duration recovery = 0.0;      // outage wait + restore reads
  std::uint64_t ckpt_bytes = 0;
  int checkpoints = 0;          // committed (full + delta)
  int dropped_checkpoints = 0;  // async drains that failed or went stale
  int ckpt_deferrals = 0;       // cooperative boundary skips
  int restarts = 0;
  bool completed = false;

  /// Turnaround over ideal runtime — the user-facing inflation factor.
  double stretch() const {
    return ideal_runtime_s > 0.0
               ? (finish_time - job.arrival) / ideal_runtime_s
               : 0.0;
  }
  /// Execution over ideal runtime — inflation excluding queue wait.
  double slowdown() const {
    return ideal_runtime_s > 0.0
               ? (finish_time - start_time) / ideal_runtime_s
               : 0.0;
  }
};

struct PlatformReport {
  std::vector<JobOutcome> jobs;  // by job id
  int completed_jobs = 0;
  simkit::Time makespan = 0.0;   // last finish time
  /// Node-seconds: held = nodes x (finish - start); productive = nodes x
  /// productive step time; wasted = held - productive.  Waste is the
  /// platform-level bill for checkpoint stalls, slot waits, lost work,
  /// and recovery.
  double held_node_s = 0.0;
  double productive_node_s = 0.0;
  double wasted_node_s = 0.0;
  /// Pure compute node-seconds (nodes x steps x step compute time),
  /// fixed by the job mix alone.  Unlike productive_node_s — which
  /// folds in step I/O time, crediting a slow I/O system — this is
  /// invariant across I/O configurations, so "capacity minus compute"
  /// comparisons attribute platform waste to the I/O path honestly.
  double compute_node_s = 0.0;
  /// productive_node_s / (compute_nodes x makespan).
  double utilization = 0.0;
  // Aggregates over completed jobs.
  double mean_stretch = 0.0;
  double p95_stretch = 0.0;
  double mean_slowdown = 0.0;
  double mean_queue_wait_s = 0.0;
  double mean_ckpt_wait_s = 0.0;
  simkit::Duration total_ckpt_blocked = 0.0;
  simkit::Duration total_lost_work = 0.0;
  simkit::Duration total_recovery = 0.0;
  std::uint64_t total_ckpt_bytes = 0;
  int total_restarts = 0;
  int total_deferrals = 0;
  int total_dropped = 0;
  pario::RetryStats retry;  // aggregated over all job I/O
  // I/O-server cache behaviour aggregated over every node of the shared
  // PFS at end of run — the platform-level view of the iosrv knobs
  // (replacement policy, read-ahead) under multi-tenant interference.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t readahead_issued = 0;
  std::uint64_t readahead_hits = 0;       // includes late joins
  std::uint64_t readahead_waste = 0;
  // Crash-consistency aggregates (all zero unless the servers run with
  // durability.crash_semantics and the plan actually crashes one): the
  // platform-level bill for write-behind's loss windows and the work the
  // durable policies do to avoid them.
  std::uint64_t lost_dirty_blocks = 0;    // acked writes destroyed by crashes
  std::uint64_t lost_bytes = 0;           // payload of those writes
  std::uint64_t readahead_cancelled = 0;  // prefetches killed mid-flight
  std::uint64_t cache_invalidations = 0;  // whole-cache drops at crash edges
  std::uint64_t journal_appends = 0;      // redo-log appends (kJournaled)
  std::uint64_t journal_replayed = 0;     // blocks re-written by replay
  // Client-visible seconds blocked on durable-ack machinery (sync
  // in-place writes, journal appends, drain barriers) summed over all
  // I/O nodes — the direct price of the durability contract.
  double durability_wait_s = 0.0;

  double cache_hit_rate() const {
    const double total =
        static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// Run the job stream to completion on the given machine/file system.
/// `injector` may be null (fault-free platform); when set it must be the
/// injector the StripedFs was built with.  Jobs must be sorted by
/// arrival time (as sched::generate emits them).  Fully deterministic:
/// everything runs on the machine's engine, and the engine is stepped
/// only until the last job finishes (fault edges beyond that are left
/// unconsumed).
PlatformReport run(hw::Machine& machine, pfs::StripedFs& fs,
                   fault::Injector* injector, std::vector<Job> jobs,
                   const PlatformOptions& opt);

}  // namespace sched
