#include "sched/platform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <memory>
#include <string>

#include "iosrv/config.hpp"
#include "metrics/metrics.hpp"
#include "simkit/combinators.hpp"
#include "simkit/engine.hpp"
#include "simkit/resource.hpp"

namespace sched {

const char* to_string(Coordination c) {
  switch (c) {
    case Coordination::kFreeForAll: return "free_for_all";
    case Coordination::kOrderedSlots: return "ordered_slots";
    case Coordination::kCooperative: return "cooperative";
  }
  return "?";
}

namespace {

/// Concurrent heavy-I/O phases platform-wide under kOrderedSlots.
constexpr std::uint64_t kIoSlots = 2;
/// Backfill reservations pad each job's ideal runtime by this margin
/// (real schedulers' user estimates are padded, too).
constexpr double kEstimateMargin = 1.5;
/// A job whose restarts exceed this gives up (completed=false).
constexpr int kMaxRestarts = 16;

/// Per-job runtime state while it is queued/running.
struct JobRt {
  Job job;
  JobOutcome out;
  std::vector<std::uint32_t> nodes;  // allocated compute-node indices
  pfs::FileId data_file = pfs::kInvalidFile;
  pfs::FileId ckpt_file = pfs::kInvalidFile;
  int step = 0;            // next step to execute
  int committed_step = 0;  // rollback target (0 = job start)
  int next_ckpt_step = 0;  // boundary at which a checkpoint is due
  int ckpt_seq = 0;        // checkpoints attempted (drives full_every)
  int epoch = 0;           // rollback epoch; stale drains must not commit
  simkit::Time ckpt_due_at = -1.0;  // first boundary the pending ckpt hit
  simkit::ProcHandle drain;         // async: previous checkpoint's drain
  bool drain_pending = false;
  /// Per-step productive (compute + step I/O) durations of the current
  /// attempt; rolled-back entries move into out.lost_work.
  std::vector<simkit::Duration> step_productive;
};

struct State {
  simkit::Engine& eng;
  hw::Machine& machine;
  pfs::StripedFs& fs;
  fault::Injector* injector;
  const PlatformOptions& opt;
  NodeAllocator alloc;
  std::vector<std::unique_ptr<JobRt>> rts = {};  // by job id
  std::deque<JobRt*> pending = {};               // arrival order
  std::vector<JobRt*> running = {};
  int unfinished = 0;
  std::unique_ptr<simkit::Resource> io_slots = {};  // kOrderedSlots only
  bool ckpt_token_busy = false;                     // kCooperative only
  pario::RetryStats retry = {};

  /// Under the ordered_drain durability policy every checkpoint write is
  /// followed by an fsync barrier before the commit is recorded, so a
  /// later server crash cannot hollow out a committed checkpoint.
  bool ordered_drain() const {
    return fs.params().server.durability.policy ==
           iosrv::DurabilityPolicy::kOrderedDrain;
  }
};

/// One fsync of the job's checkpoint file, issued from its first node
/// (the barrier drains the file's servers; repeating it per node would
/// just re-check an already clean file).
simkit::Task<void> ckpt_fsync(State& st, JobRt& rt) {
  co_await pario::resilient_fsync(st.fs,
                                  st.machine.compute_node(rt.nodes[0]),
                                  rt.ckpt_file, st.opt.retry, &st.retry);
}

simkit::Time est_finish(const JobRt& rt) {
  return rt.out.start_time + rt.out.ideal_runtime_s * kEstimateMargin;
}

void schedule(State& st);

/// One node's share of a heavy I/O phase, through the retry ladder.
simkit::Task<void> node_io(State& st, pfs::FileId file, hw::NodeId client,
                           std::uint64_t offset, std::uint64_t len,
                           bool read) {
  if (read) {
    co_await pario::resilient_pread(st.fs, client, file, offset, len, {},
                                    st.opt.retry, &st.retry);
  } else {
    co_await pario::resilient_pwrite(st.fs, client, file, offset, len, {},
                                     st.opt.retry, &st.retry);
  }
}

/// Fan `per_node` bytes out to one op per allocated node and join them
/// all (every spawned task is joined even when one fails, so no error
/// goes unconsumed); rethrows the first failure afterwards.
simkit::Task<void> fan_out(State& st, JobRt& rt, pfs::FileId file,
                           std::uint64_t base_offset, std::uint64_t per_node,
                           std::uint64_t stride, bool read) {
  std::vector<simkit::Task<void>> ops;
  ops.reserve(rt.nodes.size());
  for (std::size_t i = 0; i < rt.nodes.size(); ++i) {
    const hw::NodeId client = st.machine.compute_node(rt.nodes[i]);
    ops.push_back(
        node_io(st, file, client, base_offset + i * stride, per_node, read));
  }
  return simkit::when_all(st.eng, std::move(ops));
}

/// The step's application I/O: SCF-style jobs re-read their input slice,
/// dump-style jobs append a fresh region per step.  Under kOrderedSlots
/// the whole phase passes through the platform slot pool.
simkit::Task<void> step_io(State& st, JobRt& rt) {
  const JobClass& k = rt.job.klass;
  const std::uint64_t bytes = k.io_bytes_per_node_step;
  const std::uint64_t job_step_bytes = bytes * rt.nodes.size();
  const std::uint64_t base =
      k.step_io_reads ? 0
                      : static_cast<std::uint64_t>(rt.step) * job_step_bytes;
  const bool slotted = st.io_slots != nullptr;
  if (slotted) {
    const simkit::Time t0 = st.eng.now();
    co_await st.io_slots->acquire();
    rt.out.io_slot_wait += st.eng.now() - t0;
  }
  std::exception_ptr err;
  try {
    co_await fan_out(st, rt, rt.data_file, base, bytes, bytes,
                     k.step_io_reads);
  } catch (const pfs::IoError&) {
    err = std::current_exception();
  }
  if (slotted) st.io_slots->release();
  if (err) std::rethrow_exception(err);
}

/// Background drain of an async checkpoint snapshot.  Never fails as a
/// process: I/O errors turn into a dropped checkpoint.  Commits only if
/// the job has not rolled back since the snapshot (epoch match).
simkit::Task<void> drain_body(State& st, JobRt& rt, int epoch, int ckpt_step,
                              std::uint64_t per_node) {
  const bool slotted = st.io_slots != nullptr;
  if (slotted) co_await st.io_slots->acquire();
  bool ok = true;
  try {
    co_await fan_out(st, rt, rt.ckpt_file, 0, per_node,
                     rt.job.klass.state_bytes_per_node, /*read=*/false);
    if (st.ordered_drain()) co_await ckpt_fsync(st, rt);
  } catch (const pfs::IoError&) {
    ok = false;
  }
  if (slotted) st.io_slots->release();
  if (ok && rt.epoch == epoch) {
    rt.committed_step = ckpt_step;
    rt.out.checkpoints += 1;
    rt.out.ckpt_bytes += per_node * rt.nodes.size();
  } else {
    rt.out.dropped_checkpoints += 1;
  }
  if (st.opt.coordination == Coordination::kCooperative) {
    st.ckpt_token_busy = false;
  }
}

/// Write one coordinated checkpoint (the platform token, when any, is
/// already held by the caller).  Sync: ranks block through the resilient
/// collective write.  Async: ranks block only for the staging copy; a
/// background drain does the writing and commits on completion.
simkit::Task<void> do_checkpoint(State& st, JobRt& rt) {
  const JobClass& k = rt.job.klass;
  const bool full = k.policy.full_at(rt.ckpt_seq);
  const std::uint64_t per_node =
      full ? k.state_bytes_per_node
           : std::max<std::uint64_t>(
                 1, static_cast<std::uint64_t>(
                        static_cast<double>(k.state_bytes_per_node) *
                        k.dirty_fraction));
  const int ckpt_step = rt.step;
  const simkit::Time t0 = st.eng.now();
  rt.ckpt_seq += 1;
  rt.next_ckpt_step = rt.step + k.ckpt_interval_steps;

  if (k.policy.write == ckpt::Policy::Write::kSync) {
    const bool slotted = st.io_slots != nullptr;
    if (slotted) co_await st.io_slots->acquire();
    std::exception_ptr err;
    try {
      co_await fan_out(st, rt, rt.ckpt_file, 0, per_node,
                       k.state_bytes_per_node, /*read=*/false);
      if (st.ordered_drain()) co_await ckpt_fsync(st, rt);
    } catch (const pfs::IoError&) {
      err = std::current_exception();
    }
    if (slotted) st.io_slots->release();
    rt.out.ckpt_blocked += st.eng.now() - t0;
    if (err) std::rethrow_exception(err);
    rt.committed_step = ckpt_step;
    rt.out.checkpoints += 1;
    rt.out.ckpt_bytes += per_node * rt.nodes.size();
    co_return;
  }

  // Async: at most one drain in flight per job — a second checkpoint
  // first waits out its predecessor (the bounded-staging degradation).
  if (rt.drain_pending) {
    co_await rt.drain.join();
    rt.drain_pending = false;
  }
  co_await st.machine.mem_copy(per_node);  // staging snapshot, all nodes
  rt.out.ckpt_blocked += st.eng.now() - t0;
  rt.drain = st.eng.spawn(drain_body(st, rt, rt.epoch, ckpt_step, per_node),
                          "sched.drain");
  rt.drain_pending = true;
}

/// Checkpoint boundary policy.  Returns without checkpointing when none
/// is due; under kCooperative a busy platform token defers the
/// checkpoint to the next boundary instead of blocking the job.
simkit::Task<void> maybe_checkpoint(State& st, JobRt& rt) {
  const JobClass& k = rt.job.klass;
  if (k.ckpt_interval_steps <= 0 || rt.step >= k.steps) co_return;
  if (rt.step < rt.next_ckpt_step) co_return;
  if (rt.ckpt_due_at < 0.0) rt.ckpt_due_at = st.eng.now();

  const bool cooperative =
      st.opt.coordination == Coordination::kCooperative;
  if (cooperative) {
    if (st.ckpt_token_busy) {
      rt.out.ckpt_deferrals += 1;
      co_return;  // keep computing; try again at the next boundary
    }
    st.ckpt_token_busy = true;
  }
  rt.out.ckpt_wait += st.eng.now() - rt.ckpt_due_at;
  rt.ckpt_due_at = -1.0;

  // The cooperative token is released by the sync path here, or by the
  // async drain when it finishes writing.
  const bool token_until_drain =
      cooperative && k.policy.write == ckpt::Policy::Write::kAsync;
  std::exception_ptr err;
  try {
    co_await do_checkpoint(st, rt);
  } catch (const pfs::IoError&) {
    err = std::current_exception();
  }
  if (cooperative && !token_until_drain) st.ckpt_token_busy = false;
  if (err) std::rethrow_exception(err);
}

/// Roll back after an exhausted I/O error: discard productive time since
/// the last committed checkpoint, sit out the remaining outage, and
/// re-read the checkpoint state.  The restore read may itself fail; the
/// caller's attempt loop absorbs that as another restart.
simkit::Task<void> recover(State& st, JobRt& rt) {
  rt.epoch += 1;  // in-flight drains no longer match the rollback
  for (int s = rt.committed_step; s < rt.step; ++s) {
    rt.out.lost_work += rt.step_productive[static_cast<std::size_t>(s)];
    rt.step_productive[static_cast<std::size_t>(s)] = 0.0;
  }
  rt.step = rt.committed_step;
  rt.next_ckpt_step = rt.step + rt.job.klass.ckpt_interval_steps;
  rt.ckpt_due_at = -1.0;

  const simkit::Time t0 = st.eng.now();
  if (st.injector) {
    const simkit::Time up = st.injector->all_up_by(st.eng.now());
    if (up > st.eng.now()) co_await st.eng.delay(up - st.eng.now());
  }
  std::exception_ptr err;
  try {
    if (rt.out.checkpoints > 0) {
      co_await fan_out(st, rt, rt.ckpt_file, 0,
                       rt.job.klass.state_bytes_per_node,
                       rt.job.klass.state_bytes_per_node, /*read=*/true);
    }
  } catch (const pfs::IoError&) {
    err = std::current_exception();
  }
  rt.out.recovery += st.eng.now() - t0;
  if (err) std::rethrow_exception(err);
}

void finish(State& st, JobRt& rt) {
  rt.out.finish_time = st.eng.now();
  rt.out.queue_wait = rt.out.start_time - rt.job.arrival;
  rt.out.productive = 0.0;
  for (const simkit::Duration d : rt.step_productive) rt.out.productive += d;

  if (metrics::Registry* m = metrics::current()) {
    m->counter("sched.jobs_finished").inc();
    if (rt.out.completed) m->counter("sched.jobs_completed").inc();
    m->counter("sched.checkpoints").inc(
        static_cast<std::uint64_t>(rt.out.checkpoints));
    m->counter("sched.dropped_checkpoints")
        .inc(static_cast<std::uint64_t>(rt.out.dropped_checkpoints));
    m->counter("sched.restarts").inc(
        static_cast<std::uint64_t>(rt.out.restarts));
    m->counter("sched.ckpt_deferrals")
        .inc(static_cast<std::uint64_t>(rt.out.ckpt_deferrals));
    m->histogram("sched.job.stretch", 1e-2).observe(rt.out.stretch());
    m->histogram("sched.job.slowdown", 1e-2).observe(rt.out.slowdown());
    m->histogram("sched.job.queue_wait_s").observe(rt.out.queue_wait);
    m->histogram("sched.job.ckpt_wait_s").observe(rt.out.ckpt_wait);
    m->histogram("sched.job.ckpt_blocked_s").observe(rt.out.ckpt_blocked);
  }

  st.alloc.release(rt.nodes);
  st.running.erase(std::find(st.running.begin(), st.running.end(), &rt));
  st.unfinished -= 1;
  schedule(st);
}

simkit::Task<void> job_body(State& st, JobRt& rt) {
  const JobClass& k = rt.job.klass;
  rt.out.start_time = st.eng.now();
  rt.data_file =
      st.fs.create("job" + std::to_string(rt.job.id) + "." + k.name);
  rt.ckpt_file =
      st.fs.create("job" + std::to_string(rt.job.id) + ".ckpt");
  rt.next_ckpt_step = k.ckpt_interval_steps;
  rt.step_productive.assign(static_cast<std::size_t>(k.steps), 0.0);

  bool need_recover = false;
  for (;;) {
    try {
      if (need_recover) {
        need_recover = false;
        co_await recover(st, rt);
      }
      while (rt.step < k.steps) {
        const simkit::Time step_t0 = st.eng.now();
        co_await st.machine.compute(k.flops_per_node_step);
        co_await step_io(st, rt);
        rt.step_productive[static_cast<std::size_t>(rt.step)] =
            st.eng.now() - step_t0;
        rt.step += 1;
        co_await maybe_checkpoint(st, rt);
      }
      if (rt.drain_pending) {
        co_await rt.drain.join();  // drains consume their own I/O errors
        rt.drain_pending = false;
      }
      rt.out.completed = true;
      break;
    } catch (const pfs::IoError&) {
      rt.out.restarts += 1;
      if (rt.out.restarts > kMaxRestarts) break;
      need_recover = true;
    }
  }
  finish(st, rt);
}

void schedule(State& st) {
  if (st.pending.empty()) return;
  std::vector<PendingView> pending;
  pending.reserve(st.pending.size());
  for (const JobRt* rt : st.pending) {
    pending.push_back({rt->job.id, rt->job.klass.nodes,
                       rt->job.klass.priority, rt->job.arrival,
                       rt->out.ideal_runtime_s * kEstimateMargin});
  }
  std::vector<RunningView> running;
  running.reserve(st.running.size());
  for (const JobRt* rt : st.running) {
    running.push_back({rt->job.klass.nodes, est_finish(*rt)});
  }
  std::vector<std::size_t> sel =
      select_jobs(st.opt.discipline, pending, st.alloc.free_count(),
                  st.eng.now(), std::move(running));
  if (sel.empty()) return;

  for (const std::size_t i : sel) {
    JobRt* rt = st.pending[i];
    rt->nodes = st.alloc.allocate(static_cast<std::size_t>(
        rt->job.klass.nodes));
    st.running.push_back(rt);
    st.eng.spawn(job_body(st, *rt),
                 "sched.job" + std::to_string(rt->job.id));
  }
  // Remove the started jobs from the queue, highest index first.
  std::sort(sel.begin(), sel.end());
  for (std::size_t j = sel.size(); j-- > 0;) {
    st.pending.erase(st.pending.begin() +
                     static_cast<std::ptrdiff_t>(sel[j]));
  }
}

simkit::Task<void> submitter(State& st) {
  for (const std::unique_ptr<JobRt>& rt : st.rts) {
    if (rt->job.arrival > st.eng.now()) {
      co_await st.eng.delay(rt->job.arrival - st.eng.now());
    }
    st.pending.push_back(rt.get());
    schedule(st);
  }
}

}  // namespace

PlatformReport run(hw::Machine& machine, pfs::StripedFs& fs,
                   fault::Injector* injector, std::vector<Job> jobs,
                   const PlatformOptions& opt) {
  assert(std::is_sorted(jobs.begin(), jobs.end(),
                        [](const Job& a, const Job& b) {
                          return a.arrival < b.arrival;
                        }));
  simkit::Engine& eng = machine.engine();
  State st{eng,      machine, fs, injector, opt,
           NodeAllocator(machine.config().compute_nodes)};
  st.rts.reserve(jobs.size());
  for (Job& j : jobs) {
    auto rt = std::make_unique<JobRt>();
    rt->out.ideal_runtime_s = estimate_runtime_s(j.klass, machine.config());
    rt->job = std::move(j);
    rt->out.job = rt->job;
    st.rts.push_back(std::move(rt));
  }
  st.unfinished = static_cast<int>(st.rts.size());
  if (opt.retry.health && injector &&
      machine.config().io.server.durability.crash_semantics) {
    pario::follow_crashes(*opt.retry.health, *injector, eng);
  }
  if (opt.coordination == Coordination::kOrderedSlots) {
    st.io_slots = std::make_unique<simkit::Resource>(eng, kIoSlots);
  }

  if (st.unfinished > 0) {
    eng.spawn(submitter(st), "sched.submitter");
    // Step, don't run: a full drain would also consume every fault edge
    // scheduled past the last job and fling the clock to the plan horizon.
    while (st.unfinished > 0 && eng.step()) {
    }
  }

  PlatformReport rep;
  rep.jobs.reserve(st.rts.size());
  double stretch_sum = 0.0, slowdown_sum = 0.0, qwait_sum = 0.0,
         cwait_sum = 0.0;
  std::vector<double> stretches;
  for (const std::unique_ptr<JobRt>& rt : st.rts) {
    const JobOutcome& o = rt->out;
    const double nodes = static_cast<double>(rt->job.klass.nodes);
    rep.makespan = std::max(rep.makespan, o.finish_time);
    rep.held_node_s += nodes * (o.finish_time - o.start_time);
    rep.productive_node_s += nodes * o.productive;
    rep.compute_node_s +=
        nodes * static_cast<double>(rt->job.klass.steps) *
        machine.compute_time(rt->job.klass.flops_per_node_step);
    if (o.completed) {
      rep.completed_jobs += 1;
      stretch_sum += o.stretch();
      slowdown_sum += o.slowdown();
      qwait_sum += o.queue_wait;
      cwait_sum += o.ckpt_wait;
      stretches.push_back(o.stretch());
    }
    rep.total_ckpt_blocked += o.ckpt_blocked;
    rep.total_lost_work += o.lost_work;
    rep.total_recovery += o.recovery;
    rep.total_ckpt_bytes += o.ckpt_bytes;
    rep.total_restarts += o.restarts;
    rep.total_deferrals += o.ckpt_deferrals;
    rep.total_dropped += o.dropped_checkpoints;
    rep.jobs.push_back(o);
  }
  rep.wasted_node_s = rep.held_node_s - rep.productive_node_s;
  const double cap =
      static_cast<double>(machine.config().compute_nodes) * rep.makespan;
  rep.utilization = cap > 0.0 ? rep.productive_node_s / cap : 0.0;
  if (rep.completed_jobs > 0) {
    const double n = rep.completed_jobs;
    rep.mean_stretch = stretch_sum / n;
    rep.mean_slowdown = slowdown_sum / n;
    rep.mean_queue_wait_s = qwait_sum / n;
    rep.mean_ckpt_wait_s = cwait_sum / n;
    std::sort(stretches.begin(), stretches.end());
    rep.p95_stretch =
        stretches[static_cast<std::size_t>(0.95 * (stretches.size() - 1))];
  }
  rep.retry = st.retry;
  for (std::size_t i = 0; i < fs.io_node_count(); ++i) {
    const pfs::IoNode& n = fs.io_node(i);
    rep.cache_hits += n.cache().hits();
    rep.cache_misses += n.cache().misses();
    rep.cache_evictions += n.cache().evictions();
    rep.disk_reads += n.disk_reads();
    rep.disk_writes += n.disk_writes();
    rep.readahead_issued += n.readahead_issued();
    rep.readahead_hits += n.readahead_hits() + n.readahead_late_hits();
    rep.readahead_waste += n.readahead_waste();
    rep.lost_dirty_blocks += n.lost_dirty_blocks();
    rep.lost_bytes += n.lost_bytes();
    rep.readahead_cancelled += n.readahead_cancelled();
    rep.cache_invalidations += n.cache_invalidations();
    rep.journal_appends += n.journal_appends();
    rep.journal_replayed += n.journal_replayed();
    rep.durability_wait_s += n.durability_wait();
  }
  if (metrics::Registry* m = metrics::current()) {
    m->gauge("sched.utilization").set(rep.utilization);
    m->gauge("sched.wasted_node_s").set(rep.wasted_node_s);
    m->gauge("sched.makespan_s").set(rep.makespan);
  }
  return rep;
}

}  // namespace sched
