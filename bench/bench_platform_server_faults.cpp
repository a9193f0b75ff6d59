// Scenario "platform_server_faults" — the durability-policy ladder under
// the PR 6 multi-tenant platform with real server crashes.
//
// The same seeded 224-job stream as platform_server_cache, but the
// smart servers now run with crash semantics armed and a correlated
// fault plan knocking I/O nodes (and occasionally a whole rack domain)
// over mid-stream.  Every crash is plain — power stays on, disks and
// redo logs survive — so the axis under test is exactly the write-ack
// contract: write_behind forfeits whatever sat in the dirty pools,
// journaled replays its log to zero acked loss, write_through never
// buffered, and ordered_drain protects checkpoint commits (its barrier)
// while step data stays exposed.  A per-point audit::Ledger cross-checks
// every read the tenants do against what actually survived, so "lost"
// is not a counter the server self-reports but a violation the auditor
// catches from the outside.
//
// The overhead check reads the durability bill directly: seconds
// clients spent blocked on durable-ack machinery (sync in-place
// writes, journal appends, drain barriers), summed over the I/O nodes.
// Stronger contracts must cost monotonically more
// (write_through >= journaled >= ordered_drain >= write_behind) —
// that is the price list the policy knob exists to expose.  Makespan
// and capacity waste are reported too, but on a bursty multi-tenant
// platform those are dominated by queueing noise, so the check targets
// the direct metric.
#include <cstdio>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "exp/table.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pario/health.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "sched/arrival.hpp"
#include "sched/platform.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kComputeNodes = 64;
constexpr std::size_t kIoNodes = 8;
constexpr std::size_t kFanIn = 4;  // I/O nodes per rack switch
constexpr int kJobs = 224;

// Fault process: ~2-3 crash events across the arrival window, a quarter
// of them whole-rack bursts.  Outages are short enough that the retry
// ladder below rides them out instead of failing jobs.
constexpr double kMtbf = 120.0;
constexpr double kOutage = 6.0;
constexpr double kCorrelatedFraction = 0.25;
constexpr double kCrashHorizon = 300.0;

constexpr const char* kPolicyNames[] = {"write_behind", "ordered_drain",
                                        "journaled", "write_through"};
constexpr iosrv::DurabilityPolicy kPolicies[] = {
    iosrv::DurabilityPolicy::kWriteBehind,
    iosrv::DurabilityPolicy::kOrderedDrain,
    iosrv::DurabilityPolicy::kJournaled,
    iosrv::DurabilityPolicy::kWriteThrough,
};

struct PointResult {
  sched::PlatformReport rep;
  audit::Totals audit;
};

PointResult run_once(iosrv::DurabilityPolicy policy, double scale,
                     std::uint64_t seed) {
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  mc.io_nodes_per_switch = kFanIn;
  // Same memory-rich smart servers as platform_server_cache, so the
  // delta against that scenario is faults + durability, nothing else.
  mc.io.cache_bytes_per_io_node = 16ULL << 20;
  mc.io.server.policy = iosrv::PolicyKind::kArc;
  mc.io.server.readahead.enabled = true;
  mc.io.server.writeback.mode = iosrv::WritebackMode::kPool;
  mc.io.server.durability.policy = policy;
  mc.io.server.durability.crash_semantics = true;
  hw::Machine machine(eng, mc);

  // scrub_domains=false: every outage is a plain fail-stop (disks and
  // redo logs survive), so journaled can actually reach zero acked loss.
  fault::InjectionPlan plan = fault::InjectionPlan::correlated_node_crashes(
      kIoNodes, kFanIn, kMtbf, kOutage, kCorrelatedFraction, kCrashHorizon,
      seed, /*scrub_domains=*/false);
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);

  sched::ArrivalConfig ac;
  ac.mean_interarrival_s = 2.0;
  ac.max_jobs = kJobs;
  ac.burst_period_s = 120.0;
  ac.burst_len_s = 30.0;
  ac.burst_rate_multiplier = 4.0;
  std::vector<sched::Job> jobs =
      sched::generate(ac, sched::standard_mix(scale), seed);

  // Health-aware retries: crash/recovery edges feed the tracker, so
  // hedged reads steer around servers still warming their cold caches.
  pario::HealthTracker health(kIoNodes);
  sched::PlatformOptions po;
  po.retry.max_attempts = 7;
  po.retry.backoff_ms = 200.0;
  po.retry.backoff_multiplier = 2.0;
  po.retry.health = &health;

  PointResult r;
  audit::Ledger ledger;
  {
    audit::Scope audit_scope(ledger);
    r.rep = sched::run(machine, fs, &injector, std::move(jobs), po);
  }
  r.audit = ledger.totals();
  return r;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<PointResult> res =
      ctx.map<PointResult>(std::size(kPolicies), [&](std::size_t i) {
        return run_once(kPolicies[i], opt.scale, opt.seed);
      });

  auto capacity_waste = [](const sched::PlatformReport& r) {
    return static_cast<double>(kComputeNodes) * r.makespan -
           r.compute_node_s;
  };

  expt::Table table({"policy", "done", "makespan (s)", "waste (node-s)",
                     "dur wait (s)", "lost blk", "lost KB", "ra cancel",
                     "replayed", "lost upd", "stale", "viol"});
  for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
    const sched::PlatformReport& r = res[i].rep;
    const audit::Totals& a = res[i].audit;
    table.add_row(
        {kPolicyNames[i],
         expt::fmt_u64(static_cast<unsigned long long>(r.completed_jobs)) +
             "/" + expt::fmt_u64(r.jobs.size()),
         expt::fmt_s(r.makespan), expt::fmt("%.0f", capacity_waste(r)),
         expt::fmt("%.1f", r.durability_wait_s),
         expt::fmt_u64(r.lost_dirty_blocks),
         expt::fmt_u64(r.lost_bytes >> 10),
         expt::fmt_u64(r.readahead_cancelled),
         expt::fmt_u64(r.journal_replayed),
         expt::fmt_u64(a.lost_updates), expt::fmt_u64(a.stale_reads),
         expt::fmt_u64(a.violations())});
  }
  ctx.printf(
      "Platform under server faults: %d jobs, %zu compute nodes, %zu I/O "
      "nodes (%zu per rack), plain crashes, seed=%llu\n%s\n",
      kJobs, kComputeNodes, kIoNodes, kFanIn,
      static_cast<unsigned long long>(opt.seed), ctx.table(table).c_str());

  const PointResult& wb = res[0];
  const PointResult& od = res[1];
  const PointResult& j = res[2];
  const PointResult& wt = res[3];
  ctx.printf(
      "Durability price list: write_behind forfeits %llu KB of acked "
      "data (%llu audited lost updates); journaled replays %llu blocks "
      "and write_through loses nothing, at %.0f and %.0f wasted node-s "
      "over write_behind's %.0f.\n\n",
      static_cast<unsigned long long>(wb.rep.lost_bytes >> 10),
      static_cast<unsigned long long>(wb.audit.lost_updates),
      static_cast<unsigned long long>(j.rep.journal_replayed),
      capacity_waste(j.rep), capacity_waste(wt.rep),
      capacity_waste(wb.rep));

  bool all_done = true;
  for (const PointResult& r : res) {
    all_done = all_done && r.rep.completed_jobs ==
                               static_cast<int>(r.rep.jobs.size());
  }
  ctx.expect(all_done, "every job rides out the outages under every policy");
  ctx.expect(wb.rep.lost_dirty_blocks > 0 && wb.rep.lost_bytes > 0,
             "write_behind forfeits acked data to the crashes (" +
                 expt::fmt_u64(wb.rep.lost_bytes >> 10) + " KB)");
  ctx.expect(wb.audit.lost_updates > 0 &&
                 wb.audit.lost_updates == wb.rep.lost_dirty_blocks,
             "the auditor catches every lost write_behind update (" +
                 expt::fmt_u64(wb.audit.lost_updates) + " of " +
                 expt::fmt_u64(wb.rep.lost_dirty_blocks) + ")");
  ctx.expect(j.rep.lost_bytes == 0 && j.audit.violations() == 0,
             "journaled loses zero acked bytes (replayed " +
                 expt::fmt_u64(j.rep.journal_replayed) + " blocks)");
  ctx.expect(wt.rep.lost_bytes == 0 && wt.audit.violations() == 0,
             "write_through loses zero acked bytes");
  ctx.expect(j.rep.journal_replayed > 0,
             "crashes actually exercised the redo-log replay path");
  ctx.expect(wb.rep.cache_invalidations > 0,
             "crashed servers came back with cold caches");
  const double w_wb = wb.rep.durability_wait_s;
  const double w_od = od.rep.durability_wait_s;
  const double w_j = j.rep.durability_wait_s;
  const double w_wt = wt.rep.durability_wait_s;
  ctx.expect(w_wt >= w_j && w_j >= w_od && w_od >= w_wb,
             "stronger contracts bill more durability wait: "
             "write_through >= journaled >= ordered_drain >= "
             "write_behind (" +
                 expt::fmt("%.1f", w_wt) + " / " +
                 expt::fmt("%.1f", w_j) + " / " +
                 expt::fmt("%.1f", w_od) + " / " +
                 expt::fmt("%.1f", w_wb) + " s)");
}

const scenario::Registration reg{{
    .name = "platform_server_faults",
    .title = "Durability policies under a multi-tenant stream with crashes",
    .description =
        "Replays the seeded 224-job stream against crash-armed smart "
        "servers under a correlated plain-crash plan, once per "
        "durability policy, auditing every read against what survived. "
        "--check asserts every job completes, write_behind loses acked "
        "bytes (all caught by the auditor), journaled and write_through "
        "lose none, and client-visible durability wait orders "
        "write_through >= journaled >= ordered_drain >= write_behind.",
    .default_scale = 0.1,
    .grid = {{"policy",
              {"write_behind", "ordered_drain", "journaled",
               "write_through"}}},
    .run = run,
}};

}  // namespace
