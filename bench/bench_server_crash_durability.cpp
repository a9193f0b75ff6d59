// Scenario "server_crash_durability" — what a write ack is worth when
// the I/O node under it fail-stops.
//
// One client streams a shuffled burst of stripe-unit writes (every 8th
// straddles a stripe boundary, so some acks are multi-piece groups) at a
// 4-node striped FS whose servers run the bounded writeback pool with
// the watermark set so nothing drains in the background: every
// acked-but-unflushed block sits in node memory until a barrier, a
// close, or a crash decides its fate.  The grid crosses the four
// iosrv::DurabilityPolicy levels with three fates for I/O node 1 —
// none, a plain fail-stop crash, and a scrubbing (power-loss) crash —
// and the client reads everything back after the reboot under a
// per-point audit::Ledger, so the table shows both what each policy
// paid up front (write-phase span) and what it lost (blocks, bytes,
// audit violations).
//
// The shuffled write order is load-bearing: it makes write_through pay
// the in-place seek per ack while journaled's redo log stays a
// sequential append, which is exactly the cost gap the policy ladder
// trades on (write_through >= journaled >= ordered_drain >=
// write_behind on the fault-free row).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "exp/table.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pario/resilient.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kComputeNodes = 8;
constexpr std::size_t kIoNodes = 4;
// Node 2 serves block b-1 of every straddling pair (b == 7 mod 8 puts
// the pair on nodes 2 and 3), so crashing it splits ack groups: one
// piece lost with the node, the sibling durable at close — torn.
constexpr std::size_t kCrashNode = 2;

// The crash lands after every policy's write phase (write_through's
// seek-heavy burst is the slowest at ~6 s full scale) and the read-back
// starts after the reboot, so the loss window is purely
// "acked-but-unflushed at the crash edge".
constexpr simkit::Time kCrashTime = 8.0;
constexpr simkit::Time kRebootTime = 10.0;
constexpr simkit::Time kReadStart = 11.0;

constexpr const char* kPolicyNames[] = {"write_behind", "write_through",
                                        "ordered_drain", "journaled"};
constexpr iosrv::DurabilityPolicy kPolicies[] = {
    iosrv::DurabilityPolicy::kWriteBehind,
    iosrv::DurabilityPolicy::kWriteThrough,
    iosrv::DurabilityPolicy::kOrderedDrain,
    iosrv::DurabilityPolicy::kJournaled,
};
constexpr const char* kFaultNames[] = {"none", "crash", "scrub"};

struct PointResult {
  double write_span = 0.0;  // first write -> last ack (+ barrier)
  double read_span = 0.0;
  std::uint64_t acked_writes = 0;
  std::uint64_t lost_blocks = 0;
  std::uint64_t lost_bytes = 0;
  std::uint64_t journal_replayed = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t cache_invalidations = 0;
  audit::Totals audit;
};

/// Deterministic Fisher-Yates on a minstd LCG (std::shuffle's draw
/// order is implementation-defined; goldens need bit-stable output).
std::vector<std::uint64_t> shuffled_blocks(std::uint64_t n) {
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::uint64_t state = 0x1234567;
  for (std::uint64_t i = n; i > 1; --i) {
    state = (state * 48271u) % 2147483647u;
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

simkit::Task<void> client(simkit::Engine& eng, pfs::StripedFs& fs,
                          hw::NodeId node, pfs::FileId file,
                          iosrv::DurabilityPolicy policy,
                          std::uint64_t nblocks, PointResult& r) {
  const std::uint64_t su = fs.params().stripe_unit_bytes;
  // The ladder outlives the 2 s outage: if a rescaled run pushes the
  // write phase across the crash window, the client rides it out
  // instead of dying with an unhandled IoError.
  pario::RetryPolicy retry;
  retry.max_attempts = 8;
  retry.backoff_ms = 250.0;
  retry.backoff_multiplier = 2.0;

  const simkit::Time t0 = eng.now();
  for (const std::uint64_t b : shuffled_blocks(nblocks)) {
    // Every 8th block is written as a boundary-straddling piece pair
    // (second half of b-1, first half of b): a multi-piece ack group
    // the auditor must see torn if a crash splits its durability.
    const std::uint64_t off = (b % 8 == 7 && b > 0) ? b * su - su / 2
                                                    : b * su;
    co_await pario::resilient_pwrite(fs, node, file, off, su, {}, retry);
    ++r.acked_writes;
  }
  if (policy == iosrv::DurabilityPolicy::kOrderedDrain) {
    // The policy's whole point: the client-visible barrier that turns
    // "acked" into "durable" before the crash window opens.
    co_await pario::resilient_fsync(fs, node, file, retry);
  }
  r.write_span = eng.now() - t0;

  if (eng.now() < kReadStart) co_await eng.delay(kReadStart - eng.now());
  const simkit::Time t1 = eng.now();
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    co_await pario::resilient_pread(fs, node, file, b * su, su, {}, retry);
  }
  r.read_span = eng.now() - t1;
  // Close force-drains the survivors, settling every ack group so torn
  // pairs (one piece lost with the node, one durable) are flagged.
  co_await fs.close(node, file);
}

PointResult run_once(iosrv::DurabilityPolicy policy, std::size_t fault,
                     double scale) {
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  // Roomy cache, bounded pool, and a watermark the burst never crosses:
  // dirty blocks stay in memory until fsync/close/crash, which makes the
  // loss window exactly the acked-but-unflushed set.
  mc.io.cache_bytes_per_io_node = 8ULL << 20;
  mc.io.server.writeback.mode = iosrv::WritebackMode::kPool;
  mc.io.server.writeback.pool_blocks = 64;
  mc.io.server.writeback.high_watermark = 0.95;
  mc.io.server.writeback.low_watermark = 0.05;
  mc.io.server.durability.policy = policy;
  mc.io.server.durability.crash_semantics = true;
  hw::Machine machine(eng, mc);

  fault::InjectionPlan plan;
  if (fault != 0) {
    plan.crash_node(kCrashNode, kCrashTime, kRebootTime,
                    /*scrub=*/fault == 2);
  }
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);

  // ~1.1 pieces per block across 4 nodes stays under the 95% watermark
  // (no background drain) and under the pool cap (no ack stalls).
  const std::uint64_t nblocks = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(192.0 * scale), 48, 208);

  PointResult r;
  audit::Ledger ledger;
  {
    audit::Scope audit_scope(ledger);
    const pfs::FileId file = fs.create("burst", /*backed=*/false);
    eng.spawn(client(eng, fs, machine.compute_node(0), file, policy,
                     nblocks, r),
              "client");
    eng.run();
  }
  r.audit = ledger.totals();
  for (std::size_t i = 0; i < kIoNodes; ++i) {
    const pfs::IoNode& n = fs.io_node(i);
    r.lost_blocks += n.lost_dirty_blocks();
    r.lost_bytes += n.lost_bytes();
    r.journal_replayed += n.journal_replayed();
    r.journal_appends += n.journal_appends();
    r.cache_invalidations += n.cache_invalidations();
  }
  return r;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();
  constexpr std::size_t kNP = std::size(kPolicies);
  constexpr std::size_t kNF = std::size(kFaultNames);

  const std::vector<PointResult> res =
      ctx.map<PointResult>(kNP * kNF, [&](std::size_t i) {
        return run_once(kPolicies[i / kNF], i % kNF, opt.scale);
      });
  auto at = [&](std::size_t p, std::size_t f) -> const PointResult& {
    return res[p * kNF + f];
  };

  expt::Table table({"policy", "fault", "write (s)", "read (s)", "acked",
                     "lost blk", "lost KB", "replayed", "lost upd",
                     "stale", "torn", "scrubbed", "viol"});
  for (std::size_t p = 0; p < kNP; ++p) {
    for (std::size_t f = 0; f < kNF; ++f) {
      const PointResult& r = at(p, f);
      table.add_row({kPolicyNames[p], kFaultNames[f],
                     expt::fmt("%.3f", r.write_span),
                     expt::fmt("%.3f", r.read_span),
                     expt::fmt_u64(r.acked_writes),
                     expt::fmt_u64(r.lost_blocks),
                     expt::fmt_u64(r.lost_bytes >> 10),
                     expt::fmt_u64(r.journal_replayed),
                     expt::fmt_u64(r.audit.lost_updates),
                     expt::fmt_u64(r.audit.stale_reads),
                     expt::fmt_u64(r.audit.torn_writes),
                     expt::fmt_u64(r.audit.scrub_destroyed),
                     expt::fmt_u64(r.audit.violations())});
    }
  }
  ctx.printf(
      "Server crash durability: 1 client, %zu I/O nodes, pool writeback, "
      "node %zu %s at t=%.0fs (reboot %.0fs)\n%s\n",
      kIoNodes, kCrashNode, "crashes", kCrashTime, kRebootTime,
      ctx.table(table).c_str());

  const PointResult& wb_crash = at(0, 1);
  ctx.printf(
      "Ack is not durability: write_behind loses %llu acked blocks "
      "(%llu KB) to the crash the auditor then sees as %llu stale "
      "reads; the barrier/journal/through policies lose none.\n\n",
      static_cast<unsigned long long>(wb_crash.lost_blocks),
      static_cast<unsigned long long>(wb_crash.lost_bytes >> 10),
      static_cast<unsigned long long>(wb_crash.audit.stale_reads));

  bool all_acked = true;
  bool fault_free_clean = true;
  for (std::size_t p = 0; p < kNP; ++p) {
    for (std::size_t f = 0; f < kNF; ++f) {
      all_acked = all_acked && at(p, f).acked_writes > 0 &&
                  at(p, f).acked_writes == at(0, 0).acked_writes;
    }
    fault_free_clean = fault_free_clean && at(p, 0).audit.violations() == 0 &&
                       at(p, 0).lost_blocks == 0;
  }
  ctx.expect(all_acked, "every policy acks the full burst on every row");
  ctx.expect(fault_free_clean, "fault-free rows lose nothing and audit clean");

  const PointResult& wt_crash = at(1, 1);
  const PointResult& od_crash = at(2, 1);
  const PointResult& j_crash = at(3, 1);
  ctx.expect(wb_crash.lost_blocks > 0 && wb_crash.lost_bytes > 0,
             "write_behind loses acked blocks to a plain crash (" +
                 expt::fmt_u64(wb_crash.lost_blocks) + " blocks)");
  ctx.expect(wb_crash.audit.lost_updates == wb_crash.lost_blocks,
             "the auditor sees every lost write_behind update (" +
                 expt::fmt_u64(wb_crash.audit.lost_updates) + " of " +
                 expt::fmt_u64(wb_crash.lost_blocks) + ")");
  ctx.expect(wb_crash.audit.stale_reads > 0,
             "reading a lost block back is flagged as a stale read");
  ctx.expect(wb_crash.audit.torn_writes > 0,
             "a crash splitting a straddling ack group is flagged torn");
  ctx.expect(wt_crash.lost_blocks == 0 && wt_crash.audit.violations() == 0,
             "write_through never loses an acked byte");
  ctx.expect(od_crash.lost_blocks == 0 && od_crash.audit.violations() == 0,
             "ordered_drain loses nothing once the barrier returned");
  ctx.expect(j_crash.lost_blocks == 0 && j_crash.audit.violations() == 0 &&
                 j_crash.journal_replayed > 0,
             "journaled replays the redo log (" +
                 expt::fmt_u64(j_crash.journal_replayed) +
                 " blocks) and loses nothing");

  const PointResult& wt_scrub = at(1, 2);
  const PointResult& j_scrub = at(3, 2);
  ctx.expect(wt_scrub.audit.scrub_destroyed > 0 &&
                 wt_scrub.audit.stale_reads > 0,
             "a scrub destroys even write_through's durable blocks");
  ctx.expect(j_scrub.lost_blocks > 0 && j_scrub.journal_replayed == 0,
             "a scrub takes journaled's redo log with it");

  const double wb_s = at(0, 0).write_span;
  const double wt_s = at(1, 0).write_span;
  const double od_s = at(2, 0).write_span;
  const double j_s = at(3, 0).write_span;
  ctx.expect(wt_s >= j_s && j_s >= od_s && od_s > wb_s,
             "up-front cost orders write_through >= journaled >= "
             "ordered_drain > write_behind (" +
                 expt::fmt("%.3f", wt_s) + " / " +
                 expt::fmt("%.3f", j_s) + " / " +
                 expt::fmt("%.3f", od_s) + " / " +
                 expt::fmt("%.3f", wb_s) + " s)");
}

const scenario::Registration reg{{
    .name = "server_crash_durability",
    .title = "Durability policies under I/O-node fail-stop and scrub",
    .description =
        "Crosses the four write-ack durability policies with a planned "
        "crash / scrubbing crash of one I/O server, reading the burst "
        "back under the audit ledger. --check asserts write_behind "
        "loses acked blocks (and the auditor flags every one), the "
        "other policies lose none on a plain crash, journaled replays "
        "its log, and the up-front write cost orders write_through >= "
        "journaled >= ordered_drain > write_behind.",
    .default_scale = 1.0,
    .grid = {{"policy",
              {"write_behind", "write_through", "ordered_drain",
               "journaled"}},
             {"fault", {"none", "crash", "scrub"}}},
    .run = run,
}};

}  // namespace
