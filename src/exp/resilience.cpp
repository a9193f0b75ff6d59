#include "exp/resilience.hpp"

namespace expt {

Table resilience_table(const ckpt::Report& rep) {
  const double exec = rep.exec_time;
  auto pct = [exec](double part) {
    return exec > 0.0 ? fmt("%.1f", 100.0 * part / exec) : std::string("-");
  };

  Table t({"Component", "Time (s)", "% of exec"});
  const double productive =
      exec - rep.ckpt_overhead - rep.lost_work - rep.recovery_time;
  t.add_row({"Productive work", fmt_s(productive), pct(productive)});
  t.add_row({"Checkpoint overhead", fmt_s(rep.ckpt_overhead),
             pct(rep.ckpt_overhead)});
  t.add_row({"Lost work (rolled back)", fmt_s(rep.lost_work),
             pct(rep.lost_work)});
  t.add_row({"Time to recovery", fmt_s(rep.recovery_time),
             pct(rep.recovery_time)});
  t.add_row({"Total execution", fmt_s(exec), pct(exec)});
  return t;
}

std::string resilience_summary(const ckpt::Report& rep,
                               const fault::Injector* injector) {
  std::string out;
  out += "checkpoints: " + fmt_u64(rep.checkpoints) +
         " (" + fmt("%.1f", static_cast<double>(rep.ckpt_bytes) / 1e6) +
         " MB), restarts: " + fmt_u64(rep.restarts) +
         ", completed: " + (rep.completed ? "yes" : "NO") +
         (rep.state_verified ? "" : ", STATE MISMATCH") + "\n";
  out += "retries: " + fmt_u64(rep.retry.retries) +
         ", failovers: " + fmt_u64(rep.retry.failovers) +
         " (" + fmt_u64(rep.retry.diverged_writes) + " diverged writes)" +
         ", exhausted: " + fmt_u64(rep.retry.exhausted) +
         ", backoff: " + fmt_s(rep.retry.backoff_time) + " s\n";
  // Policy-specific lines only for non-default policies, so the sync_full
  // report stays byte-identical to the pre-policy engine's output.
  if (!rep.policy.is_sync_full()) {
    out += "policy: " + rep.policy.name() + ", " +
           fmt_u64(rep.full_checkpoints) + " full + " +
           fmt_u64(rep.delta_checkpoints) + " delta (" +
           fmt("%.1f", static_cast<double>(rep.delta_bytes) / 1e6) +
           " MB deltas), dropped: " + fmt_u64(rep.dropped_checkpoints) +
           "\n";
    if (rep.policy.write == ckpt::Policy::Write::kAsync) {
      out += "async drain: " + fmt_s(rep.drain_time) +
             " s busy (overlapped), stage wait: " + fmt_s(rep.stage_wait) +
             " s\n";
    }
  }
  // Robustness lines only when the run exercised the correlated-failure /
  // health-aware machinery, so every pre-domain report (and its pinned
  // golden) stays byte-identical.
  if (rep.lost_checkpoints > 0 || rep.divergences_repaired > 0 ||
      rep.hedged_reads > 0) {
    out += "robustness: " + fmt_u64(rep.lost_checkpoints) +
           " checkpoints lost to scrubs, " +
           fmt_u64(rep.divergences_repaired) + " copies re-mirrored, " +
           fmt_u64(rep.hedged_reads) + " hedged reads (" +
           fmt_u64(rep.hedge_wins) + " won by the mirror)\n";
  }
  if (injector) {
    out += "injected: " + fmt_u64(injector->rejected_requests()) +
           " requests rejected at down nodes\n";
    if (!injector->plan().domain_outages.empty() ||
        injector->plan().markov_horizon > 0.0) {
      out += "correlated: " +
             fmt_u64(injector->plan().domain_outages.size()) +
             " domain outages, " + fmt_u64(injector->sticky_transitions()) +
             " sticky + " + fmt_u64(injector->stuck_transitions()) +
             " stuck disk-arm episodes\n";
    }
  }
  return out;
}

}  // namespace expt
