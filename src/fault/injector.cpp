#include "fault/injector.hpp"

#include "simkit/rng.hpp"

namespace fault {
namespace {

// The Markov disk-arm walk's rates and stretches.  Mean dwell (s) in
// each state, the chance a sticking arm goes fully stuck instead of
// healing, and the service-time stretch while sticky or stuck.
constexpr double kMeanHealthyS = 600.0;
constexpr double kMeanStickyS = 20.0;
constexpr double kMeanStuckS = 5.0;
constexpr double kPStick = 0.25;
constexpr double kStickyFactor = 4.0;
constexpr double kStuckFactor = 40.0;

}  // namespace

simkit::Task<void> Injector::arm_crash(std::size_t node, bool scrub) {
  if (node >= down_.size()) down_.resize(node + 1, 0);
  ++down_[node];
  if (m_crashes_) m_crashes_->inc();
  for (const CrashListener& l : crash_listeners_) l(node, scrub);
  co_return;
}

simkit::Task<void> Injector::clear_crash(std::size_t node) {
  if (node < down_.size() && down_[node] > 0) {
    // Recovery fires only when the last overlapping window closes — the
    // node is actually reachable again.
    if (--down_[node] == 0) {
      for (const RecoveryListener& l : recovery_listeners_) l(node);
    }
  }
  co_return;
}

simkit::Task<void> Injector::markov_step(std::uint64_t disk_key,
                                         double factor, int state) {
  auto it = disks_.find(disk_key);
  if (it != disks_.end()) it->second->set_service_scale(factor);
  if (state == 1) ++sticky_transitions_;
  if (state == 2) ++stuck_transitions_;
  if (state != 0 && m_disk_transitions_) m_disk_transitions_->inc();
  co_return;
}

void Injector::schedule_markov(simkit::Engine& eng) {
  // One trajectory per attached disk, on a stream split from the plan
  // seed by the disk's stable key: generation order (disks_ is a sorted
  // map) and disk count don't perturb each other's walks.  All edges are
  // pre-materialized here, so the run replays bit-identically.
  const simkit::Time horizon = plan_.markov_horizon;
  for (const auto& [k, model] : disks_) {
    (void)model;
    simkit::Rng walk = simkit::Rng(plan_.seed ^ 0xD15Cul).split(k + 1);
    simkit::Time t = 0.0;
    int state = 0;  // 0 healthy, 1 sticky, 2 stuck
    for (;;) {
      const double dwell = state == 0   ? walk.exponential(kMeanHealthyS)
                           : state == 1 ? walk.exponential(kMeanStickyS)
                                        : walk.exponential(kMeanStuckS);
      t += dwell;
      if (t >= horizon) break;
      state = state == 0   ? 1
              : state == 2 ? 1
                           : (walk.uniform() < kPStick ? 2 : 0);
      const double factor = state == 0   ? 1.0
                            : state == 1 ? kStickyFactor
                                         : kStuckFactor;
      eng.spawn_at(t, markov_step(k, factor, state), "fault_markov");
    }
    // A walk that ends away from healthy heals at the horizon; without
    // this the tail of the run would stay degraded forever.
    if (state != 0) {
      eng.spawn_at(horizon, markov_step(k, 1.0, 0), "fault_markov");
    }
  }
}

void Injector::start(simkit::Engine& eng) {
  if (started_) return;
  started_ = true;
  if (metrics::Registry* r = metrics::current()) {
    m_crashes_ = &r->counter("fault.node_crashes");
    m_rejections_ = &r->counter("fault.rejected_requests");
    m_disk_transitions_ = &r->counter("fault.disk_transitions");
    if (!plan_.domain_outages.empty()) {
      // Known at arm time (outages are plan data, not runtime state).
      r->counter("fault.domain_outages").inc(plan_.domain_outages.size());
    }
  }
  // Crash windows already open at the current time must arm immediately;
  // spawn_at clamps past times to now, so scheduling is uniform.  Reboot
  // edges are scheduled after crash edges at equal times (schedule order
  // breaks ties), so a zero-length window never goes negative.
  for (const auto& c : plan_.crashes) {
    eng.spawn_at(c.crash, arm_crash(c.io_node, c.scrub), "fault_crash");
    eng.spawn_at(c.reboot, clear_crash(c.io_node), "fault_reboot");
  }
  if (plan_.markov_horizon > 0.0) schedule_markov(eng);
}

simkit::Time Injector::all_up_by(simkit::Time now) const noexcept {
  // Chase overlapping/chained windows: keep extending while some window
  // covers the candidate instant.
  simkit::Time t = now;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& c : plan_.crashes) {
      if (c.crash <= t && t < c.reboot) {
        t = c.reboot;
        moved = true;
      }
    }
  }
  return t;
}

bool Injector::node_scrubbed_in(std::size_t io_node, simkit::Time t0,
                                simkit::Time t1) const noexcept {
  for (const auto& c : plan_.crashes) {
    if (c.scrub && c.io_node == io_node && t0 < c.crash && c.crash <= t1) {
      return true;
    }
  }
  return false;
}

}  // namespace fault
