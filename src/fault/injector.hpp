// fault/injector.hpp — runtime fault state, armed by a simulated clock.
//
// The Injector turns an InjectionPlan into live machine state.  start()
// schedules one finite process per fault edge (crash, reboot, Markov
// disk transition) at its planned simulated time; pfs::IoNode consults
// the armed state on every request, and registered hw::DiskModels have
// their service_scale stretched while their Markov walk is off healthy.
//
// Pay-for-what-you-use: a StripedFs without an injector (or with an empty
// plan) takes no extra simulated time and produces bit-identical results.
// All edge processes are finite, so a full Engine::run() drains them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fault/plan.hpp"
#include "hw/disk.hpp"
#include "metrics/metrics.hpp"
#include "simkit/engine.hpp"

namespace fault {

class Injector {
 public:
  explicit Injector(InjectionPlan plan) : plan_(std::move(plan)) {}
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  const InjectionPlan& plan() const noexcept { return plan_; }

  /// Fired at simulated time on every crash edge of `node` (`scrub` is
  /// the window's scrub flag) and on the reboot edge that brings the
  /// node's overlapping-window depth back to zero.  This is how crash
  /// semantics reach subscribers with live state — the smart server
  /// invalidates its volatile cache/pool, health trackers note the
  /// outage — without the injector knowing about any of them.
  /// Listeners may be registered before or after start(); they run at
  /// edge-fire time either way.
  using CrashListener = std::function<void(std::size_t node, bool scrub)>;
  using RecoveryListener = std::function<void(std::size_t node)>;
  void on_node_crash(CrashListener l) {
    crash_listeners_.push_back(std::move(l));
  }
  void on_node_recovery(RecoveryListener l) {
    recovery_listeners_.push_back(std::move(l));
  }

  /// Schedule every fault edge on the engine.  Called once (idempotent);
  /// pfs::StripedFs does this when constructed with an injector.
  void start(simkit::Engine& eng);
  bool started() const noexcept { return started_; }

  // -- armed state (consulted by pfs on the request path) -----------------
  bool node_down(std::size_t io_node) const noexcept {
    return io_node < down_.size() && down_[io_node] > 0;
  }

  /// A disk registers itself so the Markov walk can reach its model.
  void attach_disk(std::size_t io_node, std::uint32_t disk,
                   hw::DiskModel* model) {
    disks_[key(io_node, disk)] = model;
  }

  void count_rejection() noexcept {
    ++rejected_requests_;
    if (m_rejections_) m_rejections_->inc();
  }

  // -- plan queries (no armed state needed) -------------------------------
  /// Earliest time >= now at which no crash window keeps a node down: the
  /// instant a recovery manager can expect requests to succeed again.
  simkit::Time all_up_by(simkit::Time now) const noexcept;

  /// Did a scrubbing crash hit `io_node` in (t0, t1]?  A checkpoint copy
  /// committed at t0 that stripes over this node is untrustworthy at t1 if
  /// so — the crash destroyed the node's stored data.
  bool node_scrubbed_in(std::size_t io_node, simkit::Time t0,
                        simkit::Time t1) const noexcept;

  // -- counters -----------------------------------------------------------
  std::uint64_t rejected_requests() const noexcept {
    return rejected_requests_;
  }
  /// Markov disk-state entries (healthy excluded), split by severity.
  std::uint64_t sticky_transitions() const noexcept {
    return sticky_transitions_;
  }
  std::uint64_t stuck_transitions() const noexcept {
    return stuck_transitions_;
  }

 private:
  static std::uint64_t key(std::size_t node, std::uint32_t disk) {
    return (static_cast<std::uint64_t>(node) << 32) | disk;
  }

  simkit::Task<void> arm_crash(std::size_t node, bool scrub);
  simkit::Task<void> clear_crash(std::size_t node);
  simkit::Task<void> markov_step(std::uint64_t disk_key, double factor,
                                 int state);
  void schedule_markov(simkit::Engine& eng);

  InjectionPlan plan_;
  bool started_ = false;
  // Overlapping windows nest: a node is down while its count is positive.
  std::vector<int> down_;
  std::map<std::uint64_t, hw::DiskModel*> disks_;
  std::vector<CrashListener> crash_listeners_;
  std::vector<RecoveryListener> recovery_listeners_;
  std::uint64_t rejected_requests_ = 0;
  std::uint64_t sticky_transitions_ = 0;
  std::uint64_t stuck_transitions_ = 0;
  // Resolved once in start(); null when no registry is installed.  Metric
  // increments piggyback on existing events so observation never changes
  // the schedule.
  metrics::Counter* m_crashes_ = nullptr;
  metrics::Counter* m_rejections_ = nullptr;
  metrics::Counter* m_disk_transitions_ = nullptr;
};

}  // namespace fault
