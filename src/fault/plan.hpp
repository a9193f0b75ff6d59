// fault/plan.hpp — declarative fault schedules for the simulated machine.
//
// An InjectionPlan is pure data: I/O-node crash windows (independent or
// rack-correlated) and the horizon of a Markov disk-arm walk, all in
// absolute simulated time.  The same plan + the same seed replays
// bit-identically (the simulator's core promise extends to faulty runs).
// Plans are armed at runtime by fault::Injector, whose clock flips state
// at the planned instants.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/time.hpp"

namespace fault {

/// Fail-stop crash of a whole I/O node: every request arriving during
/// [crash, reboot) is rejected with pfs::IoError.  The node serves
/// normally again from `reboot` on.
///
/// `scrub` distinguishes power-loss semantics from a clean reboot: a
/// scrubbing crash (rack/switch power event) destroys data the node
/// stored before `crash` — write-behind buffers and staged local files
/// are gone when it comes back.  Recovery layers consult
/// Injector::node_scrubbed_in to decide whether a checkpoint copy that
/// striped over this node is still trustworthy.  Plain crashes (the
/// default) keep data intact, so pre-existing plans replay identically.
struct NodeCrashWindow {
  std::size_t io_node = 0;
  simkit::Time crash = 0.0;
  simkit::Time reboot = 0.0;
  bool scrub = false;
};

/// A correlated outage of one failure domain (every I/O node behind a
/// rack switch goes down together).  Bookkeeping only: building one also
/// materializes per-member NodeCrashWindows, which is what the injector
/// arms — so the runtime crash path is identical for correlated and
/// independent faults, and only reporting and placement logic care.
struct DomainOutage {
  std::size_t domain = 0;
  simkit::Time start = 0.0;
  simkit::Time end = 0.0;
};

struct InjectionPlan {
  std::vector<NodeCrashWindow> crashes;
  std::vector<DomainOutage> domain_outages;
  /// Continuous-time Markov model of disk-arm sticking: when positive,
  /// each attached disk walks healthy -> sticky -> (stuck | healthy) ->
  /// ... on a stream split from `seed`, with exponential dwells and
  /// service-time stretches fixed in fault/injector.cpp.  Transitions
  /// stop at this horizon, after which every disk heals permanently.
  /// 0 (the default) leaves the disks alone.
  simkit::Time markov_horizon = 0.0;
  std::uint64_t seed = 0x5EEDFA17u;

  // -- builder helpers ----------------------------------------------------
  InjectionPlan& crash_node(std::size_t io_node, simkit::Time crash,
                            simkit::Time reboot, bool scrub = false);

  /// Take a whole failure domain down together: records a DomainOutage
  /// and materializes one scrubbing (by default) crash window per member
  /// node, since a rack power event loses what those nodes stored.
  InjectionPlan& outage_domain(std::size_t domain,
                               const std::vector<std::uint32_t>& members,
                               simkit::Time start, simkit::Time end,
                               bool scrub = true);
  /// Walk every attached disk's Markov chain over [0, horizon).
  InjectionPlan& with_markov_disks(simkit::Time horizon);

  /// Deterministic random crash schedule: exponential inter-crash gaps
  /// with mean `mtbf` seconds over [0, horizon), each crash taking down a
  /// uniformly chosen I/O node for `outage` seconds.  Windows on the same
  /// node may overlap; the injector treats the union as down-time.
  static InjectionPlan poisson_node_crashes(std::size_t io_nodes, double mtbf,
                                            double outage,
                                            simkit::Time horizon,
                                            std::uint64_t seed);

  /// MTBF-matched correlated schedule: the same exponential event process
  /// as poisson_node_crashes (mean gap `mtbf`), but a fraction
  /// `correlated_fraction` of events are rack-scoped — a uniformly chosen
  /// failure domain of `nodes_per_domain` consecutive I/O nodes loses
  /// power together (scrubbing every member by default; pass
  /// `scrub_domains = false` for correlated-but-clean crashes where disk
  /// contents and redo logs survive the outage), while the rest crash one
  /// uniform node cleanly.  Event *instants* depend only on (seed, mtbf,
  /// horizon), so sweeping the fraction compares identical fault clocks
  /// with different blast radii.
  static InjectionPlan correlated_node_crashes(
      std::size_t io_nodes, std::size_t nodes_per_domain, double mtbf,
      double outage, double correlated_fraction, simkit::Time horizon,
      std::uint64_t seed, bool scrub_domains = true);
};

}  // namespace fault
