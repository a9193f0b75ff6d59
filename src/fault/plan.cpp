#include "fault/plan.hpp"

#include <algorithm>

#include "simkit/rng.hpp"

namespace fault {

InjectionPlan& InjectionPlan::crash_node(std::size_t io_node,
                                         simkit::Time crash,
                                         simkit::Time reboot, bool scrub) {
  crashes.push_back(NodeCrashWindow{io_node, crash, reboot, scrub});
  return *this;
}

InjectionPlan& InjectionPlan::outage_domain(
    std::size_t domain, const std::vector<std::uint32_t>& members,
    simkit::Time start, simkit::Time end, bool scrub) {
  domain_outages.push_back(DomainOutage{domain, start, end});
  for (const std::uint32_t m : members) {
    crashes.push_back(NodeCrashWindow{m, start, end, scrub});
  }
  return *this;
}

InjectionPlan& InjectionPlan::with_markov_disks(simkit::Time horizon) {
  markov_horizon = horizon;
  return *this;
}

InjectionPlan InjectionPlan::poisson_node_crashes(std::size_t io_nodes,
                                                  double mtbf, double outage,
                                                  simkit::Time horizon,
                                                  std::uint64_t seed) {
  InjectionPlan plan;
  plan.seed = seed;
  if (io_nodes == 0 || mtbf <= 0.0) return plan;
  simkit::Rng rng(seed);
  simkit::Time t = 0.0;
  for (;;) {
    t += rng.exponential(mtbf);
    if (t >= horizon) break;
    const auto node = static_cast<std::size_t>(rng.uniform_int(io_nodes));
    plan.crash_node(node, t, t + outage);
  }
  return plan;
}

InjectionPlan InjectionPlan::correlated_node_crashes(
    std::size_t io_nodes, std::size_t nodes_per_domain, double mtbf,
    double outage, double correlated_fraction, simkit::Time horizon,
    std::uint64_t seed, bool scrub_domains) {
  InjectionPlan plan;
  plan.seed = seed;
  if (io_nodes == 0 || mtbf <= 0.0) return plan;
  const std::size_t fan =
      nodes_per_domain == 0 ? 1 : std::min(nodes_per_domain, io_nodes);
  const std::size_t domains = (io_nodes + fan - 1) / fan;
  simkit::Rng rng(seed);
  simkit::Time t = 0.0;
  for (;;) {
    t += rng.exponential(mtbf);
    if (t >= horizon) break;
    // Exactly three draws per event regardless of outcome, so the event
    // clock is invariant under correlated_fraction sweeps.
    const bool burst = rng.uniform() < correlated_fraction;
    const double pick = rng.uniform();
    if (burst) {
      const auto d = std::min(domains - 1,
                              static_cast<std::size_t>(pick * domains));
      std::vector<std::uint32_t> members;
      const std::size_t lo = d * fan;
      const std::size_t hi = std::min(lo + fan, io_nodes);
      members.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) {
        members.push_back(static_cast<std::uint32_t>(i));
      }
      plan.outage_domain(d, members, t, t + outage, scrub_domains);
    } else {
      const auto node = std::min(io_nodes - 1,
                                 static_cast<std::size_t>(pick * io_nodes));
      plan.crash_node(node, t, t + outage);
    }
  }
  return plan;
}

}  // namespace fault
