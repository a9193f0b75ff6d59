// exp/resilience.hpp — reporting for fault-injection + checkpoint runs.
//
// Renders a ckpt::Report (plus the injector's own counters) as the
// lost-work / checkpoint-overhead / time-to-recovery split that the
// optimal-checkpoint-interval analysis reasons about.
#pragma once

#include <string>

#include "ckpt/ckpt.hpp"
#include "fault/injector.hpp"

namespace expt {

/// One-run breakdown: where the execution time went and what the fault
/// layer did to it.  `injector` may be null (fault-free runs).
std::string resilience_report(const ckpt::Report& rep,
                              const fault::Injector* injector);

}  // namespace expt
