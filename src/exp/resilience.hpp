// exp/resilience.hpp — reporting for fault-injection + checkpoint runs.
//
// Renders a ckpt::Report (plus the injector's own counters) as the
// lost-work / checkpoint-overhead / time-to-recovery split that the
// optimal-checkpoint-interval analysis reasons about.
#pragma once

#include <string>

#include "ckpt/ckpt.hpp"
#include "exp/table.hpp"
#include "fault/injector.hpp"

namespace expt {

/// One-run breakdown of where the execution time went: productive work,
/// checkpoint overhead, lost work and time to recovery, with % of exec.
Table resilience_table(const ckpt::Report& rep);

/// The lines that follow the table: what the checkpoint, retry and fault
/// layers did during the run.  `injector` may be null (fault-free runs).
std::string resilience_summary(const ckpt::Report& rep,
                               const fault::Injector* injector);

}  // namespace expt
