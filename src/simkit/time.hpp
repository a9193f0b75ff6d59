// simkit/time.hpp — simulated-time representation.
//
// Simulated time is a double-precision count of seconds since the start of
// the simulation.  Event ordering never relies on exact floating-point
// comparison alone: the engine breaks ties with a monotonically increasing
// sequence number, so two events scheduled for the same instant run in the
// order they were scheduled (deterministic replay).
#pragma once

#include <limits>

namespace simkit {

/// Simulated time in seconds.
using Time = double;

/// A duration in simulated seconds (same representation as Time).
using Duration = double;

inline constexpr Time kTimeZero = 0.0;
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Convenience unit helpers so call sites read as physics, not magic numbers.
constexpr Duration seconds(double s) { return s; }
constexpr Duration milliseconds(double ms) { return ms * 1e-3; }
constexpr Duration microseconds(double us) { return us * 1e-6; }

}  // namespace simkit
