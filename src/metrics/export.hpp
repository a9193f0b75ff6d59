// metrics/export.hpp — schema-stable JSON rendering of a Registry.
//
// It iterates the registry's name-sorted maps and formats numbers with
// fixed printf conversions, so two runs that produce the same metric
// values emit byte-identical files — the determinism tests rely on it.
#pragma once

#include <string>

#include "metrics/metrics.hpp"

namespace metrics {

/// Schema identifier embedded in every JSON export.
inline constexpr const char* kJsonSchema = "iosim.metrics.v1";

/// {"schema": ..., "counters": {...}, "gauges": {...},
///  "histograms": {...}, "timeseries": {...}} — histogram entries carry
/// unit/count/sum/min/max/mean/p50/p95/p99, timeseries entries carry the
/// interval and the [t, value] sample pairs.
std::string to_json(const Registry& reg);

/// Write to_json(reg) to `path`.  Returns false on I/O failure.
bool write_json_file(const Registry& reg, const std::string& path);

}  // namespace metrics
