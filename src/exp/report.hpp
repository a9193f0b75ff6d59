// exp/report.hpp — post-run reporting: Pablo-style I/O summaries and
// resource utilization.
//
// The paper's evidence is per-operation I/O summaries (Tables 2 and 3)
// and its contention argument ("as the number of compute nodes
// increases so does the contention at the I/O nodes") in numbers: per-
// I/O-node served requests, disk operations, cache hit rates, and busy
// fraction over the run.
#pragma once

#include <string>

#include "exp/table.hpp"
#include "metrics/metrics.hpp"
#include "pfs/fs.hpp"
#include "simkit/time.hpp"
#include "trace/tracer.hpp"

namespace expt {

struct IoNodeUtilization {
  std::size_t node_index = 0;
  std::uint64_t requests = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double busy_fraction = 0.0;  // busy time / elapsed

  double hit_rate() const {
    const auto total = cache_hits + cache_misses;
    return total ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// The paper's Table 2/3 layout: one row per operation kind that ran
/// plus an "All I/O" footer, with % of I/O time and % of `exec_time`.
Table io_summary_table(const trace::IoTracer& tracer,
                       simkit::Duration exec_time);

/// Per-operation latency in ms: exact mean and max, and ~p50/~p99 read
/// off the histogram's bucket edges (clamped into [min, max]) — the
/// distributional view Pablo's analysis tools computed.
Table latency_table(const trace::IoTracer& tracer);

/// Snapshot one I/O node's counters relative to `elapsed` simulated time.
IoNodeUtilization io_node_utilization(const pfs::StripedFs& fs,
                                      std::size_t node, double elapsed);

/// ASCII table over all I/O nodes plus an aggregate row.
std::string utilization_report(pfs::StripedFs& fs, double elapsed);

/// ASCII tables over every instrument in the registry: counters, gauges,
/// histograms (count/mean/p50/p95/p99/max), and timeseries summaries.
/// Empty string for an empty registry.
std::string metrics_report(const metrics::Registry& reg);

}  // namespace expt
