// apps/common.hpp — shared result record, work split and run epilogue
// for application runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "simkit/time.hpp"
#include "trace/tracer.hpp"

namespace apps {

/// What every application run reports: wall (simulated) execution time,
/// aggregate I/O time summed over processes (how the paper's tables count
/// it), and the merged Pablo-style trace.
struct RunResult {
  simkit::Duration exec_time = 0.0;     // simulated wall time of the job
  simkit::Duration io_time = 0.0;       // sum of per-process I/O time
  simkit::Duration io_wall = 0.0;       // wall-clock time spent in I/O
  simkit::Duration compute_time = 0.0;  // sum of per-process compute time
  std::uint64_t io_bytes = 0;
  std::uint64_t io_calls = 0;
  trace::IoTracer trace;                // merged across all processes

  /// Aggregate bandwidth over the job's wall I/O time (MB/s), the paper's
  /// Figure 7 metric (falls back to summed I/O time if wall unknown).
  double io_bandwidth_mb_s() const {
    const double t = io_wall > 0 ? io_wall : io_time;
    return t > 0 ? static_cast<double>(io_bytes) / 1e6 / t : 0.0;
  }

  /// For barrier-phased applications (compute then I/O per step), the
  /// wall I/O time is execution minus the per-process compute share.
  void derive_io_wall(int nprocs) {
    io_wall = std::max(0.0, exec_time - compute_time / nprocs);
  }
};

/// How many of `total` integrals each of `nprocs` ranks evaluates (SCF
/// 1.1 and 3.0): rank r's share is weighted by a deterministic imbalance
/// factor in [1-imb, 1+imb], and the shares are rounded down.
inline std::vector<std::uint64_t> split_integrals(std::uint64_t total,
                                                  int nprocs, double imb) {
  const auto n = static_cast<std::size_t>(nprocs);
  std::vector<double> weights(n, 1.0);
  double weight_sum = 0.0;
  for (int r = 0; r < nprocs; ++r) {
    if (nprocs > 1) {
      // Spread ranks evenly over [-1, 1] with a fixed permutation-ish hash.
      const double u =
          2.0 * (static_cast<double>((r * 2654435761u) % 1000) / 999.0) -
          1.0;
      weights[static_cast<std::size_t>(r)] = 1.0 + imb * u;
    }
    weight_sum += weights[static_cast<std::size_t>(r)];
  }
  std::vector<std::uint64_t> shares(n);
  for (std::size_t r = 0; r < n; ++r) {
    shares[r] = static_cast<std::uint64_t>(static_cast<double>(total) *
                                           weights[r] / weight_sum);
  }
  return shares;
}

/// Publish a finished run's phase totals as apps.<app>.* instruments in
/// the installed metrics registry (no-op when metrics are off).  Gauges
/// rather than counters for the time totals so repeated runs in one scope
/// (e.g. a bench sweep) keep per-run extremes instead of a meaningless
/// sum.
inline void publish_run_metrics(const std::string& app, const RunResult& r) {
  metrics::Registry* reg = metrics::current();
  if (!reg) return;
  const std::string prefix = "apps." + app + ".";
  reg->gauge(prefix + "exec_s").set(r.exec_time);
  reg->gauge(prefix + "io_s").set(r.io_time);
  reg->gauge(prefix + "io_wall_s").set(r.io_wall);
  reg->gauge(prefix + "compute_s").set(r.compute_time);
  reg->counter(prefix + "io_bytes").inc(r.io_bytes);
  reg->counter(prefix + "io_calls").inc(r.io_calls);
}

/// What each rank of a traced run accumulates: its own Pablo-style trace
/// and the simulated time it spent computing.
struct RankTally {
  trace::IoTracer tracer;
  simkit::Duration compute_time = 0.0;
};

/// Which traced bytes a run's bandwidth counts.
enum class IoBytes { kAll, kWritten };

/// The epilogue of a traced run over one rank context per process (each
/// a RankTally): merge the ranks' traces in rank order, sum their compute
/// time, take I/O time and calls from the merged trace, derive the wall
/// I/O time and publish the apps.<app>.* instruments.
template <class Rank>
RunResult finish_run(const std::string& app, simkit::Duration exec_time,
                     const std::vector<std::unique_ptr<Rank>>& ranks,
                     IoBytes counted) {
  RunResult res;
  res.exec_time = exec_time;
  for (const auto& r : ranks) {
    res.trace.merge(r->tracer);
    res.compute_time += r->compute_time;
  }
  res.io_time = res.trace.total_io_time();
  res.io_bytes = counted == IoBytes::kAll
                     ? res.trace.total_bytes()
                     : res.trace.summary(pfs::OpKind::kWrite).bytes;
  res.io_calls = res.trace.total_ops();
  res.derive_io_wall(static_cast<int>(ranks.size()));
  publish_run_metrics(app, res);
  return res;
}

}  // namespace apps
