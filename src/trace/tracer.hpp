// trace/tracer.hpp — Pablo-style application-level I/O tracing.
//
// The paper instruments SCF 1.1 with the Pablo I/O tracing library and
// reports per-operation summaries (Tables 2 and 3): operation count, total
// time, volume, % of I/O time and % of execution time.  IoTracer collects
// exactly that, per operation kind, with optional per-op event retention
// for fine-grained analysis.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/metrics.hpp"
#include "pfs/types.hpp"
#include "simkit/time.hpp"

namespace trace {

struct OpRecord {
  pfs::OpKind kind;
  simkit::Time start;
  simkit::Duration duration;
  std::uint64_t bytes;
};

struct KindSummary {
  std::uint64_t bytes = 0;
  /// Per-op durations: exact count/sum/mean/min/max, bucketed quantiles.
  metrics::Histogram latency{1e-6};

  std::uint64_t count() const noexcept { return latency.count(); }
  simkit::Duration time() const noexcept { return latency.sum(); }
};

class IoTracer final : public pfs::IoObserver {
 public:
  /// keep_events: retain every OpRecord (memory ~ op count).  Aggregates
  /// are always collected.
  explicit IoTracer(bool keep_events = false) : keep_events_(keep_events) {}

  void record(pfs::OpKind kind, simkit::Time start, simkit::Duration dur,
              std::uint64_t bytes) override {
    auto& s = byKind_[static_cast<std::size_t>(kind)];
    s.bytes += bytes;
    s.latency.observe(dur);
    if (keep_events_) events_.push_back({kind, start, dur, bytes});
  }

  /// Merge another tracer (e.g. per-rank tracers into a job-wide one).
  void merge(const IoTracer& other) {
    for (std::size_t k = 0; k < byKind_.size(); ++k) {
      byKind_[k].bytes += other.byKind_[k].bytes;
      byKind_[k].latency.merge(other.byKind_[k].latency);
    }
    if (keep_events_) {
      events_.insert(events_.end(), other.events_.begin(),
                     other.events_.end());
    }
  }

  const KindSummary& summary(pfs::OpKind k) const {
    return byKind_[static_cast<std::size_t>(k)];
  }
  const std::vector<OpRecord>& events() const noexcept { return events_; }

  std::uint64_t total_ops() const;
  simkit::Duration total_io_time() const;
  std::uint64_t total_bytes() const;

  void clear();

 private:
  bool keep_events_;
  std::array<KindSummary, static_cast<std::size_t>(pfs::OpKind::kCount)>
      byKind_{};
  std::vector<OpRecord> events_;
};

}  // namespace trace
