#include "exp/report.hpp"

#include <algorithm>

namespace expt {

namespace {

constexpr auto kKinds = static_cast<std::size_t>(pfs::OpKind::kCount);

std::string pct(double part, double whole) {
  return fmt("%.2f", whole > 0 ? 100.0 * part / whole : 0.0);
}

}  // namespace

Table io_summary_table(const trace::IoTracer& tracer,
                       simkit::Duration exec_time) {
  Table table({"Oper", "Oper Count", "I/O Time (s)", "Vol (GB)", "% of I/O",
               "% of exec"});
  const double io_total = tracer.total_io_time();
  auto add = [&](std::string name, std::uint64_t count, double time_s,
                 std::uint64_t bytes) {
    table.add_row({std::move(name), fmt_u64(count), fmt("%.2f", time_s),
                   bytes > 0 ? fmt("%.2f", static_cast<double>(bytes) / 1e9)
                             : "",
                   pct(time_s, io_total), pct(time_s, exec_time)});
  };
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<pfs::OpKind>(k);
    const trace::KindSummary& s = tracer.summary(kind);
    if (s.count() > 0) {
      add(std::string(pfs::to_string(kind)), s.count(), s.time(), s.bytes);
    }
  }
  add("All I/O", tracer.total_ops(), io_total, tracer.total_bytes());
  return table;
}

Table latency_table(const trace::IoTracer& tracer) {
  Table table({"Oper", "mean ms", "~p50 ms", "~p99 ms", "max ms"});
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<pfs::OpKind>(k);
    const metrics::Histogram& h = tracer.summary(kind).latency;
    if (h.count() == 0) continue;
    table.add_row({std::string(pfs::to_string(kind)),
                   fmt("%.2f", h.mean() * 1e3),
                   fmt("%.2f", h.percentile(0.50) * 1e3),
                   fmt("%.2f", h.percentile(0.99) * 1e3),
                   fmt("%.2f", h.max() * 1e3)});
  }
  return table;
}

IoNodeUtilization io_node_utilization(const pfs::StripedFs& fs,
                                      std::size_t node, double elapsed) {
  // StripedFs::io_node is non-const; counters are logically const.
  auto& mut = const_cast<pfs::StripedFs&>(fs);
  const pfs::IoNode& n = mut.io_node(node);
  IoNodeUtilization u;
  u.node_index = node;
  u.requests = n.requests_served();
  u.disk_reads = n.disk_reads();
  u.disk_writes = n.disk_writes();
  u.cache_hits = n.cache().hits();
  u.cache_misses = n.cache().misses();
  u.busy_fraction = elapsed > 0 ? std::min(1.0, n.busy_time() / elapsed)
                                : 0.0;
  return u;
}

std::string utilization_report(pfs::StripedFs& fs, double elapsed) {
  Table table({"io node", "requests", "disk rd", "disk wr", "hit rate",
               "busy"});
  std::uint64_t req = 0, rd = 0, wr = 0, hit = 0, miss = 0;
  double busy = 0.0;
  for (std::size_t i = 0; i < fs.io_node_count(); ++i) {
    const IoNodeUtilization u = io_node_utilization(fs, i, elapsed);
    req += u.requests;
    rd += u.disk_reads;
    wr += u.disk_writes;
    hit += u.cache_hits;
    miss += u.cache_misses;
    busy += u.busy_fraction;
    table.add_row({fmt_u64(u.node_index), fmt_u64(u.requests),
                   fmt_u64(u.disk_reads), fmt_u64(u.disk_writes),
                   fmt("%.0f%%", 100.0 * u.hit_rate()),
                   fmt("%.0f%%", 100.0 * u.busy_fraction)});
  }
  const double agg_hit =
      (hit + miss) ? 100.0 * static_cast<double>(hit) / (hit + miss) : 0.0;
  table.add_row({"all", fmt_u64(req), fmt_u64(rd), fmt_u64(wr),
                 fmt("%.0f%%", agg_hit),
                 fmt("%.0f%%", 100.0 * busy /
                                   static_cast<double>(fs.io_node_count()))});
  return table.str();
}

std::string metrics_report(const metrics::Registry& reg) {
  std::string out;
  if (!reg.counters().empty()) {
    Table t({"counter", "value"});
    for (const auto& [name, c] : reg.counters()) {
      t.add_row({name, fmt_u64(c.value())});
    }
    out += t.str();
  }
  if (!reg.gauges().empty()) {
    Table t({"gauge", "last", "min", "max", "n"});
    for (const auto& [name, g] : reg.gauges()) {
      t.add_row({name, fmt("%.4g", g.last()), fmt("%.4g", g.min()),
                 fmt("%.4g", g.max()), fmt_u64(g.count())});
    }
    out += t.str();
  }
  if (!reg.histograms().empty()) {
    Table t({"histogram", "n", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : reg.histograms()) {
      t.add_row({name, fmt_u64(h.count()), fmt("%.4g", h.mean()),
                 fmt("%.4g", h.percentile(0.50)),
                 fmt("%.4g", h.percentile(0.95)),
                 fmt("%.4g", h.percentile(0.99)), fmt("%.4g", h.max())});
    }
    out += t.str();
  }
  if (!reg.timeseries_map().empty()) {
    Table t({"timeseries", "points", "dropped", "interval"});
    for (const auto& [name, ts] : reg.timeseries_map()) {
      t.add_row({name, fmt_u64(ts.samples().size()), fmt_u64(ts.dropped()),
                 fmt("%.4g", ts.interval())});
    }
    out += t.str();
  }
  return out;
}

}  // namespace expt
