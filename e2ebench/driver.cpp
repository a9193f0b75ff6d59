// e2ebench/driver.cpp — one run of one workload in one thread.
//
// Builds every input of a workload itself through the libraries' public
// entry points (machine, striped FS, fault plan, job stream, cluster),
// runs it once, checks its invariants and prints one JSON record per line:
//
//   {"kind":"setup", ...}     --setup-only: the worlds built, not run
//   {"kind":"sim", ...}       the workload's simulations: set-up and run
//                             host seconds, spans around each layer call,
//                             the exact simulated outputs, failed checks
//   {"kind":"registry", ...}  --traced only: the metrics registry, merged
//                             over the workload's simulations
//   {"kind":"end", ...}       peak resident set of the process
//   {"kind":"probe", ...}     --probe: host seconds of a fixed sort, which
//                             run.py uses to gauge the host's speed
//
// Usage:
//   e2e_driver <stream_cache|stream_crash|xl_collective> --seed N
//              [--setup-only | --traced]
//   e2e_driver --probe
//
// Without --traced no metrics registry is installed.  Each process runs
// the workload once, so its peak resident set and allocator state do not
// depend on how many repetitions came before; run.py loops over processes.
// Set-up is timed from the start of main to the first simulated event,
// plus the set-up of any later world (xl_collective's hierarchical one).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "metrics/metrics.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pario/extent.hpp"
#include "pario/health.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "sched/arrival.hpp"
#include "sched/platform.hpp"
#include "simkit/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Start of main: the process's first world counts its set-up from here.
Clock::time_point g_main_start;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// What one workload run (or one set-up-only run) produced.
struct Record {
  double setup_s = 0.0;                 // host seconds building inputs
  std::map<std::string, double> spans;  // host seconds per layer call
  std::map<std::string, double> exact;  // deterministic simulated outputs
  std::vector<std::string> errors;      // failed invariants
  bool first_world = true;

  // Ends the set-up of a world that began at `start`; the first world of
  // the process counts from the start of main.
  void end_setup(Clock::time_point start) {
    setup_s += since(first_world ? g_main_start : start);
    first_world = false;
  }

  // Adds the host time since `t0` to span `name` and returns now, so
  // consecutive spans chain without gaps.
  Clock::time_point span(const char* name, Clock::time_point t0) {
    const Clock::time_point now = Clock::now();
    spans[name] += std::chrono::duration<double>(now - t0).count();
    return now;
  }
  void expect(bool ok, const char* what) {
    if (!ok) errors.emplace_back(what);
  }
};

// One exact output of a scenario point.
struct Pin {
  const char* key;
  double value;
};

void expect_pins(Record& rec, std::span<const Pin> pins) {
  for (const Pin& p : pins) {
    const auto it = rec.exact.find(p.key);
    if (it == rec.exact.end() || it->second != p.value) {
      rec.errors.push_back(
          std::string("scenario point: ") + p.key + " = " +
          (it == rec.exact.end() ? "missing" : num(it->second)) +
          ", expected " + num(p.value));
    }
  }
}

// ---------------------------------------------------------------------
// stream_cache / stream_crash: the platform_server_cache arc_ra point and
// the platform_server_faults journaled point.

constexpr std::size_t kComputeNodes = 64;
constexpr std::size_t kIoNodes = 8;
constexpr std::size_t kFanIn = 4;
constexpr int kJobs = 224;
constexpr double kStreamScale = 0.1;
constexpr double kMtbf = 120.0;
constexpr double kOutage = 6.0;
constexpr double kCorrelatedFraction = 0.25;
constexpr double kCrashHorizon = 300.0;
// The scenarios' default seed.  Its stream is the job mix every seed
// replays; see stream_jobs.
constexpr std::uint64_t kTuningSeed = 42;

// The tuning seed's outputs.  platform_server_cache prints the same
// makespan, hit rate, evictions and read-ahead counts for arc_ra, and
// platform_server_faults the same makespan, durability wait and replayed
// blocks for journaled; both report these event counts.
constexpr Pin kStreamCachePins[] = {
    {"events", 7823788},
    {"makespan_s", 1201.2227245943786},
    {"cache_hits", 25242},
    {"cache_misses", 416664},
    {"cache_evictions", 464571},
    {"disk_reads", 418572},
    {"disk_writes", 80220},
    {"readahead_issued", 2518},
    {"readahead_hits", 1255},
};
constexpr Pin kStreamCrashPins[] = {
    {"events", 8058438},
    {"makespan_s", 1302.4561944165696},
    {"durability_wait_s", 44472.991156526237},
    {"cache_hits", 18158},
    {"cache_misses", 424735},
    {"disk_reads", 432218},
    {"disk_writes", 82649},
    {"journal_appends", 98919},
    {"journal_replayed", 125},
    {"crashes_fired", 1},
    {"retry_retries", 74},
    {"audit_reads_checked", 442893},
};

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Submissions are reordered within consecutive blocks of this many jobs.
constexpr std::size_t kShuffleWindow = 8;

// The tuning seed's 224 jobs, submitted in a seed-chosen order: each
// arrival instant keeps its time and id, and within every block of
// kShuffleWindow consecutive arrivals the jobs' classes and per-job seeds
// are shuffled.  Independently generated streams differ 5x in work (and
// host time) from seed to seed, and a shuffle of the whole stream still
// moves peak memory by a third, which no run length can average out; a
// local reordering keeps the work and the burst structure fixed while
// the queueing, cache interference and crash timing it meets change with
// the seed.  The tuning seed keeps the generated order, so it replays
// the scenario point exactly.
std::vector<sched::Job> stream_jobs(std::uint64_t seed) {
  sched::ArrivalConfig ac;
  ac.mean_interarrival_s = 2.0;
  ac.max_jobs = kJobs;
  ac.burst_period_s = 120.0;
  ac.burst_len_s = 30.0;
  ac.burst_rate_multiplier = 4.0;
  std::vector<sched::Job> jobs =
      sched::generate(ac, sched::standard_mix(kStreamScale), kTuningSeed);
  if (seed == kTuningSeed) return jobs;
  std::uint64_t state = seed;
  for (std::size_t lo = 0; lo < jobs.size(); lo += kShuffleWindow) {
    const std::size_t n = std::min(kShuffleWindow, jobs.size() - lo);
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j =
          lo + static_cast<std::size_t>(splitmix64(state) % i);
      std::swap(jobs[lo + i - 1].klass, jobs[j].klass);
      std::swap(jobs[lo + i - 1].seed, jobs[j].seed);
    }
  }
  return jobs;
}

void stream_sim(bool crash, std::uint64_t seed, bool simulate,
                metrics::Registry* reg, Record& rec) {
  metrics::Registry local;
  std::optional<metrics::Scope> scope;
  if (reg) scope.emplace(local);

  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  mc.io.cache_bytes_per_io_node = 16ULL << 20;
  if (crash) {
    mc.io_nodes_per_switch = kFanIn;
    mc.io.server.policy = iosrv::PolicyKind::kArc;
    mc.io.server.readahead.enabled = true;
    mc.io.server.writeback.mode = iosrv::WritebackMode::kPool;
    mc.io.server.durability.policy = iosrv::DurabilityPolicy::kJournaled;
    mc.io.server.durability.crash_semantics = true;
  } else {
    iosrv::Config server;
    server.policy = iosrv::PolicyKind::kArc;
    server.readahead.enabled = true;
    mc.io.server = server;
  }
  hw::Machine machine(eng, mc);
  t = rec.span("setup.hw_s", t);

  std::optional<fault::Injector> injector;
  std::vector<simkit::Time> crash_times;
  std::optional<pario::HealthTracker> health;
  if (crash) {
    // Plain crashes only (scrub_domains=false): disks and redo logs
    // survive, so journaled durability must lose nothing.
    fault::InjectionPlan plan = fault::InjectionPlan::correlated_node_crashes(
        kIoNodes, kFanIn, kMtbf, kOutage, kCorrelatedFraction, kCrashHorizon,
        seed, /*scrub_domains=*/false);
    for (const fault::NodeCrashWindow& w : plan.crashes) {
      crash_times.push_back(w.crash);
    }
    injector.emplace(std::move(plan));
    health.emplace(kIoNodes);
  }
  t = rec.span("setup.fault_s", t);

  pfs::StripedFs fs(machine, injector ? &*injector : nullptr);
  t = rec.span("setup.pfs_s", t);

  std::vector<sched::Job> jobs = stream_jobs(seed);
  t = rec.span("setup.sched_generate_s", t);

  sched::PlatformOptions po;
  if (crash) {
    po.retry.max_attempts = 7;
    po.retry.backoff_ms = 200.0;
    po.retry.backoff_multiplier = 2.0;
    po.retry.health = &*health;
  }
  audit::Ledger ledger;
  sched::PlatformReport rep;
  rec.end_setup(start);
  if (!simulate) return;
  t = Clock::now();
  {
    std::optional<audit::Scope> audit_scope;
    if (crash) audit_scope.emplace(ledger);
    rep = sched::run(machine, fs, injector ? &*injector : nullptr,
                     std::move(jobs), po);
  }
  rec.span("run_s", t);

  std::uint64_t fired = 0;
  for (simkit::Time c : crash_times) fired += c <= rep.makespan ? 1 : 0;
  const audit::Totals& a = ledger.totals();
  auto& x = rec.exact;
  x["events"] = static_cast<double>(eng.events_processed());
  x["clamped_schedules"] = static_cast<double>(eng.clamped_schedules());
  x["jobs"] = static_cast<double>(rep.jobs.size());
  x["jobs_completed"] = rep.completed_jobs;
  x["makespan_s"] = rep.makespan;
  x["wasted_node_s"] = rep.wasted_node_s;
  x["durability_wait_s"] = rep.durability_wait_s;
  x["restarts"] = rep.total_restarts;
  x["cache_hits"] = static_cast<double>(rep.cache_hits);
  x["cache_misses"] = static_cast<double>(rep.cache_misses);
  x["cache_evictions"] = static_cast<double>(rep.cache_evictions);
  x["disk_reads"] = static_cast<double>(rep.disk_reads);
  x["disk_writes"] = static_cast<double>(rep.disk_writes);
  x["readahead_issued"] = static_cast<double>(rep.readahead_issued);
  x["readahead_hits"] = static_cast<double>(rep.readahead_hits);
  x["retry_attempts"] = static_cast<double>(rep.retry.attempts);
  x["retry_retries"] = static_cast<double>(rep.retry.retries);
  x["lost_dirty_blocks"] = static_cast<double>(rep.lost_dirty_blocks);
  x["lost_bytes"] = static_cast<double>(rep.lost_bytes);
  x["cache_invalidations"] = static_cast<double>(rep.cache_invalidations);
  x["journal_appends"] = static_cast<double>(rep.journal_appends);
  x["journal_replayed"] = static_cast<double>(rep.journal_replayed);
  x["crashes_fired"] = static_cast<double>(fired);
  x["audit_violations"] = static_cast<double>(a.violations());
  x["audit_reads_checked"] = static_cast<double>(a.reads_checked);

  rec.expect(rep.jobs.size() == kJobs && rep.completed_jobs == kJobs,
             "every job of the 224-job stream completes");
  rec.expect(eng.clamped_schedules() == 0, "no past-time schedule");
  if (crash) {
    rec.expect(a.violations() == 0, "journaled: zero audited violations");
    rec.expect(rep.lost_bytes == 0 && a.lost_bytes == 0,
               "journaled: zero lost acked bytes");
    rec.expect(fired == 0 || rep.journal_replayed > 0,
               "crashes fired, so the redo log replayed");
  }
  if (seed == kTuningSeed) {
    expect_pins(rec, crash ? std::span<const Pin>(kStreamCrashPins)
                           : std::span<const Pin>(kStreamCachePins));
  }
  if (reg) reg->merge(local);
}

// ---------------------------------------------------------------------
// xl_collective: the figure2_xl 2048-rank flat/64io and hier/64io points,
// one two-phase collective read step of 128 MiB each.

constexpr int kXlProcs = 2048;
constexpr std::size_t kXlIoNodes = 64;
constexpr std::uint64_t kRecBytes = 64 * 1024;
constexpr std::uint64_t kTotalBytes = 128ULL << 20;
constexpr std::uint64_t kRecs = kTotalBytes / kRecBytes;

// figure2_xl prints the same exec times at 2048 procs for flat/64io and
// hier/64io, and reports these event counts.
constexpr Pin kXlPins[] = {
    {"flat.events", 18957681},
    {"flat.exec_s", 0.26405080381573348},
    {"hier.events", 138523},
    {"hier.exec_s", 0.099899307466565238},
};

std::vector<pario::Extent> step_pieces(int rank) {
  std::vector<pario::Extent> out;
  std::uint64_t buf = 0;
  for (std::uint64_t i = static_cast<std::uint64_t>(rank); i < kRecs;
       i += static_cast<std::uint64_t>(kXlProcs)) {
    out.push_back(pario::Extent{i * kRecBytes, kRecBytes, buf});
    buf += kRecBytes;
  }
  return out;
}

// Returns the alltoallv message count when a registry is installed.
std::uint64_t xl_sim(bool hier, bool simulate, metrics::Registry* reg,
                     Record& rec) {
  metrics::Registry local;
  std::optional<metrics::Scope> scope;
  if (reg) scope.emplace(local);

  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  simkit::Engine eng;
  hw::Machine machine(eng,
                      hw::MachineConfig::paragon_xl(kXlProcs, kXlIoNodes));
  t = rec.span("setup.hw_s", t);
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("xl_dump");
  t = rec.span("setup.pfs_s", t);
  mprt::Cluster cluster(machine, kXlProcs);
  if (hier) {
    // One aggregator (group leader) per I/O server.
    cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel,
                          kXlProcs / static_cast<int>(kXlIoNodes)});
  }
  t = rec.span("setup.mprt_s", t);
  rec.end_setup(start);
  if (!simulate) return 0;

  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& cm) -> simkit::Task<void> {
    co_await pario::TwoPhase::read(cm, fs, f, step_pieces(cm.rank()));
  };
  t = Clock::now();
  eng.spawn(cluster.run(body));
  eng.run();
  rec.span("run_s", t);

  const std::string tag = hier ? "hier." : "flat.";
  rec.exact[tag + "events"] = static_cast<double>(eng.events_processed());
  rec.exact[tag + "exec_s"] = eng.now();
  rec.exact[tag + "clamped_schedules"] =
      static_cast<double>(eng.clamped_schedules());
  rec.expect(eng.clamped_schedules() == 0, "no past-time schedule");
  const std::uint64_t msgs = local.counter("mprt.alltoall.msgs").value();
  if (reg) reg->merge(local);
  return msgs;
}

// ---------------------------------------------------------------------

enum class Workload { kStreamCache, kStreamCrash, kXlCollective };

std::optional<Workload> parse_workload(std::string_view s) {
  if (s == "stream_cache") return Workload::kStreamCache;
  if (s == "stream_crash") return Workload::kStreamCrash;
  if (s == "xl_collective") return Workload::kXlCollective;
  return std::nullopt;
}

Record run_workload(Workload w, std::uint64_t seed, bool simulate,
                    metrics::Registry* reg) {
  Record rec;
  try {
    if (w == Workload::kXlCollective) {
      const std::uint64_t flat = xl_sim(false, simulate, reg, rec);
      const std::uint64_t hier = xl_sim(true, simulate, reg, rec);
      if (simulate) {
        rec.expect(rec.exact["hier.exec_s"] < rec.exact["flat.exec_s"],
                   "2048 nodes: hier/64io beats flat/64io");
        rec.expect(!reg || (hier > 0 && 10 * hier <= flat),
                   "hier cuts alltoallv messages >= 10x vs flat");
        expect_pins(rec, kXlPins);
      }
    } else {
      stream_sim(w == Workload::kStreamCrash, seed, simulate, reg, rec);
    }
  } catch (const std::exception& e) {
    rec.errors.push_back(std::string("exception: ") + e.what());
  }
  return rec;
}

// --- JSON output ------------------------------------------------------

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + num(v);
  }
  return out + "}";
}

void print_record(const char* kind, const Record& r) {
  std::string errs = "[";
  for (const std::string& e : r.errors) {
    if (errs.size() > 1) errs += ",";
    errs += quote(e);
  }
  errs += "]";
  std::printf(
      "{\"kind\":%s,\"setup_s\":%s,\"spans\":%s,\"exact\":%s,"
      "\"errors\":%s}\n",
      quote(kind).c_str(), num(r.setup_s).c_str(),
      object(r.spans).c_str(), object(r.exact).c_str(), errs.c_str());
  std::fflush(stdout);
}

void print_registry(const metrics::Registry& reg) {
  std::map<std::string, double> values;
  for (const auto& [name, c] : reg.counters()) {
    values[name] = static_cast<double>(c.value());
  }
  for (const auto& [name, g] : reg.gauges()) values[name] = g.last();
  for (const auto& [name, h] : reg.histograms()) {
    values[name + ".p50"] = h.percentile(0.5);
    values[name + ".p99"] = h.percentile(0.99);
  }
  std::printf("{\"kind\":\"registry\",\"values\":%s}\n",
              object(values).c_str());
}

// --- host speed probe ---------------------------------------------------

// Sorts a fixed pseudo-random array kProbeRounds times and returns the
// mean host seconds of one sort.  Its unpredictable branches and its 8 MiB
// of cache traffic slow down on a busy shared host much as the
// simulations do, so run.py scales wall_s by the probe times taken
// between the simulations.  No simulator code runs here: a change to the
// simulator cannot move the probe.
constexpr std::size_t kProbeWords = 1 << 20;
constexpr int kProbeRounds = 3;

double probe_s() {
  std::vector<std::uint64_t> v(kProbeWords);
  double total = 0.0;
  for (int round = 0; round < kProbeRounds; ++round) {
    std::uint64_t x = kTuningSeed;
    for (std::uint64_t& w : v) w = splitmix64(x);
    const Clock::time_point t0 = Clock::now();
    std::sort(v.begin(), v.end());
    total += since(t0);
    if (!std::is_sorted(v.begin(), v.end())) std::abort();
  }
  return total / kProbeRounds;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_driver: %s\nusage: e2e_driver "
               "<stream_cache|stream_crash|xl_collective> --seed N "
               "[--setup-only | --traced]\n"
               "       e2e_driver --probe\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected a whole number");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  g_main_start = Clock::now();
  if (argc < 2) usage("missing workload");
  if (argc == 2 && std::string_view(argv[1]) == "--probe") {
    std::printf("{\"kind\":\"probe\",\"probe_s\":%s}\n", num(probe_s()).c_str());
    return 0;
  }
  const std::optional<Workload> w = parse_workload(argv[1]);
  if (!w) usage("unknown workload");
  std::optional<std::uint64_t> seed;
  bool setup_only = false;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      seed = parse_u64(argv[++i]);
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--traced") {
      traced = true;
    } else {
      usage("bad argument");
    }
  }
  if (!seed) usage("--seed is required");
  if (setup_only && traced) usage("--setup-only excludes --traced");

  if (setup_only) {
    print_record("setup", run_workload(*w, *seed, false, nullptr));
    return 0;
  }
  metrics::Registry reg;
  print_record("sim", run_workload(*w, *seed, true, traced ? &reg : nullptr));
  if (traced) print_registry(reg);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"kind\":\"end\",\"peak_rss_mb\":%s}\n",
              num(static_cast<double>(ru.ru_maxrss) / 1024.0).c_str());
  return 0;
}
