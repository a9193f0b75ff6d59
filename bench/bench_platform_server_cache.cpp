// Scenario "platform_server_cache" — the iosrv smart-server knobs under
// the PR 6 multi-tenant platform: one 224-job stream (five paper apps,
// bursty arrivals) replayed on one shared striped FS whose servers
// differ only in cache policy / read-ahead.
//
// This is where the single-tenant wins have to survive interference:
// step re-reads (SCF-style jobs) compete with other tenants' step dumps
// and checkpoint bursts for the same server caches — the scan pollution
// ARC resists — and per-node step slices are the sequential runs the
// pattern tracker detects.  No fault injection here, deliberately: a
// crash mid-stream couples I/O speed to retry traffic and which jobs
// happen to be in flight, burying the policy signal under scheduling
// lottery (the fault scenarios own that axis).  The headline check is
// platform-economic, not just cache-local: the smart server must turn
// its hit-rate win into strictly less wasted node-time than plain LRU.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "sched/arrival.hpp"
#include "sched/platform.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kComputeNodes = 64;
constexpr std::size_t kIoNodes = 8;
constexpr int kJobs = 224;

struct ServerConfig {
  const char* name;
  bool arc;
  bool readahead;
};

// "lru" is the legacy passive server, bit for bit.
constexpr ServerConfig kConfigs[] = {
    {"lru", false, false},
    {"arc", true, false},
    {"arc_ra", true, true},
};

iosrv::Config make_server(const ServerConfig& sc) {
  iosrv::Config c;
  c.policy = sc.arc ? iosrv::PolicyKind::kArc : iosrv::PolicyKind::kLru;
  c.readahead.enabled = sc.readahead;
  return c;
}

sched::PlatformReport run_once(const iosrv::Config& server, double scale,
                               std::uint64_t seed) {
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  // The 1998 preset's 2 MB caches drown under 64 tenants (every policy
  // thrashes equally); the smart-server study runs the I/O partition
  // with memory-rich servers so replacement decisions are the variable.
  mc.io.cache_bytes_per_io_node = 16ULL << 20;
  mc.io.server = server;
  hw::Machine machine(eng, mc);

  pfs::StripedFs fs(machine);

  sched::ArrivalConfig ac;
  ac.mean_interarrival_s = 2.0;
  ac.max_jobs = kJobs;
  ac.burst_period_s = 120.0;
  ac.burst_len_s = 30.0;
  ac.burst_rate_multiplier = 4.0;
  std::vector<sched::Job> jobs =
      sched::generate(ac, sched::standard_mix(scale), seed);

  sched::PlatformOptions po;
  return sched::run(machine, fs, nullptr, std::move(jobs), po);
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<sched::PlatformReport> reps =
      ctx.map<sched::PlatformReport>(std::size(kConfigs), [&](std::size_t i) {
        return run_once(make_server(kConfigs[i]), opt.scale, opt.seed);
      });

  const sched::PlatformReport& lru = reps[0];
  const sched::PlatformReport& arc = reps[1];
  const sched::PlatformReport& arc_ra = reps[2];
  // Platform node-time waste = capacity the stream consumed but did not
  // convert to compute: nodes x makespan - pure compute node-seconds.
  // The per-job hold waste (rep.wasted_node_s) is the wrong lens here —
  // a faster server packs more tenants concurrently under FCFS, which
  // stretches individual job spans even as the platform finishes
  // sooner — and productive_node_s folds step I/O time in, crediting a
  // slow server for its own slowness.  Compute node-seconds are fixed
  // by the job mix, so this comparison is exactly "who serves the same
  // work with less capacity".
  auto capacity_waste = [](const sched::PlatformReport& r) {
    return static_cast<double>(kComputeNodes) * r.makespan -
           r.compute_node_s;
  };

  expt::Table table({"server", "done", "makespan (s)", "util %",
                     "waste (node-s)", "hit %", "evictions", "ra issued",
                     "ra hits", "ra waste"});
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const sched::PlatformReport& r = reps[i];
    table.add_row(
        {kConfigs[i].name,
         expt::fmt_u64(static_cast<unsigned long long>(r.completed_jobs)) +
             "/" + expt::fmt_u64(r.jobs.size()),
         expt::fmt_s(r.makespan), expt::fmt("%.1f", 100.0 * r.utilization),
         expt::fmt("%.0f", capacity_waste(r)),
         expt::fmt("%.1f", 100.0 * r.cache_hit_rate()),
         expt::fmt_u64(r.cache_evictions),
         expt::fmt_u64(r.readahead_issued),
         expt::fmt_u64(r.readahead_hits),
         expt::fmt_u64(r.readahead_waste)});
  }
  ctx.printf(
      "Platform server cache: %d jobs (5 apps x 3 sizes), %zu compute "
      "nodes, %zu I/O nodes, FCFS free-for-all, seed=%llu\n%s\n",
      kJobs, kComputeNodes, kIoNodes,
      static_cast<unsigned long long>(opt.seed), ctx.table(table).c_str());
  ctx.printf(
      "Smart server vs passive LRU: hit rate %.1f%% -> %.1f%%, waste "
      "%.0f -> %.0f node-s.\n\n",
      100.0 * lru.cache_hit_rate(), 100.0 * arc_ra.cache_hit_rate(),
      capacity_waste(lru), capacity_waste(arc_ra));

  bool all_done = true;
  for (const sched::PlatformReport& r : reps) {
    all_done = all_done && r.completed_jobs == static_cast<int>(r.jobs.size());
  }
  ctx.expect(static_cast<int>(lru.jobs.size()) >= 200,
             "the stream queues at least 200 jobs");
  ctx.expect(all_done, "every job completes under every server config");
  ctx.expect(arc_ra.cache_hit_rate() > lru.cache_hit_rate(),
             "ARC + read-ahead beats plain LRU on aggregate hit rate (" +
                 expt::fmt("%.1f", 100.0 * arc_ra.cache_hit_rate()) +
                 "% vs " +
                 expt::fmt("%.1f", 100.0 * lru.cache_hit_rate()) + "%)");
  ctx.expect(capacity_waste(arc_ra) < capacity_waste(lru),
             "the smart server wastes strictly less node-time (" +
                 expt::fmt("%.0f", capacity_waste(arc_ra)) + " vs " +
                 expt::fmt("%.0f", capacity_waste(lru)) + ")");
  ctx.expect(arc.cache_hit_rate() >= lru.cache_hit_rate(),
             "policy alone (ARC, no read-ahead) already holds the line "
             "on hit rate");
  ctx.expect(arc_ra.readahead_issued > 0 && arc_ra.readahead_hits > 0,
             "read-ahead is live under the job stream");
  ctx.expect(lru.readahead_issued == 0, "the legacy config speculates nothing");
}

const scenario::Registration reg{{
    .name = "platform_server_cache",
    .title = "Platform cache interference: passive LRU vs smart I/O servers",
    .description =
        "Replays one seeded 224-job multi-tenant stream against the "
        "shared PFS under three server configs: "
        "legacy LRU, ARC, and ARC + pattern read-ahead. --check asserts "
        "every job completes and the smart server beats plain LRU on both "
        "aggregate hit rate and wasted node-seconds.",
    .default_scale = 0.1,
    .grid = {{"server", {"lru", "arc", "arc_ra"}}},
    .run = run,
}};

}  // namespace
