// Scenario "engine_bench" — the simulator benchmarking itself
// (ROADMAP: "Engine throughput").
//
// Five fixed synthetic workloads exercise the hot paths every
// simulation is made of — the timer wheel, resource queueing, trigger
// broadcast, process lifecycle churn, and a thousand-node-sized event
// soup — and report host events/second from
// Engine::events_processed().  The numbers are HOST measurements
// (wallclock=true: excluded from golden/repeat gates, run serially);
// CI runs this scenario with --metrics-out=BENCH_iosim.json, uploads
// the file, and gates it against bench/baseline/BENCH_iosim.json via
// tools/bench_compare.py (median of 3 runs, fail on >25% regression).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "metrics/metrics.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"
#include "simkit/resource.hpp"
#include "simkit/rng.hpp"
#include "simkit/trigger.hpp"

namespace {

struct Result {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t clamped = 0;

  double events_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

/// 256 processes each sleeping through `rounds` staggered delays: pure
/// timer-wheel churn (schedule + pop dominates).
void wl_timer(simkit::Engine& eng, int rounds) {
  for (int p = 0; p < 256; ++p) {
    eng.spawn([](simkit::Engine& e, int p, int n) -> simkit::Task<void> {
      for (int r = 0; r < n; ++r) {
        co_await e.delay(1e-4 + 1e-7 * static_cast<double>(p));
      }
    }(eng, p, rounds));
  }
}

/// 64 coroutines contending for a 4-slot resource: the FIFO grant path
/// (suspend, queue, hand-off) every PFS daemon and disk arm lives on,
/// held inline in the caller's frame the way hw::Network::transfer and
/// pfs::IoNode::process hold their NICs and daemon front ends.
void wl_resource(simkit::Engine& eng, simkit::Resource& res, int rounds) {
  for (int p = 0; p < 64; ++p) {
    eng.spawn([](simkit::Engine& e, simkit::Resource& r,
                 int n) -> simkit::Task<void> {
      for (int i = 0; i < n; ++i) {
        co_await r.acquire();
        co_await e.delay(1e-5);
        r.release();
      }
    }(eng, res, rounds));
  }
}

/// One firer broadcasting to 128 waiters per round: the Trigger wake-up
/// fan-out the drain/checkpoint barriers use.
void wl_trigger(simkit::Engine& eng,
                std::vector<std::shared_ptr<simkit::Trigger>>& slots,
                int rounds) {
  slots.assign(rounds, nullptr);
  for (auto& t : slots) t = std::make_shared<simkit::Trigger>();
  for (int w = 0; w < 128; ++w) {
    eng.spawn([](std::vector<std::shared_ptr<simkit::Trigger>>& s)
                  -> simkit::Task<void> {
      for (auto& t : s) co_await t->wait();
    }(slots));
  }
  eng.spawn([](simkit::Engine& e,
               std::vector<std::shared_ptr<simkit::Trigger>>& s)
                -> simkit::Task<void> {
    for (auto& t : s) {
      co_await e.delay(1e-5);
      t->fire(e);
    }
  }(eng, slots));
}

/// 64 parents each spawn + join `rounds` short-lived children: process
/// lifecycle churn (completion records, coroutine frames, names) — the
/// path platform job streams and hedged reads live on.
void wl_spawn(simkit::Engine& eng, int rounds) {
  for (int p = 0; p < 64; ++p) {
    eng.spawn([](simkit::Engine& e, int n) -> simkit::Task<void> {
      for (int i = 0; i < n; ++i) {
        auto h = e.spawn([](simkit::Engine& e2) -> simkit::Task<void> {
          co_await e2.delay(1e-6);
        }(e), "churn.child");
        co_await h.join();
      }
    }(eng, rounds), "churn.parent");
  }
}

/// The thousand-node-preset shape: `n` processes holding jittered
/// timers, so the pending-event set stays ~n for the whole run, plus a
/// 1/64 slice of far-future arming events (the horizon path fault
/// injection uses).  This is where a comparison-heap scheduler goes
/// cache-cold: every push/pop walks log2(n) scattered heap levels.
void wl_soup(simkit::Engine& eng, int nprocs) {
  simkit::Rng rng(42);
  for (int p = 0; p < nprocs; ++p) {
    const double base = 1e-4 * (1.0 + rng.uniform());
    const double jit = 1e-7 * static_cast<double>(p % 97);
    eng.spawn([](simkit::Engine& e, double b, double j) -> simkit::Task<void> {
      for (int r = 0; r < 6; ++r) co_await e.delay(b + j * r);
    }(eng, base, jit), "soup.timer");
    if (p % 64 == 0) {
      // Far-future arming, fault-injector style: parked well past the
      // timer horizon until the tail of the run.
      eng.spawn_at(1.0 + 1e-4 * static_cast<double>(p),
                   [](simkit::Engine& e) -> simkit::Task<void> {
                     co_await e.delay(1e-5);
                   }(eng),
                   "soup.arm");
    }
  }
}

struct Workload {
  const char* name;
  int rounds;  // at scale 1.0 (timer_soup: process count)
};

constexpr Workload kWorkloads[] = {
    {"timer_wheel", 2000},   {"resource_fifo", 4000}, {"trigger_fanout", 2000},
    {"spawn_churn", 2000},   {"timer_soup", 200000},
};

Result run_one(std::size_t wl, double scale) {
  const int rounds = std::max(
      1, static_cast<int>(kWorkloads[wl].rounds * std::min(scale, 4.0)));
  simkit::Engine eng;
  simkit::Resource res(eng, 4);
  std::vector<std::shared_ptr<simkit::Trigger>> slots;
  switch (wl) {
    case 0: wl_timer(eng, rounds); break;
    case 1: wl_resource(eng, res, rounds); break;
    case 2: wl_trigger(eng, slots, rounds); break;
    case 3: wl_spawn(eng, rounds); break;
    default: wl_soup(eng, rounds); break;
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  Result r;
  r.events = eng.events_processed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.clamped = eng.clamped_schedules();
  if (metrics::Registry* m = metrics::current()) {
    const std::string prefix =
        std::string("bench.engine.") + kWorkloads[wl].name + ".";
    m->gauge(prefix + "events").set(static_cast<double>(r.events));
    m->gauge(prefix + "wall_s").set(r.wall_s);
    m->gauge(prefix + "events_per_s").set(r.events_per_s());
  }
  return r;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  // Host timing: run serially and in a fixed order (wallclock scenarios
  // are exempt from the determinism gates, but keep the table stable).
  std::vector<Result> results;
  results.reserve(std::size(kWorkloads));
  ctx.for_each_point(1, [&](std::size_t) {
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
      results.push_back(run_one(i, opt.scale));
    }
  });

  expt::Table table({"workload", "events", "wall (s)", "events/s"});
  std::uint64_t clamped = 0;
  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    table.add_row({kWorkloads[i].name, expt::fmt_u64(results[i].events),
                   expt::fmt("%.3f", results[i].wall_s),
                   expt::fmt("%.0f", results[i].events_per_s())});
    clamped += results[i].clamped;
  }
  ctx.printf("Engine self-benchmark (host time; simulated workloads are "
             "fixed per scale)\n%s\n",
             ctx.table(table).c_str());
  ctx.printf("clamped past-time schedules: %llu (expect 0)\n",
             static_cast<unsigned long long>(clamped));

  for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
    ctx.expect(results[i].events > 0 && results[i].events_per_s() > 0.0,
               std::string(kWorkloads[i].name) +
                   " processed events at a nonzero rate");
  }
  // The engine exists to push through millions of events per host
  // second; 50k/s would mean something is catastrophically wrong.
  ctx.expect(results[0].events_per_s() > 5e4,
             "timer-wheel throughput clears the sanity floor");
  // No workload schedules into the past; a nonzero count means an
  // engine consumer is relying on silent clamping (reordering risk).
  ctx.expect(clamped == 0, "no past-time schedules were clamped");
}

const scenario::Registration reg{{
    .name = "engine_bench",
    .title = "Engine self-benchmark: events/s on timer, resource, trigger",
    .description =
        "Runs five fixed synthetic workloads (timer wheel churn, FIFO "
        "resource contention, trigger fan-out, spawn/join churn, and a "
        "200k-process timer soup with a far-future tail) and reports "
        "host events/second; with --metrics-out the numbers land in "
        "BENCH_iosim.json (CI uploads it and gates it against "
        "bench/baseline/ via tools/bench_compare.py). --check asserts "
        "nonzero throughput, a generous sanity floor, and zero clamped "
        "past-time schedules.",
    .default_scale = 1.0,
    .grid = {},
    .wallclock = true,
    .run = run,
}};

}  // namespace
