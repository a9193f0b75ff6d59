// scenario/scenario.hpp — first-class experiment scenarios.
//
// Every paper table/figure reproduction used to be its own binary with a
// hand-rolled sweep loop.  A Scenario captures the shared shape instead:
// a name, a parameter grid, and a body that runs grid points (each point
// one independent deterministic simulation) and renders tables + shape
// checks from the collected results.  The `iosim` driver owns the
// command line, the thread pool, golden comparison, and repeat gating;
// adding a scenario is one registration in one translation unit.
//
// Determinism contract: a point must not touch anything outside its own
// Engine / metrics::Registry / RNG streams.  The Context runs points on
// a thread pool but stores every result (output rows, named values,
// per-point metrics registries) by point index and folds them back in
// grid order on the body's thread — so `-j N` output is byte-identical
// to `-j 1`.
#pragma once

#include <atomic>
#include <cstdarg>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "exp/options.hpp"
#include "exp/table.hpp"
#include "metrics/metrics.hpp"

namespace scenario {

/// Process-wide pool of extra worker threads, shared between the
/// scenario level (run several scenarios at once) and the point level
/// (fan one scenario's grid out) so `-j N` bounds the TOTAL thread
/// count.  Callers always keep their own thread, so acquire(0 granted)
/// still makes progress.
class JobBudget {
 public:
  explicit JobBudget(int jobs) : tokens_(jobs > 1 ? jobs - 1 : 0) {}

  /// Take up to `want` worker tokens; returns how many were granted.
  int acquire(int want) {
    int have = tokens_.load(std::memory_order_relaxed);
    while (want > 0 && have > 0) {
      const int take = have < want ? have : want;
      if (tokens_.compare_exchange_weak(have, have - take)) return take;
    }
    return 0;
  }
  void release(int n) { tokens_.fetch_add(n); }

  /// Run fn(i) for every i in [0, n): the calling thread plus as many
  /// helper threads as there are free tokens (at most 1024, and never
  /// more than n - 1) take indices from a shared counter.  The tokens
  /// return once every index is done.  `fn` must not throw; it runs on
  /// the helper threads.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

 private:
  std::atomic<int> tokens_;
};

/// One named parameter axis of a scenario's grid.
struct Axis {
  std::string name;
  std::vector<std::string> values;
};

/// Number of points in the cartesian product (1 for an empty grid).
std::size_t grid_size(const std::vector<Axis>& grid);

class Context;

/// Thrown by a scenario body for bad per-scenario flags (e.g. an unknown
/// --policy name); the runner reports it on stderr and exits 2, matching
/// the old bench binaries.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A registered scenario: everything the driver needs to list it, run
/// it, and gate it.
struct Spec {
  std::string name;         // CLI handle, e.g. "fig1"
  std::string title;        // one-line description for `iosim list`
  /// What the scenario demonstrates and what --check asserts — printed
  /// (indented) under the title by `iosim list`, so the registry is
  /// self-documenting.  Keep it to a sentence or two.
  std::string description;
  double default_scale = 1.0;
  std::vector<Axis> grid;   // declarative grid (may be empty)
  // Output contains host wall-clock timings (engine_bench): excluded
  // from golden/repeat gates and run serially, so no other scenario
  // competes with it for cores.
  bool wallclock = false;
  std::function<void(Context&)> run;
};

/// Execution context handed to a scenario body.  Collects output text
/// and shape-check results, fans points out on the driver's thread
/// pool, and owns the epilogue every scenario shares (audit line,
/// metrics JSON, metrics tables), so a body only renders its own
/// tables and states its checks.
class Context {
 public:
  /// `budget` may be null (serial) and is not owned.
  Context(const expt::Options& opt, JobBudget* budget);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const expt::Options& opt() const { return opt_; }

  /// Run `spec`'s body under the metrics registry (when --metrics or
  /// --metrics-out is on), then append the epilogue, in this order:
  /// the "audit: ..." summary of every per-point ledger (--audit), the
  /// JSON file and its "metrics: wrote PATH" line (--metrics-out), and
  /// the registry tables (--metrics).  Call once per Context.
  void run(const Spec& spec);

  // -- output ---------------------------------------------------------
  void printf(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  std::string output() const { return out_.str(); }
  /// `t` rendered as CSV under --csv, as the ASCII table otherwise.
  std::string table(const expt::Table& t) const;

  // -- shape checks ---------------------------------------------------
  /// Under --check, prints "  [PASS]/[FAIL] what" and folds into ok();
  /// without --check, does nothing, so ok() stays true.
  void expect(bool ok, const std::string& what);
  bool ok() const { return all_ok_; }

  // -- parallel points ------------------------------------------------
  /// Run fn(i) for i in [0, n) on up to --jobs threads.  Each point runs
  /// under its own metrics::Registry and, under --audit, its own
  /// audit::Ledger; both fold back in index order.  A body that installs
  /// its OWN audit::Scope inside a point diverts that point's events
  /// away from the --audit summary.  The first exception (by point
  /// index) is rethrown on this thread.
  void for_each_point(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Typed fan-out: returns one R per point, in point order.
  template <class R, class Fn>
  std::vector<R> map(std::size_t n, Fn&& fn) {
    std::vector<R> out(n);
    for_each_point(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  const expt::Options& opt_;
  JobBudget* budget_;
  std::ostringstream out_;
  bool all_ok_ = true;
  metrics::Registry registry_;  // the body's; points merge in (metrics on)
  audit::Totals audit_totals_;  // per-point ledger totals, merged (--audit)
};

/// Static registry of scenarios.  Instantiable for tests; the process-
/// wide instance is global().
class Registry {
 public:
  /// Throws std::logic_error on an empty or duplicate name.
  void add(Spec spec);
  const Spec* find(std::string_view name) const;
  /// All scenarios, sorted by name (stable across link order).
  std::vector<const Spec*> all() const;

  static Registry& global();

 private:
  std::vector<Spec> specs_;
};

/// One static instance per scenario translation unit registers the spec.
struct Registration {
  explicit Registration(Spec spec) {
    Registry::global().add(std::move(spec));
  }
};

}  // namespace scenario
