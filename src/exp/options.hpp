// exp/options.hpp — command-line handling for the `iosim` scenario
// driver.
//
// Every scenario accepts:
//   --full         paper-sized op counts (default is the scenario's own
//                  scaled-down run)
//   --scale=X      explicit volume/dump scale factor (finite, >= 0)
//   --check        exit non-zero if the paper's qualitative shape fails
//   --csv          print CSV instead of the ASCII table
//   --metrics      collect metrics and print the registry table
//   --metrics-out=PATH  collect metrics and write them as JSON to PATH
//   --policy=NAME  checkpoint policy (fault_ckpt):
//                  sync_full | sync_incr | async_full | async_incr
//   --seed=N       fault-plan seed, an unsigned 64-bit value (scenarios
//                  with stochastic fault plans)
//   --audit        run every point under the audit::Ledger data-integrity
//                  auditor and print a per-scenario summary line
// Driver flags (scenario runner):
//   -j N / --jobs=N  thread count (>= 1) for grid points / scenarios
//   --repeat=K     run K >= 1 times and fail on any output drift
//   --golden=PATH  fail unless output matches the pinned file
//   --all / --list scenario selection
//   --help / -h    set `help`; the caller prints its usage and exits 0
//
// Numeric values must parse in full: garbage, trailing characters, an
// empty value, or an out-of-range value is an error, never a silent 0.
#pragma once

#include <cstdint>
#include <string>

namespace expt {

struct Options {
  double scale;   // volume scale (1.0 = paper-sized)
  bool scale_given = false;  // --scale/--full seen (else per-scenario default)
  bool check = false;
  bool csv = false;
  bool metrics = false;      // print the metrics registry table
  std::string metrics_out;   // write metrics JSON here ("" = don't)
  std::string policy;        // ckpt policy name ("" = bench default)
  std::uint64_t seed = 42;   // fault-plan seed (stochastic-plan benches)
  bool audit = false;        // cross-check reads/writes in an audit ledger
  int jobs = 1;              // scenario-runner thread budget
  int repeat = 1;            // determinism gate: run K times, diff outputs
  std::string golden;        // determinism gate: pinned-output file
  bool all = false;          // iosim run --all
  bool list = false;         // iosim --list
  bool help = false;         // --help / -h: the caller prints its usage
  /// Set by parse() on the first bad `-`/`--` token: an unknown flag
  /// (the message names it and lists the valid ones) or a numeric flag
  /// whose value does not parse (the message names the flag and the
  /// value).  Callers print it and exit 2; positionals (scenario names)
  /// never trigger it.
  std::string error;

  explicit Options(double default_scale = 0.25) : scale(default_scale) {}

  /// Metrics collection is on if either output was requested.
  bool metrics_enabled() const {
    return metrics || !metrics_out.empty();
  }

  void parse(int argc, char** argv);
};

}  // namespace expt
