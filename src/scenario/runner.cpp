#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace scenario {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// First line number (1-based) where a and b differ, for gate notes.
std::size_t first_diff_line(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return 0;  // equal (diff must be trailing bytes)
    if (ga != gb || la != lb) return line;
    ++line;
  }
}

/// Resolve the per-scenario option set from the request-wide one.
expt::Options effective_options(const Spec& spec, const expt::Options& req,
                                bool multi) {
  expt::Options opt = req;
  if (!req.scale_given) opt.scale = spec.default_scale;
  if (!req.metrics_out.empty() && multi) {
    // --all --metrics-out=m.json writes m.<name>.json per scenario.
    std::string path = req.metrics_out;
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
      path.insert(dot, "." + spec.name);
    } else {
      path += "." + spec.name;
    }
    opt.metrics_out = path;
  }
  return opt;
}

}  // namespace

Outcome run_scenario(const Spec& spec, const expt::Options& opt,
                     JobBudget* budget) {
  Outcome out;
  out.spec = &spec;
  const auto t0 = std::chrono::steady_clock::now();
  const bool gates_apply = !spec.wallclock;
  if (!gates_apply && (opt.repeat > 1 || !opt.golden.empty())) {
    out.note = "wall-clock scenario: --repeat/--golden gates skipped";
  }
  const int runs = gates_apply && opt.repeat > 1 ? opt.repeat : 1;

  try {
    for (int k = 0; k < runs; ++k) {
      Context ctx(opt, budget);
      ctx.run(spec);
      if (k == 0) {
        out.output = ctx.output();
        out.checks_ok = ctx.ok();
      } else if (ctx.output() != out.output) {
        out.repeat_ok = false;
        out.note = "run " + std::to_string(k + 1) +
                   " diverged from run 1 at line " +
                   std::to_string(first_diff_line(out.output, ctx.output()));
        break;
      }
    }
    if (gates_apply && out.repeat_ok && !opt.golden.empty()) {
      std::ifstream f(opt.golden, std::ios::binary);
      if (!f) {
        out.golden_ok = false;
        out.note = "golden file unreadable: " + opt.golden;
      } else {
        std::ostringstream want;
        want << f.rdbuf();
        if (want.str() != out.output) {
          out.golden_ok = false;
          out.note = "output differs from golden " + opt.golden +
                     " at line " +
                     std::to_string(first_diff_line(want.str(), out.output));
        }
      }
    }
  } catch (const UsageError& e) {
    out.usage_error = true;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_s = seconds_since(t0);
  return out;
}

int run_scenarios(const std::vector<const Spec*>& specs,
                  const expt::Options& opt) {
  const bool multi = specs.size() > 1;
  JobBudget budget(opt.jobs);
  std::vector<Outcome> outcomes(specs.size());
  const auto t0 = std::chrono::steady_clock::now();

  // Simulator scenarios fan out across the budget; wall-clock scenarios
  // (their output is host timing) run serially on this thread once the
  // parallel batch has drained.
  std::vector<std::size_t> parallel, serial;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    (specs[i]->wallclock ? serial : parallel).push_back(i);
  }

  auto run_at = [&](std::size_t i) {
    outcomes[i] =
        run_scenario(*specs[i], effective_options(*specs[i], opt, multi),
                     &budget);
  };

  budget.parallel_for(parallel.size(),
                      [&](std::size_t k) { run_at(parallel[k]); });
  for (std::size_t i : serial) run_at(i);

  // Print in request order; stdout carries only scenario output (plus a
  // banner when several were requested), stderr carries gate status.
  bool any_gate_failed = false, any_usage = false, any_error = false;
  int passed = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (multi) std::printf("=== %s ===\n", specs[i]->name.c_str());
    std::fputs(out.output.c_str(), stdout);
    std::fflush(stdout);

    std::string status = "ok";
    if (!out.error.empty()) {
      status = out.usage_error ? "usage error: " + out.error
                               : "ERROR: " + out.error;
    } else if (!out.checks_ok) {
      status = "CHECK FAILED";
    } else if (!out.repeat_ok) {
      status = "NONDETERMINISTIC";
    } else if (!out.golden_ok) {
      status = "GOLDEN MISMATCH";
    }
    std::fprintf(stderr, "iosim: %-24s %s (%.2fs)%s%s\n",
                 specs[i]->name.c_str(), status.c_str(), out.wall_s,
                 out.note.empty() ? "" : " — ", out.note.c_str());
    if (out.ok()) ++passed;
    any_usage = any_usage || out.usage_error;
    any_error = any_error || (!out.error.empty() && !out.usage_error);
    any_gate_failed = any_gate_failed ||
                      !(out.checks_ok && out.repeat_ok && out.golden_ok);
  }
  std::fprintf(stderr, "iosim: %d/%zu scenarios ok in %.2fs (-j %d)\n",
               passed, specs.size(), seconds_since(t0),
               opt.jobs > 1 ? opt.jobs : 1);
  if (any_usage) return 2;
  if (any_error) return 3;
  return any_gate_failed ? 1 : 0;
}

void list_scenarios() {
  const std::vector<const Spec*> all = Registry::global().all();
  std::size_t width = 0;
  for (const Spec* s : all) width = std::max(width, s->name.size());
  for (const Spec* s : all) {
    std::string grid;
    for (const Axis& a : s->grid) {
      if (!grid.empty()) grid += " x ";
      grid += a.name + "(" + std::to_string(a.values.size()) + ")";
    }
    std::printf("%-*s  %s%s", static_cast<int>(width), s->name.c_str(),
                s->title.c_str(), s->wallclock ? " [wall-clock]" : "");
    if (!s->grid.empty()) {
      std::printf("  [grid: %s = %zu points]", grid.c_str(),
                  grid_size(s->grid));
    }
    std::printf("\n");
    if (!s->description.empty()) {
      // Wrap the description to ~72 columns under the name column.
      std::istringstream words(s->description);
      std::string word, line;
      while (words >> word) {
        if (!line.empty() && line.size() + 1 + word.size() > 72) {
          std::printf("%-*s    %s\n", static_cast<int>(width), "",
                      line.c_str());
          line.clear();
        }
        line += (line.empty() ? "" : " ") + word;
      }
      if (!line.empty()) {
        std::printf("%-*s    %s\n", static_cast<int>(width), "",
                    line.c_str());
      }
    }
  }
}

}  // namespace scenario
