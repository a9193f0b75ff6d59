#include "scenario/driver.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace scenario {

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s list\n"
      "       %s run <name>... | --all  [flags]\n"
      "\n"
      "One driver for every paper table/figure/ablation scenario.\n"
      "Run flags (numeric values must parse in full, else exit 2):\n"
      "  --full              paper-sized op counts\n"
      "  --scale=X           volume/dump scale factor, finite and >= 0\n"
      "                      (default: the scenario's own scale)\n"
      "  --check             exit non-zero if a paper shape fails\n"
      "  --csv               CSV tables instead of ASCII\n"
      "  --metrics           print the metrics registry table\n"
      "  --metrics-out=PATH  write metrics JSON (per scenario with --all)\n"
      "  --policy=NAME       checkpoint policy (fault_ckpt)\n"
      "  --seed=N            fault-plan seed, unsigned 64-bit\n"
      "                      (stochastic-plan scenarios)\n"
      "  --audit             audit every read/write, print a summary line\n"
      "  -j N, --jobs=N      run grid points / scenarios on N >= 1 threads\n"
      "                      (output is byte-identical to -j 1)\n"
      "  --repeat=K          run K >= 1 times, fail on any output drift\n"
      "  --golden=PATH       fail unless output matches the pinned file\n",
      argv0, argv0);
}

}  // namespace

int iosim_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    print_usage(argv[0]);
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "list" || args[0] == "--list") {
    list_scenarios();
    return 0;
  }
  if (args[0] != "run") {
    std::fprintf(stderr, "iosim: unknown command '%s'\n", args[0].c_str());
    print_usage(argv[0]);
    return 2;
  }

  expt::Options opt(/*default_scale=*/1.0);
  opt.parse(argc - 1, argv + 1);  // flags; positionals are ignored
  if (opt.help) {
    print_usage(argv[0]);
    return 0;
  }
  if (!opt.error.empty()) {
    std::fprintf(stderr, "iosim: %s\n", opt.error.c_str());
    return 2;
  }
  if (opt.list) {
    list_scenarios();
    return 0;
  }

  std::vector<const Spec*> specs;
  if (opt.all) {
    specs = Registry::global().all();
  } else {
    for (std::size_t i = 1; i < args.size(); ++i) {
      // `-j 8` is the only flag whose value is a separate token; don't
      // mistake that value for a scenario name.
      if (args[i] == "-j") {
        ++i;
        continue;
      }
      if (args[i][0] == '-') continue;  // a flag, not a scenario name
      const Spec* s = Registry::global().find(args[i]);
      if (s == nullptr) {
        std::fprintf(stderr,
                     "iosim: unknown scenario '%s' (try 'iosim list')\n",
                     args[i].c_str());
        return 2;
      }
      specs.push_back(s);
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "iosim: no scenario named (use <name> or --all)\n");
    return 2;
  }
  return run_scenarios(specs, opt);
}

}  // namespace scenario
