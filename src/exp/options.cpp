#include "exp/options.hpp"

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

namespace expt {

namespace {

/// Parse the whole of `s` as a T.  False on garbage, trailing
/// characters, an empty value, a sign an unsigned T cannot hold, or a
/// value out of T's range.
template <class T>
bool parse_all(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void Options::parse(int argc, char** argv) {
  // Only the first error is kept, but every token is still read, so the
  // flags around a bad one take effect (parse stays testable and the
  // caller owns the exit path).
  auto fail = [this](std::string msg) {
    if (error.empty()) error = std::move(msg);
  };
  auto bad_value = [&](std::string_view flag, std::string_view v,
                       std::string_view want) {
    fail("invalid value '" + std::string(v) + "' for " + std::string(flag) +
         " (want " + std::string(want) + ")");
  };
  auto count = [&](std::string_view flag, std::string_view v, int& out) {
    int n = 0;
    if (parse_all(v, n) && n >= 1) {
      out = n;
    } else {
      bad_value(flag, v, "an integer >= 1");
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value_of = [&](std::string_view prefix) {
      return a.substr(prefix.size());
    };
    if (a == "--full") {
      scale = 1.0;
      scale_given = true;
    } else if (a.starts_with("--scale=")) {
      const std::string_view v = value_of("--scale=");
      double x = 0.0;
      if (parse_all(v, x) && std::isfinite(x) && x >= 0.0) {
        scale = x;
        scale_given = true;
      } else {
        bad_value("--scale", v, "a finite number >= 0");
      }
    } else if (a == "--check") {
      check = true;
    } else if (a == "--csv") {
      csv = true;
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a.starts_with("--metrics-out=")) {
      metrics_out = value_of("--metrics-out=");
    } else if (a.starts_with("--policy=")) {
      policy = value_of("--policy=");
    } else if (a.starts_with("--seed=")) {
      const std::string_view v = value_of("--seed=");
      if (!parse_all(v, seed)) {
        bad_value("--seed", v, "an unsigned 64-bit integer");
      }
    } else if (a == "--audit") {
      audit = true;
    } else if (a.starts_with("--jobs=")) {
      count("--jobs", value_of("--jobs="), jobs);
    } else if (a == "-j") {
      count("-j", i + 1 < argc ? std::string_view(argv[++i]) : "", jobs);
    } else if (a.starts_with("-j")) {
      count("-j", value_of("-j"), jobs);
    } else if (a.starts_with("--repeat=")) {
      count("--repeat", value_of("--repeat="), repeat);
    } else if (a.starts_with("--golden=")) {
      golden = value_of("--golden=");
    } else if (a == "--all") {
      all = true;
    } else if (a == "--list") {
      list = true;
    } else if (a == "--help" || a == "-h") {
      help = true;
    } else if (a.starts_with("-")) {
      fail("unknown option '" + std::string(a) +
           "' (valid: --full --scale=X --check --csv --metrics "
           "--metrics-out=PATH --policy=NAME --seed=N --audit "
           "-j N/--jobs=N --repeat=K --golden=PATH --all --list --help)");
    }
  }
}

}  // namespace expt
