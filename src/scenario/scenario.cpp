#include "scenario/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "exp/report.hpp"
#include "metrics/export.hpp"

namespace scenario {

// -- grid -------------------------------------------------------------------

std::size_t grid_size(const std::vector<Axis>& grid) {
  std::size_t n = 1;
  for (const Axis& a : grid) n *= a.values.size();
  return n;
}

// -- JobBudget --------------------------------------------------------------

void JobBudget::parallel_for(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const int granted =
      acquire(static_cast<int>(std::min<std::size_t>(n - 1, 1024)));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(granted));
  for (int t = 0; t < granted; ++t) helpers.emplace_back(worker);
  worker();
  for (std::thread& t : helpers) t.join();
  release(granted);
}

// -- Context ----------------------------------------------------------------

Context::Context(const expt::Options& opt, JobBudget* budget)
    : opt_(opt), budget_(budget) {}

void Context::run(const Spec& spec) {
  {
    std::optional<metrics::Scope> scope;
    if (opt_.metrics_enabled()) scope.emplace(registry_);
    spec.run(*this);
  }
  if (opt_.audit) {
    const audit::Totals& t = audit_totals_;
    out_ << "audit: writes=" << t.writes_acked
         << " reads=" << t.reads_checked
         << " lost_updates=" << t.lost_updates
         << " lost_bytes=" << t.lost_bytes
         << " stale_reads=" << t.stale_reads
         << " torn_writes=" << t.torn_writes
         << " scrub_destroyed=" << t.scrub_destroyed
         << " violations=" << t.violations() << "\n";
  }
  if (!opt_.metrics_out.empty()) {
    if (metrics::write_json_file(registry_, opt_.metrics_out)) {
      out_ << "metrics: wrote " << opt_.metrics_out << "\n";
    } else {
      std::fprintf(stderr, "metrics: FAILED to write %s\n",
                   opt_.metrics_out.c_str());
    }
  }
  if (opt_.metrics) out_ << expt::metrics_report(registry_);
}

void Context::printf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string buf(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(buf.data(), buf.size() + 1, fmt, args);
  va_end(args);
  out_ << buf;
}

std::string Context::table(const expt::Table& t) const {
  return opt_.csv ? t.csv() : t.str();
}

void Context::expect(bool ok, const std::string& what) {
  if (!opt_.check) return;
  out_ << "  [" << (ok ? "PASS" : "FAIL") << "] " << what << "\n";
  all_ok_ = all_ok_ && ok;
}

void Context::for_each_point(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const bool metrics_on = opt_.metrics_enabled();
  const bool audit_on = opt_.audit;
  std::vector<metrics::Registry> point_regs(metrics_on ? n : 0);
  std::vector<audit::Totals> point_audit(audit_on ? n : 0);
  std::vector<std::exception_ptr> errors(n);

  auto run_point = [&](std::size_t i) {
    try {
      // One ledger per point, installed like the per-point registry, so
      // audited runs stay deterministic under -j N (totals fold back in
      // point order below).
      audit::Ledger ledger;
      std::optional<audit::Scope> audit_scope;
      if (audit_on) audit_scope.emplace(ledger);
      if (metrics_on) {
        metrics::Scope scope(point_regs[i]);
        fn(i);
      } else {
        fn(i);
      }
      if (audit_on) point_audit[i] = ledger.totals();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (budget_) {
    budget_->parallel_for(n, run_point);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_point(i);
  }

  // Fold per-point registries back in point order so the merged registry
  // is independent of scheduling.
  if (metrics_on) {
    for (const metrics::Registry& r : point_regs) registry_.merge(r);
  }
  if (audit_on) {
    for (const audit::Totals& t : point_audit) audit_totals_.merge(t);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// -- Registry ---------------------------------------------------------------

void Registry::add(Spec spec) {
  if (spec.name.empty()) {
    throw std::logic_error("scenario::Registry: empty scenario name");
  }
  if (!spec.run) {
    throw std::logic_error("scenario::Registry: scenario '" + spec.name +
                           "' has no run function");
  }
  if (find(spec.name) != nullptr) {
    throw std::logic_error("scenario::Registry: duplicate scenario '" +
                           spec.name + "'");
  }
  specs_.push_back(std::move(spec));
}

const Spec* Registry::find(std::string_view name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Spec*> Registry::all() const {
  std::vector<const Spec*> out;
  out.reserve(specs_.size());
  for (const Spec& s : specs_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Spec* a, const Spec* b) {
    return a->name < b->name;
  });
  return out;
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

}  // namespace scenario
