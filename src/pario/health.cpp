#include "pario/health.hpp"

#include <algorithm>
#include <cmath>

#include "fault/injector.hpp"
#include "metrics/metrics.hpp"
#include "simkit/engine.hpp"

namespace pario {

namespace {
constexpr simkit::Time kNever = -1e300;
/// EWMA weight of the newest latency sample.
constexpr double kLatencyAlpha = 0.25;
/// An error score halves every this many seconds.
constexpr double kErrorHalflifeS = 30.0;
/// Badness seconds per unit of error score.
constexpr double kErrorCostS = 0.05;
/// How long after its reboot a server counts as recovering: its cache is
/// cold, a journal replay may be hogging its disks, and hedged reads
/// should not bet on it.
constexpr double kRecoveryWindowS = 5.0;
/// Badness surcharge (seconds) while a server is recovering.
constexpr double kRecoveryCostS = 0.05;
}  // namespace

HealthTracker::HealthTracker(std::size_t servers)
    : lat_(servers, 0.0), err_(servers), recovered_at_(servers, kNever) {}

void HealthTracker::note_success(std::size_t server, simkit::Time now,
                                 simkit::Duration latency) {
  if (server >= lat_.size()) return;
  double& l = lat_[server];
  l = l == 0.0 ? latency : (1.0 - kLatencyAlpha) * l +
                               kLatencyAlpha * latency;
  // Touch the error state so its decay clock doesn't jump later.
  err_[server].score = decayed(err_[server], now);
  err_[server].last = now;
}

void HealthTracker::note_error(std::size_t server, simkit::Time now) {
  if (server >= err_.size()) return;
  err_[server].score = decayed(err_[server], now) + 1.0;
  err_[server].last = now;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.errors").inc();
  }
}

void HealthTracker::note_crash(std::size_t server, simkit::Time now) {
  if (server >= err_.size()) return;
  // A crash is worth a burst of errors up front: the tracker should not
  // need to observe every doomed request to learn the node is gone.
  err_[server].score = decayed(err_[server], now) + 3.0;
  err_[server].last = now;
  recovered_at_[server] = kNever;  // down, not recovering
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.crash_signals").inc();
  }
}

void HealthTracker::note_recovery(std::size_t server, simkit::Time now) {
  if (server >= recovered_at_.size()) return;
  recovered_at_[server] = now;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.recovery_signals").inc();
  }
}

bool HealthTracker::recovering(std::size_t server,
                               simkit::Time now) const noexcept {
  if (server >= recovered_at_.size()) return false;
  const simkit::Time at = recovered_at_[server];
  return at != kNever && now - at < kRecoveryWindowS;
}

bool HealthTracker::any_recovering(std::span<const std::uint32_t> servers,
                                   simkit::Time now) const noexcept {
  for (const std::uint32_t s : servers) {
    if (recovering(s, now)) return true;
  }
  return false;
}

double HealthTracker::decayed(const ErrorState& e,
                              simkit::Time now) const noexcept {
  if (e.score == 0.0) return 0.0;
  const double dt = std::max(0.0, now - e.last);
  return e.score * std::exp2(-dt / kErrorHalflifeS);
}

double HealthTracker::ewma_latency(std::size_t server) const noexcept {
  return server < lat_.size() ? lat_[server] : 0.0;
}

double HealthTracker::error_score(std::size_t server,
                                  simkit::Time now) const noexcept {
  return server < err_.size() ? decayed(err_[server], now) : 0.0;
}

double HealthTracker::badness(std::size_t server,
                              simkit::Time now) const noexcept {
  // A recovering server is priced worse than its history says: the
  // cache it earned that history with died in the crash.
  const double surcharge =
      recovering(server, now) ? kRecoveryCostS : 0.0;
  return ewma_latency(server) + kErrorCostS * error_score(server, now) +
         surcharge;
}

double HealthTracker::expected_latency(
    std::span<const std::uint32_t> servers) const noexcept {
  double worst = 0.0;
  for (const std::uint32_t s : servers) {
    worst = std::max(worst, ewma_latency(s));
  }
  return worst;
}

std::size_t HealthTracker::pick_healthier(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    simkit::Time now) const noexcept {
  double worst_a = 0.0;
  double worst_b = 0.0;
  for (const std::uint32_t s : a) worst_a = std::max(worst_a, badness(s, now));
  for (const std::uint32_t s : b) worst_b = std::max(worst_b, badness(s, now));
  return worst_a <= worst_b ? 0 : 1;
}

void HealthTracker::note_hedge_issued() {
  ++hedges_issued_;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.hedges").inc();
  }
}

void HealthTracker::note_hedge_win() {
  ++hedge_wins_;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.hedge_wins").inc();
  }
}

void HealthTracker::note_hedge_loss() {
  ++hedge_losses_;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.hedge_losses").inc();
  }
}

void HealthTracker::note_divergence(Divergence d) {
  divergences_.push_back(d);
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.divergences").inc();
  }
}

std::vector<HealthTracker::Divergence> HealthTracker::take_divergences() {
  std::vector<Divergence> out;
  out.swap(divergences_);
  return out;
}

void HealthTracker::note_repaired(std::uint64_t n) {
  repaired_ += n;
  if (metrics::Registry* r = metrics::current()) {
    r->counter("pario.health.repairs").inc(n);
  }
}

void follow_crashes(HealthTracker& health, fault::Injector& injector,
                    simkit::Engine& eng) {
  injector.on_node_crash([&health, &eng](std::size_t n, bool) {
    health.note_crash(n, eng.now());
  });
  injector.on_node_recovery([&health, &eng](std::size_t n) {
    health.note_recovery(n, eng.now());
  });
}

}  // namespace pario
