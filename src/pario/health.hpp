// pario/health.hpp — client-side server health estimation.
//
// A HealthTracker is the client's memory of how each I/O server has been
// behaving: an EWMA of observed per-operation latency and a time-decayed
// error score, both fed from the completion path of the resilient_* ops.
// Recovery layers consult it to pick the healthier of two checkpoint
// copies, and the resilient read path uses the latency estimate to hedge
// straggling reads against the replica.
//
// The tracker is pure observation: feeding it costs no simulated time,
// and a policy without one behaves exactly as before.  It also keeps the
// client's divergence ledger — the list of byte ranges whose primary copy
// went stale because a write failed over to the replica — so repair can
// happen from the client that knows what it skipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pfs/types.hpp"
#include "simkit/time.hpp"

namespace fault {
class Injector;
}
namespace simkit {
class Engine;
}

namespace pario {

class HealthTracker {
 public:
  explicit HealthTracker(std::size_t servers);

  std::size_t servers() const noexcept { return lat_.size(); }

  // -- feed (called from resilient_* completions) -------------------------
  void note_success(std::size_t server, simkit::Time now,
                    simkit::Duration latency);
  void note_error(std::size_t server, simkit::Time now);

  // -- recovery signals (fed from fault::Injector listeners) --------------
  /// The server's node crashed: count it as an error burst (requests
  /// there will fail) and clear any stale recovery mark.
  void note_crash(std::size_t server, simkit::Time now);
  /// The server rebooted: it re-enters with a cold cache (and maybe a
  /// journal replay hogging its disks), so it carries a recovery
  /// surcharge for a few seconds.
  void note_recovery(std::size_t server, simkit::Time now);
  /// Inside the post-reboot recovery window?
  bool recovering(std::size_t server, simkit::Time now) const noexcept;
  /// Any server of a striped copy still recovering?  Hedged reads use
  /// this to avoid betting a speculative leg on a cold server.
  bool any_recovering(std::span<const std::uint32_t> servers,
                      simkit::Time now) const noexcept;

  // -- estimates ----------------------------------------------------------
  /// EWMA of observed latency; 0 until the first sample lands.
  double ewma_latency(std::size_t server) const noexcept;
  /// Exponentially decayed count of recent errors at `now`.
  double error_score(std::size_t server, simkit::Time now) const noexcept;
  /// Composite cost estimate in seconds (higher = worse): EWMA latency
  /// plus an error surcharge.
  double badness(std::size_t server, simkit::Time now) const noexcept;
  /// Slowest-leg latency estimate for a striped operation over `servers`;
  /// 0 when nothing has been observed yet (callers must not hedge then).
  double expected_latency(std::span<const std::uint32_t> servers)
      const noexcept;
  /// 0 if copy A (striped over `a`) looks at least as healthy as copy B,
  /// else 1.  A copy is as bad as its worst server.
  std::size_t pick_healthier(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b,
                             simkit::Time now) const noexcept;

  // -- hedged-read accounting ---------------------------------------------
  void note_hedge_issued();
  void note_hedge_win();   // the replica copy finished first
  void note_hedge_loss();  // the straggling primary still won
  std::uint64_t hedges_issued() const noexcept { return hedges_issued_; }
  std::uint64_t hedge_wins() const noexcept { return hedge_wins_; }
  std::uint64_t hedge_losses() const noexcept { return hedge_losses_; }

  // -- divergence ledger --------------------------------------------------
  /// A byte range whose primary copy is stale: the write landed only on
  /// the replica while the primary's node was down.
  struct Divergence {
    pfs::FileId primary = pfs::kInvalidFile;
    pfs::FileId replica = pfs::kInvalidFile;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  void note_divergence(Divergence d);
  /// Drain the ledger (repair takes ownership of what it will fix).
  std::vector<Divergence> take_divergences();
  std::size_t pending_divergences() const noexcept {
    return divergences_.size();
  }
  void note_repaired(std::uint64_t n = 1);
  std::uint64_t divergences_repaired() const noexcept { return repaired_; }

 private:
  struct ErrorState {
    double score = 0.0;
    simkit::Time last = 0.0;
  };
  double decayed(const ErrorState& e, simkit::Time now) const noexcept;

  std::vector<double> lat_;        // EWMA latency, 0 = no samples yet
  std::vector<ErrorState> err_;
  std::vector<simkit::Time> recovered_at_;  // last reboot; -inf = never
  std::vector<Divergence> divergences_;
  std::uint64_t hedges_issued_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t hedge_losses_ = 0;
  std::uint64_t repaired_ = 0;
};

/// Feed `injector`'s crash and recovery edges into `health`, stamped with
/// `eng`'s clock: routing learns a node died without observing a failed
/// request, and hedges steer clear of freshly rebooted (cold-cache)
/// servers.  Callers gate this on crash_semantics — without it a reboot
/// leaves the cache warm, so there is no cold window to avoid.  The
/// listeners reference `health` and `eng`, so the injector must not be
/// re-armed for another run (no caller does).
void follow_crashes(HealthTracker& health, fault::Injector& injector,
                    simkit::Engine& eng);

}  // namespace pario
