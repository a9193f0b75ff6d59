// hw/disk.hpp — mechanical disk service-time model.
//
// Models the three classical components of a disk access:
//   seek       — head movement, sub-linear (sqrt) in seek distance,
//   rotation   — half-revolution average latency on non-sequential access,
//   transfer   — bytes / media rate,
// plus a fixed controller overhead per request.  The model is stateful:
// it remembers the head position, so a stream of sequential requests pays
// seek + rotation only once — this is exactly the effect the paper's
// layout and collective-I/O optimizations exploit.
//
// The model computes durations; occupancy/queueing is handled by the
// caller (pfs::IoNode holds a simkit::Resource per disk arm).
#pragma once

#include <cstdint>

#include "simkit/time.hpp"

namespace hw {

struct DiskParams {
  double track_to_track_seek_ms = 1.5;  // minimum (adjacent-track) seek
  double average_seek_ms = 10.0;        // manufacturer average (1/3 stroke)
  double rpm = 5400.0;                  // spindle speed
  double transfer_mb_per_s = 5.0;       // sustained media rate
  double controller_overhead_ms = 0.5;  // fixed per-request cost
  std::uint64_t capacity_bytes = 2ULL << 30;

  /// 9 GB SSA drive as attached to the SP-2's PIOFS I/O nodes (4 each).
  static DiskParams sp2_ssa_9gb();
  /// RAID-3 array behind a Paragon I/O node.
  static DiskParams paragon_raid3();
};

enum class AccessKind : std::uint8_t { kRead, kWrite };

/// Where one access's service time went — filled on request so the
/// metrics layer can histogram seek vs transfer time separately (the
/// paper's layout/collective optimizations are exactly seek-avoidance).
struct AccessBreakdown {
  simkit::Duration seek = 0.0;
  simkit::Duration rotation = 0.0;
  simkit::Duration transfer = 0.0;
  simkit::Duration overhead = 0.0;  // controller + write settle + scaling
};

class DiskModel {
 public:
  explicit DiskModel(const DiskParams& params) : p_(params) {}

  const DiskParams& params() const noexcept { return p_; }

  /// Service time for a request at byte offset `offset` of length `nbytes`.
  /// Advances the head to the end of the request.  `breakdown`, when
  /// non-null, receives the seek/rotation/transfer split (components sum
  /// to the returned duration).
  simkit::Duration access(std::uint64_t offset, std::uint64_t nbytes,
                          AccessKind kind,
                          AccessBreakdown* breakdown = nullptr);

  /// True if the next access at `offset` would be sequential (no seek).
  bool sequential_at(std::uint64_t offset) const noexcept {
    return offset == head_;
  }

  /// A synchronous commit (redo-log force) acks only once the sector is
  /// on the platter; by the time the next append is issued the commit
  /// point has rotated past the head, so that access pays rotational
  /// latency even though it is block-sequential on the track.  This is
  /// the classic sync-log penalty NVRAM and skip-sector layouts exist
  /// to hide.  One-shot: cleared by the next access.
  void note_sync_commit() noexcept { sync_gap_ = true; }

  std::uint64_t head_position() const noexcept { return head_; }

  /// Fault-injection hook: every access is stretched by this factor while
  /// a degradation episode is armed (1.0 = healthy, the default; a very
  /// large value models a stuck arm).  Set by fault::Injector's clock.
  void set_service_scale(double s) noexcept { service_scale_ = s; }

  /// Time for one full platter revolution.
  simkit::Duration revolution_time() const noexcept {
    return 60.0 / p_.rpm;
  }

 private:
  simkit::Duration seek_time(std::uint64_t from, std::uint64_t to) const;

  DiskParams p_;
  std::uint64_t head_ = 0;
  double service_scale_ = 1.0;
  bool sync_gap_ = false;
};

}  // namespace hw
