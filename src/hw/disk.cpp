#include "hw/disk.hpp"

#include <algorithm>
#include <cmath>

namespace hw {

DiskParams DiskParams::sp2_ssa_9gb() {
  DiskParams p;
  p.track_to_track_seek_ms = 0.8;
  p.average_seek_ms = 8.0;
  p.rpm = 7200.0;
  p.transfer_mb_per_s = 7.0;
  p.controller_overhead_ms = 0.4;
  p.capacity_bytes = 9ULL << 30;
  return p;
}

DiskParams DiskParams::paragon_raid3() {
  DiskParams p;
  p.track_to_track_seek_ms = 2.0;
  p.average_seek_ms = 14.0;
  p.rpm = 4500.0;
  // RAID-3 stripes every request over the whole array, so sequential
  // streaming outruns a single-spindle disk even though seeks are slower.
  p.transfer_mb_per_s = 8.0;
  p.controller_overhead_ms = 1.0;
  p.capacity_bytes = 4ULL << 30;
  return p;
}

simkit::Duration DiskModel::seek_time(std::uint64_t from,
                                      std::uint64_t to) const {
  if (from == to) return 0.0;
  const std::uint64_t dist = from > to ? from - to : to - from;
  const double frac = std::min(
      1.0, static_cast<double>(dist) / static_cast<double>(p_.capacity_bytes));
  // Sub-linear (square-root) seek profile anchored at track-to-track and
  // full-stroke ≈ 2x average seek.
  const double full_stroke_ms = 2.0 * p_.average_seek_ms;
  const double ms = p_.track_to_track_seek_ms +
                    (full_stroke_ms - p_.track_to_track_seek_ms) *
                        std::sqrt(frac);
  return simkit::milliseconds(ms);
}

simkit::Duration DiskModel::access(std::uint64_t offset, std::uint64_t nbytes,
                                   AccessKind kind,
                                   AccessBreakdown* breakdown) {
  simkit::Duration t = simkit::milliseconds(p_.controller_overhead_ms);
  simkit::Duration seek = 0.0;
  simkit::Duration rotation = 0.0;
  if (!sequential_at(offset)) {
    seek = seek_time(head_, offset);
    // Average rotational latency: half a revolution.
    rotation = 0.5 * revolution_time();
    t += seek + rotation;
  } else if (sync_gap_) {
    // Sequential on the track, but the previous synchronous commit let
    // the sector rotate past the head: pay the rotational latency, no
    // seek.
    rotation = 0.5 * revolution_time();
    t += rotation;
  }
  sync_gap_ = false;
  const simkit::Duration transfer =
      static_cast<double>(nbytes) / (p_.transfer_mb_per_s * 1e6);
  t += transfer;
  // Writes settle marginally slower than reads on these drives (write
  // verify / head settle); 5% is within the envelope of 1990s datasheets.
  if (kind == AccessKind::kWrite) t *= 1.05;
  // Guarded so a healthy disk's timing stays bit-identical to a build
  // without fault injection at all.
  if (service_scale_ != 1.0) t *= service_scale_;
  head_ = offset + nbytes;
  if (breakdown) {
    breakdown->seek = seek;
    breakdown->rotation = rotation;
    breakdown->transfer = transfer;
    breakdown->overhead = t - seek - rotation - transfer;
  }
  return t;
}

}  // namespace hw
