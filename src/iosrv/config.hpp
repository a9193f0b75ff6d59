// iosrv/config.hpp — configuration for the active I/O server layer.
//
// ViPIOS-style smart servers (PAPERS.md) make their own caching and
// scheduling decisions instead of serving a passive FIFO of requests.
// This header is the knob surface: which block-replacement policy the
// per-node cache runs, whether the server detects access patterns and
// reads ahead, what a write ack promises (the durability policy, the
// one knob for it), and whether buffered writes use the legacy
// one-slot-one-flusher model or a bounded dirty pool with watermark
// draining.  The defaults reproduce the pre-iosrv IoNode byte for byte
// (LRU, no read-ahead, legacy write-behind) — CI pins that identity.
//
// Header-only on purpose: hw::IoSubsysParams embeds a Config without
// pulling the iosrv library into the hw link line.
#pragma once

#include <cstdint>
#include <string_view>

namespace iosrv {

enum class PolicyKind : std::uint8_t {
  kLru,  // classic least-recently-used (the historical BlockCache)
  kArc,  // adaptive replacement cache: scan-resistant recency+frequency
};

constexpr std::string_view to_string(PolicyKind p) {
  return p == PolicyKind::kLru ? "lru" : "arc";
}

/// Pattern-driven server-side read-ahead.  The server watches each
/// (client, file) request stream for sequential or constant-stride block
/// runs and prefetches ahead of the detected run, bounded by an
/// in-flight budget so speculation never floods the disk queue (the run
/// length, depth and budget are pfs::IoNode constants).
struct ReadAheadConfig {
  bool enabled = false;
};

enum class WritebackMode : std::uint8_t {
  /// Historical Paragon model: each buffered write takes one dirty slot
  /// and spawns its own flusher immediately.
  kLegacy,
  /// Bounded dirty-buffer pool: writes complete into the pool; a
  /// background drainer writes blocks out once the pool crosses the
  /// high watermark, draining down to the low watermark, at most
  /// WritebackPool::kDrainWidth disk writes at a time.
  kPool,
};

/// What a client-visible write ack promises about durability, and what
/// a node crash therefore costs.  `kWriteBehind` is the historical
/// model: the ack means "buffered", and every acked-but-unflushed block
/// on a crashed server is a lost update.  The other three close that
/// window at increasing up-front cost.  The machine presets pick one:
/// Paragon buffers (write_behind), SP-2 writes through.
enum class DurabilityPolicy : std::uint8_t {
  /// Ack on buffer; a crash loses the dirty pool (the default).
  kWriteBehind,
  /// Ack only after the in-place disk write — nothing acked is ever
  /// lost, every write pays the full disk seek.
  kWriteThrough,
  /// Ack on buffer like write-behind, but expose a client-visible
  /// flush barrier (pfs/pario fsync) that completes only on durable
  /// ack; data is vulnerable exactly until the barrier returns.
  kOrderedDrain,
  /// Ack after a sequential append to a bounded per-node redo log
  /// kept on a dedicated log arm (the classic log-device design, so
  /// appends never contend with data traffic); a plain crash replays
  /// the log on recovery (zero acked loss), a scrubbing crash destroys
  /// log and data alike.
  kJournaled,
};

constexpr std::string_view to_string(DurabilityPolicy p) {
  switch (p) {
    case DurabilityPolicy::kWriteBehind: return "write_behind";
    case DurabilityPolicy::kWriteThrough: return "write_through";
    case DurabilityPolicy::kOrderedDrain: return "ordered_drain";
    default: return "journaled";
  }
}

struct DurabilityConfig {
  DurabilityPolicy policy = DurabilityPolicy::kWriteBehind;
  /// Master switch for crash semantics on the server: when false (the
  /// default, preserving every pinned golden), a fault::Injector crash
  /// rejects requests but leaves cache and pool contents intact, as it
  /// always has.  When true, a crash invalidates the cache, discards
  /// the writeback pool (acked-but-unflushed blocks become lost
  /// updates), and cancels in-flight drains and read-ahead.  Under every
  /// policy but write_through it requires WritebackMode::kPool
  /// (hw::MachineConfig::validate rejects the legacy flusher).
  bool crash_semantics = false;
};

struct WritebackConfig {
  WritebackMode mode = WritebackMode::kLegacy;
  /// Dirty-buffer pool size in blocks; 0 means "cache capacity".
  std::uint32_t pool_blocks = 0;
  /// Fraction of the pool at which background draining starts.
  double high_watermark = 0.75;
  /// Fraction the drainer stops at (forced drains go to zero).
  double low_watermark = 0.25;
};

/// The whole smart-server knob set, embedded in hw::IoSubsysParams.
struct Config {
  PolicyKind policy = PolicyKind::kLru;
  ReadAheadConfig readahead;
  WritebackConfig writeback;
  DurabilityConfig durability;
};

}  // namespace iosrv
