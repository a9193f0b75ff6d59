// iosrv/pattern.hpp — per-(client, file) access-pattern detection.
//
// An active I/O server watches each client's request stream to a file
// and recognizes sequential and constant-stride block runs; the server
// read-ahead layer prefetches along a detected run.  Pure bookkeeping:
// no simulated time, no RNG — unit-testable in isolation, and tracking
// never perturbs a simulation that ignores its verdicts.
//
// Duplicate accesses (the same block twice in a row — retried and
// hedged reads produce these) neither extend nor reset a run: a hedge
// loser must not teach the server a bogus stride.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>

#include "iosrv/flat_map.hpp"

namespace iosrv {

/// The detector's verdict after one access.
struct RunInfo {
  /// Block-number delta of the current run (+1 = sequential); 0 until
  /// two distinct accesses establish one.
  std::int64_t stride = 0;
  /// Accesses in the current constant-stride run (1 = no run yet).
  int length = 1;

  bool sequential() const noexcept { return stride == 1; }
};

class PatternTracker {
 public:
  /// At most `max_streams` (client, file) streams are tracked; the
  /// least-recently-active stream is forgotten beyond that, so a
  /// long-lived server cannot accumulate unbounded state.
  explicit PatternTracker(std::size_t max_streams = 1024)
      : max_streams_(max_streams ? max_streams : 1) {}

  /// Record that `client` accessed `block` of `file`; returns the run
  /// state including this access.
  RunInfo note(std::uint64_t client, std::uint64_t file,
               std::uint64_t block);

  std::size_t stream_count() const noexcept { return map_.size(); }

 private:
  struct StreamKey {
    std::uint64_t client = 0;
    std::uint64_t file = 0;
    bool operator==(const StreamKey&) const = default;
  };
  struct StreamKeyHash {
    std::size_t operator()(const StreamKey& k) const noexcept {
      std::uint64_t z = k.client * 0x9E3779B97f4A7C15ULL ^ k.file;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };
  struct Stream {
    std::uint64_t last_block = 0;
    RunInfo run;
    std::list<StreamKey>::iterator lru_pos;
  };

  std::size_t max_streams_;
  std::list<StreamKey> lru_;  // most-recently-active first
  FlatMap<StreamKey, Stream, StreamKeyHash> map_;
};

}  // namespace iosrv
