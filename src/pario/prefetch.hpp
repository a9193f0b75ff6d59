// pario/prefetch.hpp — sequential chunk prefetching (PASSION iread).
//
// SCF's read phase scans a private file front to back in packed chunks —
// exactly the pattern prefetching hides: while the application consumes
// chunk k, chunk k+1 is already in flight.  Per the paper's methodology,
// the I/O time of a prefetched read is accounted as wait time (how long
// the consumer actually blocked) plus copy time (staging buffer to user),
// both tracked here and recorded through the handle (its observer and its
// interface's instruments) as one Read per delivered chunk.  The iread
// itself is neither traced nor charged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "metrics/metrics.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace pario {

class Prefetcher {
 public:
  /// Scan [start, start + total_bytes) of `h`'s file in `chunk`-byte
  /// pieces (the final piece may be shorter) with one-chunk-ahead
  /// prefetch.  `h` must outlive the Prefetcher.  `backed` allocates real
  /// staging buffers (chunk bytes x2) and makes next() return real data.
  Prefetcher(pfs::FileHandle& h, std::uint64_t start, std::uint64_t chunk,
             std::uint64_t total_bytes, bool backed = false);

  /// Wait for the current chunk (issuing the next one), pay the staging
  /// copy, record the chunk as one Read costing wait plus copy, and
  /// return a view of the data (empty when not backed).  Returns an empty
  /// span once the scan is exhausted and `done()` is true.
  simkit::Task<std::span<const std::byte>> next();

  bool done() const noexcept { return delivered_ == count_; }
  std::uint64_t chunks_delivered() const noexcept { return delivered_; }
  /// Byte length of the most recently delivered chunk.
  std::uint64_t last_len() const noexcept { return last_len_; }

  /// Time the consumer actually blocked waiting for I/O.
  simkit::Duration wait_time() const noexcept { return wait_; }
  /// Time spent copying staged chunks to the consumer.
  simkit::Duration copy_time() const noexcept { return copy_; }

 private:
  void issue(std::uint64_t index);

  std::uint64_t len_of(std::uint64_t index) const noexcept {
    return std::min(chunk_, total_ - index * chunk_);
  }

  pfs::FileHandle& h_;
  std::uint64_t start_;
  std::uint64_t chunk_;
  std::uint64_t total_;
  std::uint64_t count_;
  std::uint64_t last_len_ = 0;
  bool backed_;
  std::uint64_t issued_ = 0;
  std::uint64_t delivered_ = 0;
  std::vector<std::byte> buf_[2];
  simkit::ProcHandle inflight_[2];
  simkit::Duration wait_ = 0.0;
  simkit::Duration copy_ = 0.0;

  // Registry instruments (pario.prefetch.*); null when metrics are off.
  // A "hit" is a chunk that already finished when the consumer asked for
  // it — the prefetch fully hid the I/O.
  metrics::Counter* m_hits_ = nullptr;
  metrics::Counter* m_misses_ = nullptr;
  metrics::Histogram* m_wait_s_ = nullptr;
  metrics::Histogram* m_copy_s_ = nullptr;
};

}  // namespace pario
