#include "pario/prefetch.hpp"

#include <cassert>

namespace pario {

Prefetcher::Prefetcher(pfs::FileHandle& h, std::uint64_t start,
                       std::uint64_t chunk, std::uint64_t total_bytes,
                       bool backed)
    : h_(h),
      start_(start),
      chunk_(chunk),
      total_(total_bytes),
      count_(chunk == 0 ? 0 : (total_bytes + chunk - 1) / chunk),
      backed_(backed) {
  if (backed_) {
    buf_[0].resize(chunk_);
    buf_[1].resize(chunk_);
  }
  if (metrics::Registry* r = metrics::current()) {
    m_hits_ = &r->counter("pario.prefetch.hits");
    m_misses_ = &r->counter("pario.prefetch.misses");
    m_wait_s_ = &r->histogram("pario.prefetch.wait_s");
    m_copy_s_ = &r->histogram("pario.prefetch.copy_s");
  }
  // Prime the pipeline with the first chunk.
  if (count_ > 0) issue(0);
}

void Prefetcher::issue(std::uint64_t index) {
  assert(index == issued_);
  const std::uint64_t slot = index % 2;
  const std::uint64_t len = len_of(index);
  inflight_[slot] = h_.iread(
      start_ + index * chunk_, len,
      backed_ ? std::span<std::byte>(buf_[slot]).subspan(0, len)
              : std::span<std::byte>{});
  ++issued_;
}

simkit::Task<std::span<const std::byte>> Prefetcher::next() {
  if (done()) co_return std::span<const std::byte>{};
  hw::Machine& machine = h_.fs().machine();
  simkit::Engine& eng = machine.engine();
  const std::uint64_t slot = delivered_ % 2;
  const std::uint64_t len = len_of(delivered_);
  const simkit::Duration wait0 = wait_;
  const simkit::Duration copy0 = copy_;

  const simkit::Time t0 = eng.now();
  if (m_hits_) {
    (inflight_[slot].done() ? m_hits_ : m_misses_)->inc();
  }
  co_await inflight_[slot].join();
  wait_ += eng.now() - t0;
  if (m_wait_s_) m_wait_s_->observe(eng.now() - t0);

  // Overlap depth one: as soon as chunk k is here, launch k+1.
  if (issued_ < count_) issue(issued_);

  // Stage-to-user copy.
  const simkit::Time t1 = eng.now();
  co_await machine.mem_copy(len);
  copy_ += eng.now() - t1;
  if (m_copy_s_) m_copy_s_->observe(eng.now() - t1);

  // Paper methodology: a prefetched read costs the consumer its I/O wait
  // plus the staging copy, taken as this chunk's growth of the running
  // totals that wait_time() and copy_time() report.
  h_.record(pfs::OpKind::kRead, t0, (wait_ - wait0) + (copy_ - copy0), len);
  ++delivered_;
  last_len_ = len;
  co_return backed_
      ? std::span<const std::byte>(buf_[slot]).subspan(0, len)
      : std::span<const std::byte>{};
}

}  // namespace pario
