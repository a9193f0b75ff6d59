#include "simkit/framepool.hpp"

#include <new>

namespace simkit::detail {
namespace {

struct FreeBlock {
  FreeBlock* next;
};

struct Pool {
  FreeBlock* head[FramePool::kClasses] = {};
  FramePool::Stats stats;

  ~Pool() {
    for (std::size_t c = 0; c < FramePool::kClasses; ++c) {
      for (FreeBlock* b = head[c]; b != nullptr;) {
        FreeBlock* next = b->next;
        ::operator delete(b);
        b = next;
      }
      head[c] = nullptr;
    }
  }
};

thread_local Pool t_pool;

/// Size class for a byte count; kClasses means "too big, don't pool".
inline std::size_t class_of(std::size_t bytes) noexcept {
  return (bytes + FramePool::kGranularity - 1) / FramePool::kGranularity;
}

inline std::size_t class_bytes(std::size_t c) noexcept {
  return c * FramePool::kGranularity;
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  Pool& p = t_pool;
  ++p.stats.allocs;
  const std::size_t c = class_of(bytes);
  if (c < kClasses && p.head[c] != nullptr) {
    FreeBlock* b = p.head[c];
    p.head[c] = b->next;
    --p.stats.retained;
    ++p.stats.reuses;
    return b;
  }
  // Round pooled allocations up to the class size so the block is
  // interchangeable with every other block of its class.
  return ::operator new(c < kClasses ? class_bytes(c) : bytes);
}

void FramePool::deallocate(void* ptr, std::size_t bytes) noexcept {
  Pool& p = t_pool;
  ++p.stats.deallocs;
  const std::size_t c = class_of(bytes);
  if (c < kClasses) {
    FreeBlock* b = static_cast<FreeBlock*>(ptr);
    b->next = p.head[c];
    p.head[c] = b;
    ++p.stats.retained;
    return;
  }
  ::operator delete(ptr);
}

FramePool::Stats FramePool::stats() noexcept { return t_pool.stats; }

void FramePool::drain() noexcept {
  Pool& p = t_pool;
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (FreeBlock* b = p.head[c]; b != nullptr;) {
      FreeBlock* next = b->next;
      ::operator delete(b);
      b = next;
    }
    p.head[c] = nullptr;
  }
  p.stats.retained = 0;
}

}  // namespace simkit::detail
