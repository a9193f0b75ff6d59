// simkit/framepool.hpp — size-class recycler for coroutine frames.
//
// Every awaited sub-task and every spawned process allocates a
// coroutine frame; in allocation-heavy simulations (per-message sends,
// spawn/join churn) the malloc/free pair is the single largest
// per-event cost.  The pool keeps freed blocks on per-size-class free
// lists and hands them back to the next same-class allocation: a frame
// "allocation" becomes two pointer moves.
//
// The free lists are thread_local: each sweep-runner thread owns its
// pool, so the hot path takes no locks and parallel scenario points
// stay byte-identical to serial runs (pooling changes addresses only,
// never simulation behaviour).  Blocks released on a different thread
// than they were acquired on simply join that thread's pool — blocks
// are plain ::operator new memory, owned by no thread.
//
// Every freed block is parked, with no per-class cap, so a class parks
// no more blocks than it had live at its peak (frames freed where they
// were made).  A cap would send the rest back to malloc: a 2048-rank
// collective keeps thousands of same-class frames in flight, and every
// wave of them would pay a malloc/free pair again.
//
// Frames larger than the largest size class (rare, pathological
// coroutines) fall through to plain ::operator new/delete.
#pragma once

#include <cstddef>
#include <cstdint>

namespace simkit::detail {

class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;  // bytes per class step
  static constexpr std::size_t kClasses = 32;      // pools up to 2 KiB

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t allocs = 0;      // total allocate() calls
    std::uint64_t reuses = 0;      // served from a free list
    std::uint64_t deallocs = 0;    // total deallocate() calls
    std::uint64_t retained = 0;    // currently parked on free lists
  };
  /// Stats for the calling thread's pool.
  static Stats stats() noexcept;

  /// Release every parked block on the calling thread's pool (test
  /// hygiene; happens automatically at thread exit).
  static void drain() noexcept;
};

}  // namespace simkit::detail
