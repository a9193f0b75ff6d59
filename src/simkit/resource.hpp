// simkit/resource.hpp — counted resource with strict-FIFO granting.
//
// Models anything with finite concurrency or bandwidth-shared service:
// NIC injection ports, disk arms, I/O-node service slots.  Grant order is
// strictly FIFO — a large request at the head blocks later smaller ones
// (no barging), which keeps queueing behaviour fair and analyzable.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>

#include "simkit/engine.hpp"

namespace simkit {

class Resource {
 public:
  Resource(Engine& eng, std::uint64_t capacity)
      : eng_(eng), capacity_(capacity), available_(capacity) {
    assert(capacity > 0);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t available() const noexcept { return available_; }
  std::uint64_t in_use() const noexcept { return capacity_ - available_; }
  std::size_t queue_length() const noexcept { return waiters_.size(); }

  /// Awaitable acquisition of `n` units (n <= capacity).
  auto acquire(std::uint64_t n = 1) {
    struct Awaiter {
      Resource& r;
      std::uint64_t n;
      bool await_ready() noexcept {
        if (r.waiters_.empty() && r.available_ >= n) {
          r.available_ -= n;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        r.waiters_.push_back({h, n});
      }
      void await_resume() const noexcept {}
    };
    assert(n <= capacity_ && "request can never be satisfied");
    return Awaiter{*this, n};
  }

  /// Return `n` units and wake eligible waiters in FIFO order.
  void release(std::uint64_t n = 1) {
    available_ += n;
    assert(available_ <= capacity_ && "release without matching acquire");
    while (!waiters_.empty() && waiters_.front().n <= available_) {
      auto w = waiters_.front();
      waiters_.pop_front();
      available_ -= w.n;
      eng_.schedule_at(eng_.now(), w.h);
    }
  }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    std::uint64_t n;
  };

  Engine& eng_;
  std::uint64_t capacity_;
  std::uint64_t available_;
  std::deque<Waiter> waiters_;
};

}  // namespace simkit
