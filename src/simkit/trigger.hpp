// simkit/trigger.hpp — one-shot event, the basic fan-in/fan-out primitive.
//
// Any number of coroutines may wait on a Trigger; fire() releases them all
// at the current simulated time.  A Trigger that has already fired is
// transparent (waits complete immediately).
#pragma once

#include <coroutine>
#include <vector>

#include "simkit/engine.hpp"

namespace simkit {

class Trigger {
 public:
  bool fired() const noexcept { return fired_; }

  /// Release all waiters at the current time.  Idempotent.
  void fire(Engine& eng) {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) eng.schedule_at(eng.now(), h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return t.fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace simkit
