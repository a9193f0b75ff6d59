// simkit/engine.hpp — the discrete-event core.
//
// The Engine owns a time-ordered queue of coroutine resumptions.  All
// simulated concurrency is cooperative: exactly one coroutine runs at a
// time, and the simulated clock only advances between events.  Ties are
// broken by schedule order, so simulations are fully deterministic.
//
// The queue is a calendar queue (see calqueue.hpp): O(1) amortized
// schedule/pop with an exact (t, seq) total order, so swapping it in
// for the historical binary heap moved zero bytes of simulation output.
// Process completion records are pooled and intrusively refcounted,
// process names are interned pointers, and coroutine frames recycle
// through a size-class pool (see framepool.hpp) — the spawn hot path
// performs no heap allocation in steady state.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "simkit/calqueue.hpp"
#include "simkit/framepool.hpp"
#include "simkit/procname.hpp"
#include "simkit/task.hpp"
#include "simkit/time.hpp"

namespace simkit {

class Engine;

/// Thrown by Engine::run when a spawned process failed with an exception
/// that no joiner consumed.
class UnhandledProcessError : public std::runtime_error {
 public:
  UnhandledProcessError(std::string process_name, std::exception_ptr cause)
      : std::runtime_error("unhandled exception in simulated process '" +
                           process_name + "'"),
        process_name_(std::move(process_name)),
        cause_(std::move(cause)) {}
  const std::string& process_name() const noexcept { return process_name_; }
  std::exception_ptr cause() const noexcept { return cause_; }

 private:
  std::string process_name_;
  std::exception_ptr cause_;
};

namespace detail {

/// Completion record for a spawned process.  Intrusively refcounted
/// (the engine's driver coroutine holds one reference, every ProcHandle
/// another) and recycled through a thread-local pool, keeping the
/// joiners vector's capacity across reuses.  Single-threaded by
/// construction — an engine and all its handles live on one thread —
/// so the count is a plain integer.
struct ProcState {
  const char* name = "proc";
  bool done = false;
  bool error_consumed = false;
  std::uint32_t refs = 0;
  std::exception_ptr error;
  Time finish_time = kTimeZero;
  std::vector<std::coroutine_handle<>> joiners;
  ProcState* pool_next = nullptr;

  /// Pop a recycled record (or allocate one) with refs == 1.
  static ProcState* acquire(const char* name);
  void ref() noexcept { ++refs; }
  void unref() noexcept {
    if (--refs == 0) release(this);
  }

 private:
  static void release(ProcState* st) noexcept;
};

/// Fire-and-forget driver coroutine: starts suspended (the engine
/// schedules it), self-destroys at completion.  Frames recycle through
/// the pool like every other coroutine's.
struct Detached {
  struct promise_type {
    Detached get_return_object() noexcept {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
    static void* operator new(std::size_t bytes) {
      return FramePool::allocate(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      FramePool::deallocate(p, bytes);
    }
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace detail

/// Handle to a spawned process; join it from any coroutine.
class ProcHandle {
 public:
  ProcHandle() = default;
  ProcHandle(const ProcHandle& o) noexcept : st_(o.st_) {
    if (st_) st_->ref();
  }
  ProcHandle(ProcHandle&& o) noexcept
      : st_(std::exchange(o.st_, nullptr)) {}
  ProcHandle& operator=(const ProcHandle& o) noexcept {
    if (this != &o) {
      if (o.st_) o.st_->ref();
      if (st_) st_->unref();
      st_ = o.st_;
    }
    return *this;
  }
  ProcHandle& operator=(ProcHandle&& o) noexcept {
    if (this != &o) {
      if (st_) st_->unref();
      st_ = std::exchange(o.st_, nullptr);
    }
    return *this;
  }
  ~ProcHandle() {
    if (st_) st_->unref();
  }

  bool done() const noexcept { return st_ && st_->done; }
  bool failed() const noexcept { return st_ && st_->error != nullptr; }
  Time finish_time() const noexcept { return st_ ? st_->finish_time : 0.0; }
  /// The process name; empty for a default-constructed handle (which
  /// historically dereferenced null).
  std::string_view name() const noexcept {
    return st_ ? std::string_view(st_->name) : std::string_view();
  }

  /// Awaitable that resumes when the process completes; rethrows the
  /// process's exception in the joiner, if any.  The awaiting coroutine
  /// keeps this handle (and so the record) alive across the wait.
  auto join() {
    struct Awaiter {
      detail::ProcState* st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) {
        st->joiners.push_back(h);
      }
      void await_resume() {
        if (st->error) {
          st->error_consumed = true;
          std::rethrow_exception(st->error);
        }
      }
    };
    return Awaiter{st_};
  }

 private:
  friend class Engine;
  explicit ProcHandle(detail::ProcState* st) noexcept : st_(st) {
    st_->ref();
  }
  detail::ProcState* st_ = nullptr;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }
  /// Past-time schedules silently clamped to now (release builds only;
  /// debug builds assert instead — a past-time schedule reorders
  /// against same-instant events and always indicates a caller bug).
  std::uint64_t clamped_schedules() const noexcept { return clamped_; }

  /// Schedule a raw coroutine resumption at absolute time t (>= now).
  void schedule_at(Time t, std::coroutine_handle<> h) {
    if (t < now_) {
      assert(false && "Engine::schedule_at: past-time schedule (clamped)");
      ++clamped_;
      t = now_;  // clamp: no time travel
    }
    queue_.push(t, next_seq_++, h);
  }
  void schedule_after(Duration dt, std::coroutine_handle<> h) {
    schedule_at(now_ + dt, h);
  }

  /// Awaitable: suspend the current coroutine for dt simulated seconds.
  auto delay(Duration dt) {
    struct Awaiter {
      Engine& eng;
      Duration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        eng.schedule_after(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Start a process at the current simulated time.
  ProcHandle spawn(Task<void> body, ProcName name = ProcName());

  /// Start a process at absolute simulated time `t` (>= now).  Used by
  /// timeline-driven machinery (e.g. fault arming) that must fire at
  /// pre-planned instants rather than relative delays.
  ProcHandle spawn_at(Time t, Task<void> body, ProcName name = ProcName());

  /// Run until the event queue drains (or max_events, 0 = unlimited).
  /// Throws UnhandledProcessError if a spawned process failed and nobody
  /// joined it.
  void run(std::uint64_t max_events = 0);

  /// Run until simulated time `deadline` (events at exactly `deadline`
  /// still run).  Returns true if the queue drained before the deadline;
  /// otherwise the clock advances to `deadline`, or stays put if
  /// `deadline` is already past.
  bool run_until(Time deadline);

  /// Process a single event; returns false if the queue is empty.
  bool step();

  bool idle() const noexcept { return queue_.empty(); }

 private:
  detail::Detached drive(Task<void> body, detail::ProcState* st);
  void check_failures();

  Time now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t clamped_ = 0;
#ifdef SIMKIT_HEAP_QUEUE
  // A/B reference build: the pre-calendar binary-heap scheduler, for
  // scheduler-isolated benchmarking (bench/baseline/README.md).
  HeapQueue<std::coroutine_handle<>> queue_;
#else
  CalendarQueue<std::coroutine_handle<>> queue_;
#endif
  std::vector<detail::ProcState*> failed_;  // each entry holds a ref
};

}  // namespace simkit
