// Tests for the calendar-queue scheduler: exact (t, seq) pop-order
// equivalence against a reference binary heap (the engine's previous
// scheduler), including the resize, overflow-migration, and front-
// buffer boundary cases.
#include "simkit/calqueue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "simkit/rng.hpp"

namespace simkit {
namespace {

struct RefEv {
  Time t;
  std::uint64_t seq;
  int payload;
};
struct RefCmp {  // max-heap inversion: priority_queue pops the min
  bool operator()(const RefEv& a, const RefEv& b) const noexcept {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

/// The scheduler the engine used before the calendar queue; every
/// equivalence test below demands bit-identical pop order against it.
class RefHeap {
 public:
  void push(Time t, std::uint64_t seq, int payload) {
    q_.push({t, seq, payload});
  }
  RefEv pop() {
    RefEv e = q_.top();
    q_.pop();
    return e;
  }
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }

 private:
  std::priority_queue<RefEv, std::vector<RefEv>, RefCmp> q_;
};

/// Push the same stream into both queues, then (or interleaved) pop
/// both and require identical (t, seq, payload) at every step.
class Harness {
 public:
  void push(Time t, int payload) {
    cq_.push(t, seq_, payload);
    ref_.push(t, seq_, payload);
    ++seq_;
  }

  /// Pops one event from both queues, asserts equality, returns its t.
  Time pop_both() {
    EXPECT_FALSE(cq_.empty());
    EXPECT_FALSE(ref_.empty());
    const auto ce = cq_.pop();
    const RefEv re = ref_.pop();
    EXPECT_EQ(ce.t, re.t);
    EXPECT_EQ(ce.seq, re.seq);
    EXPECT_EQ(ce.payload, re.payload);
    return re.t;
  }

  void drain_and_compare() {
    while (!ref_.empty()) pop_both();
    EXPECT_TRUE(cq_.empty());
    EXPECT_EQ(cq_.size(), 0u);
  }

  CalendarQueue<int>& cq() { return cq_; }

 private:
  CalendarQueue<int> cq_;
  RefHeap ref_;
  std::uint64_t seq_ = 0;
};

TEST(CalendarQueue, StartsEmpty) {
  CalendarQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(CalendarQueue, PeekMatchesPop) {
  CalendarQueue<int> q;
  q.push(2.0, 0, 20);
  q.push(1.0, 1, 10);
  EXPECT_EQ(q.peek().t, 1.0);
  EXPECT_EQ(q.peek().payload, 10);
  const auto e = q.pop();
  EXPECT_EQ(e.t, 1.0);
  EXPECT_EQ(q.peek().t, 2.0);
}

TEST(CalendarQueue, AllSameTimePopsInSeqOrder) {
  // A pile of ties no bucket geometry can split: pure seq tiebreak,
  // and well past kFront so the front buffer churns through it too.
  Harness h;
  for (int i = 0; i < 5000; ++i) h.push(1.0, i);
  h.drain_and_compare();
}

TEST(CalendarQueue, ExponentiallySpreadTimesForceWidthResizes) {
  // Times spanning 12 orders of magnitude: no single width fits, so
  // the queue must resize/widen and still pop in exact order.
  Harness h;
  int payload = 0;
  for (int mag = -6; mag <= 6; ++mag) {
    const double base = std::pow(10.0, mag);
    for (int i = 0; i < 200; ++i) {
      h.push(base * (1.0 + 0.001 * i), payload++);
    }
  }
  h.drain_and_compare();
}

TEST(CalendarQueue, FarFutureOverflowMigratesBack) {
  // Fault-injector shape: a parked far-future tail behind a hot near
  // set.  The tail sits in the overflow heap until the scan advances;
  // migration back into buckets must not perturb the order.
  Harness h;
  simkit::Rng rng(7);
  for (int i = 0; i < 3000; ++i) h.push(100.0 + 50.0 * rng.uniform(), -i);
  for (int i = 0; i < 3000; ++i) h.push(1e-3 * rng.uniform(), i);
  h.drain_and_compare();
  EXPECT_EQ(h.cq().overflow_size(), 0u);
}

TEST(CalendarQueue, HugeAndInfiniteTimesStayLast) {
  // Unmappable indices (enormous or non-finite times) must live in the
  // overflow heap forever and pop after everything finite.
  Harness h;
  h.push(std::numeric_limits<double>::infinity(), 1);
  h.push(1e300, 2);
  for (int i = 0; i < 100; ++i) h.push(0.01 * i, 100 + i);
  h.drain_and_compare();
}

TEST(CalendarQueue, InterleavedPushPopWithAdvancingClock) {
  // The simulation access pattern: pop the minimum, then push a new
  // event a bounded delay past it (plus occasional far-future arming),
  // across enough events to cross several rebuilds.
  Harness h;
  simkit::Rng rng(42);
  for (int p = 0; p < 512; ++p) h.push(1e-4 * rng.uniform(), p);
  double now = 0.0;
  for (int step = 0; step < 200000; ++step) {
    now = h.pop_both();
    const double dt =
        rng.uniform() < 0.01 ? 10.0 * rng.uniform() : 1e-4 * rng.uniform();
    h.push(now + dt, step);
  }
  h.drain_and_compare();
  EXPECT_GT(h.cq().resizes(), 0u);
}

TEST(CalendarQueue, RandomizedMillionEventEquivalence) {
  // The tentpole gate: one million mixed operations — near/tied/mid/
  // far-future pushes against monotone pops — replay bit-identically
  // on the calendar queue and the reference heap.
  Harness h;
  simkit::Rng rng(123);
  double now = 0.0;
  std::uint64_t pushes = 0;
  for (int step = 0; step < 1000000; ++step) {
    const bool must_push = h.cq().empty();
    if (must_push || rng.uniform() < 0.55) {
      const double k = rng.uniform();
      double dt;
      if (k < 0.4) {
        dt = 1e-4 * rng.uniform();  // near future: calendar hot path
      } else if (k < 0.7) {
        dt = 0.0;  // tie at now: seq ordering
      } else if (k < 0.9) {
        dt = 1e-2 * rng.uniform();  // beyond one rotation
      } else {
        dt = 10.0 + 100.0 * rng.uniform();  // overflow territory
      }
      h.push(now + dt, static_cast<int>(++pushes & 0x7fffffff));
    } else {
      now = h.pop_both();
    }
  }
  h.drain_and_compare();
  EXPECT_GT(h.cq().resizes(), 0u);  // the mix must have exercised rebuilds
}

TEST(CalendarQueue, BurstDrainCyclesExerciseShrink) {
  // Fan-out shape: bursts of same-instant events fully drained each
  // round.  Crosses the grow/shrink thresholds repeatedly; the rebuild
  // cooldown must keep the queue correct (and sane) throughout.
  Harness h;
  double now = 0.0;
  for (int round = 0; round < 3000; ++round) {
    now += 1e-5;
    for (int i = 0; i < (round % 2 ? 129 : 1); ++i) h.push(now, round);
    const int n = (round % 2 ? 129 : 1);
    for (int i = 0; i < n; ++i) h.pop_both();
  }
  h.drain_and_compare();
}

/// A payload that counts how often the queue copies it.  It declares
/// no move operations, so every move the queue makes (sorting, merging,
/// vector growth) falls back to a counted copy.
struct CountedPayload {
  static inline std::uint64_t copies = 0;
  int id = 0;

  CountedPayload() = default;
  explicit CountedPayload(int i) : id(i) {}
  CountedPayload(const CountedPayload& o) : id(o.id) { ++copies; }
  CountedPayload& operator=(const CountedPayload& o) {
    id = o.id;
    ++copies;
    return *this;
  }
};

TEST(CalendarQueue, TwoInstantPileMergesInsteadOfResorting) {
  // The multi-tenant stream's pile: a bucket wide enough to hold both
  // `now` and `now + 55 us`, where every same-instant wakeup carries a
  // larger seq than the front buffer's ties and so lands behind the
  // later half.  Re-sorting the whole ~1,900-event bucket at every
  // refill makes ~690 payload copies per pop here; sorting only the
  // arrivals and merging them in makes ~72.
  CalendarQueue<CountedPayload> cq;
  RefHeap ref;
  std::uint64_t seq = 0;
  auto push = [&](Time t) {
    const int id = static_cast<int>(seq & 0x7fffffff);
    cq.push(t, seq, CountedPayload(id));
    ref.push(t, seq, id);
    ++seq;
  };
  auto pop = [&] {
    const auto ce = cq.pop();
    const RefEv re = ref.pop();
    EXPECT_EQ(ce.t, re.t);
    EXPECT_EQ(ce.seq, re.seq);
    EXPECT_EQ(ce.payload.id, re.payload);
    return re.t;
  };

  // 2,000 events over 2 s, churned until the width settles (~1.5 ms).
  simkit::Rng rng(42);
  for (int i = 0; i < 2000; ++i) push(2.0 * rng.uniform());
  Time now = 0.0;
  for (int i = 0; i < 20000; ++i) {
    now = pop();
    push(now + 2.0 * rng.uniform());
  }
  EXPECT_GT(cq.bucket_width(), 55e-6);

  // The pile, then its steady churn.
  for (int i = 0; i < 1000; ++i) push(now);
  for (int i = 0; i < 900; ++i) push(now + 55e-6);
  CountedPayload::copies = 0;
  constexpr int kSteps = 100000;
  for (int i = 0; i < kSteps; ++i) {
    const Time t = pop();
    push(t);
    push(t + 55e-6);
    pop();
  }
  const double copies_per_pop =
      static_cast<double>(CountedPayload::copies) / (2.0 * kSteps);
  EXPECT_LT(copies_per_pop, 150.0);
  while (!ref.empty()) pop();
  EXPECT_TRUE(cq.empty());
}

}  // namespace
}  // namespace simkit
