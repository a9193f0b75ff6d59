// simkit/calqueue.hpp — calendar-queue event scheduler.
//
// A min-queue over (t, seq) implemented as a calendar queue (R. Brown,
// CACM 1988): an array of time-bucketed bins of width `w` covering a
// rotating window, giving O(1) amortized push/pop, plus a sorted
// overflow heap for events beyond the calendar horizon (far-future
// fault arming and the like).  Pop order is EXACTLY ascending (t, seq)
// — identical to a binary heap — so simulations replay bit-for-bit
// regardless of bucket geometry, width resizes, or overflow migration.
//
// Key invariants (the equivalence test in tests/simkit/calqueue_test.cpp
// drives these against a reference binary heap):
//   * idx_of(t) = floor(t * 1/w) is the only bucket-mapping expression.
//     It is monotone in t and a pure function of t, so equal-t events
//     always share a bucket and cross-bucket ties cannot exist.
//   * A bucket's live range [head, end) is a sorted run [head, sorted)
//     followed by an unsorted tail [sorted, end) of out-of-order
//     arrivals.  The pop-side scan sorts the tail and merges it into
//     the run when it visits the bucket (tidy()), so once visited the
//     head element is the bucket minimum.
//   * cur_idx_ (the absolute bucket index being scanned) is <= the
//     index of every live calendar event: pushes re-anchor it downward,
//     pops advance it only past buckets with no event in that window.
//   * Calendar events all have idx < limit_idx_ <= idx of every
//     overflow event, so the calendar strictly precedes the overflow
//     and the overflow is only consulted when the calendar is empty.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "simkit/time.hpp"

namespace simkit {

/// The engine's previous scheduler, kept as an A/B reference: build
/// with -DSIMKIT_HEAP_QUEUE to swap it back in.  `python3 e2ebench/ab.py`
/// runs the end-to-end A/B on the benchmark workloads, and bench/
/// baseline/README.md has the `engine_bench` procedure.  Same interface
/// and the same exact (t, seq) pop order as CalendarQueue.
template <class Payload>
class HeapQueue {
 public:
  struct Ev {
    Time t;
    std::uint64_t seq;
    Payload payload;
  };

  bool empty() const noexcept { return v_.empty(); }
  std::size_t size() const noexcept { return v_.size(); }

  void push(Time t, std::uint64_t seq, Payload payload) {
    v_.push_back(Ev{t, seq, payload});
    std::push_heap(v_.begin(), v_.end(), Cmp{});
  }
  const Ev& peek() const { return v_.front(); }
  Ev pop() {
    std::pop_heap(v_.begin(), v_.end(), Cmp{});
    Ev ev = v_.back();
    v_.pop_back();
    return ev;
  }

 private:
  struct Cmp {
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::vector<Ev> v_;
};

template <class Payload>
class CalendarQueue {
 public:
  struct Ev {
    Time t;
    std::uint64_t seq;
    Payload payload;
  };

  CalendarQueue() { init(kMinBuckets, 1e-5); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  double bucket_width() const noexcept { return width_; }
  std::size_t overflow_size() const noexcept { return overflow_.size(); }
  std::uint64_t resizes() const noexcept { return resizes_; }

  void push(Time t, std::uint64_t seq, Payload payload) {
    assert(!(t < 0.0) && "calendar queue requires nonnegative times");
    ++size_;
    const Ev ev{t, seq, payload};
    // Front buffer: the kFront globally smallest events live in a hot
    // sorted array (descending; minimum at the back).  An arriving
    // event smaller than the buffered maximum joins the buffer and the
    // maximum spills to the calendar, so "buffer <= everything in the
    // calendar/overflow" holds inductively and pops are L1 reads whose
    // payload (for the engine: the coroutine frame pointer) is known
    // long before the frame is needed — that address lead is what lets
    // the CPU overlap the frame fetch with queue bookkeeping.
    if (front_n_ > 0 && ev_less(ev, front_[0])) {
      if (front_n_ == kFront) {
        const Ev evicted = front_[0];
        int i = 1;
        while (i < kFront && ev_less(ev, front_[i])) {
          front_[i - 1] = front_[i];
          ++i;
        }
        front_[i - 1] = ev;
        push_backing(evicted);
      } else {
        int i = front_n_;
        while (i > 0 && ev_less(front_[i - 1], ev)) {
          front_[i] = front_[i - 1];
          --i;
        }
        front_[i] = ev;
        ++front_n_;
      }
      return;
    }
    push_backing(ev);
  }

  /// The minimum event; the reference is valid until the next push/pop.
  /// Pre: !empty().
  const Ev& peek() {
    if (front_n_ == 0) refill();
    return front_[front_n_ - 1];
  }

  /// Remove and return the minimum (t, seq) event.  Pre: !empty().
  Ev pop() {
    if (front_n_ == 0) refill();
    --size_;
    return front_[--front_n_];
  }

 private:
  void push_backing(const Ev& ev) {
    const std::uint64_t idx = idx_of(ev.t);
    if (idx >= limit_idx_) {
      overflow_push(ev);
      return;
    }
    insert_calendar(ev, idx);
    // Structural rebuilds share one event-count cooldown so a workload
    // oscillating across a size threshold (trigger fan-out: 1 <-> 129
    // live events every round) cannot thrash grow/shrink rebuilds.
    if (overload_cooldown_ > 0) {
      --overload_cooldown_;
      return;
    }
    if (cal_size_ > 2 * buckets_.size()) {
      // Target a ~1.5 load factor in one rebuild even if the cooldown
      // deferred several doublings' worth of growth.
      rebuild(std::bit_ceil(cal_size_ / 2 + 1));
      return;
    }
    // A single bucket hoarding a visible fraction of the live events
    // means the width no longer matches the event distribution (size
    // thresholds alone never catch this: a steady-state queue keeps a
    // constant population under a stale geometry).  Re-estimate unless
    // the pile is all ties, which no geometry can split.
    const Bucket& b = buckets_[idx & mask_];
    const std::size_t live = b.v.size() - b.head;
    if (live > 64 && live * 32 > cal_size_ &&
        b.v[b.head].t != b.v.back().t) {
      rebuild(buckets_.size());
    }
  }

  /// Refill the (empty) front buffer with the kFront smallest backing
  /// events.  Batching the refill amortizes the bucket walks over
  /// kFront pops, and the structural maintenance (shrink check, horizon
  /// slide) runs once per batch instead of once per event.
  /// Pre: size_ > front_n_ == 0.
  void refill() {
    assert(front_n_ == 0 && size_ > 0);
    Ev tmp[kFront];
    int m = 0;
    while (m < kFront && (cal_size_ > 0 || !overflow_.empty())) {
      locate();
      if (overload_cooldown_ > 0) --overload_cooldown_;
      if (loc_overflow_) {
        std::pop_heap(overflow_.begin(), overflow_.end(), HeapCmp{});
        tmp[m++] = overflow_.back();
        overflow_.pop_back();
        continue;
      }
      // The sorted prefix of this bucket with idx == cur_idx_ is
      // globally minimal (idx_of is monotone in t, so every other live
      // event has a larger index and hence a later time): drain the
      // whole run in one pass instead of re-locating per event.  Tied
      // grant times — a FIFO resource releasing several waiters at one
      // instant — make these runs long.
      Bucket& b = *loc_bucket_;
      do {
        tmp[m++] = b.v[b.head++];
        --cal_size_;
      } while (m < kFront && b.head < b.v.size() &&
               idx_of(b.v[b.head].t) == cur_idx_);
      if (b.head == b.v.size()) {
        b.v.clear();
        b.head = b.sorted = 0;
      } else if (b.head >= 64 && b.head * 2 >= b.v.size()) {
        // Compact a long-consumed prefix so a bucket holding far-future
        // stragglers does not grow without bound.
        b.v.erase(b.v.begin(),
                  b.v.begin() + static_cast<std::ptrdiff_t>(b.head));
        b.sorted -= b.head;
        b.head = 0;
      }
    }
    for (int i = 0; i < m; ++i) front_[m - 1 - i] = tmp[i];
    front_n_ = m;
    if (overload_cooldown_ == 0 && peak_cal_ * 8 < buckets_.size() &&
        buckets_.size() > kMinBuckets) {
      // Shrink on the PEAK population since the last rebuild, not the
      // instantaneous one: a fan-out workload empties the calendar
      // every round, and shrinking at the trough just forces a grow at
      // the next burst.
      rebuild(std::max(kMinBuckets, std::bit_ceil(cal_size_ + 1)));
    }
    slide_horizon();
  }

  struct Bucket {
    std::vector<Ev> v;
    std::size_t head = 0;    // elements before head have been popped
    std::size_t sorted = 0;  // end of the sorted run; tidy() before reading
  };
  struct HeapCmp {  // std:: heap is a max-heap; invert for min-(t, seq)
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static constexpr std::size_t kMinBuckets = 64;
  // The horizon spans this many rotations: events up to kYears windows
  // ahead still land in the calendar (sharing buckets with earlier
  // "years"; the scan's idx equality test keeps them invisible until
  // their rotation comes up).  A lookahead modestly larger than one
  // rotation — a fixed delay against a width tuned to a finer stagger —
  // would otherwise force every push through the overflow heap.
  static constexpr std::uint64_t kYears = 4;
  // Indices at or past this are "unmappable" (enormous or non-finite
  // times); such events live in the overflow heap forever and are
  // served directly from it.
  static constexpr std::uint64_t kMaxIdx = std::uint64_t{1} << 62;

  static bool ev_less(const Ev& a, const Ev& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::uint64_t idx_of(Time t) const noexcept {
    const double x = t * inv_width_;
    return x < static_cast<double>(kMaxIdx) ? static_cast<std::uint64_t>(x)
                                            : kMaxIdx;
  }

  void init(std::size_t nbuckets, double width) {
    buckets_.assign(nbuckets, Bucket{});
    mask_ = nbuckets - 1;
    width_ = width;
    inv_width_ = 1.0 / width;
    cur_idx_ = 0;
    limit_idx_ = saturating_horizon(0);
  }

  std::uint64_t saturating_horizon(std::uint64_t anchor) const noexcept {
    const std::uint64_t span = kYears * buckets_.size();
    std::uint64_t lim = anchor + span < anchor ? kMaxIdx : anchor + span;
    if (lim > kMaxIdx) lim = kMaxIdx;
    // Never let the horizon pass an existing overflow event: the
    // overflow heap is only consulted when the calendar drains, so
    // every calendar event must order before every overflow event.
    if (!overflow_.empty()) {
      const std::uint64_t top = idx_of(overflow_.front().t);
      if (top < lim) lim = top;
    }
    return lim;
  }

  void overflow_push(const Ev& ev) {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), HeapCmp{});
    // The new overflow minimum may undercut the current horizon; pull
    // the horizon back so no future calendar push lands beyond it.
    const std::uint64_t top = idx_of(overflow_.front().t);
    if (top < limit_idx_) limit_idx_ = top;
  }

  void insert_calendar(const Ev& ev, std::uint64_t idx) {
    ++cal_size_;
    if (idx < cur_idx_) cur_idx_ = idx;  // re-anchor the scan position
    Bucket& b = buckets_[idx & mask_];
    // Push is append-only: an event ordering after the sorted run
    // extends it, anything else joins the unsorted tail that the
    // pop-side scan merges in on its next visit (tidy()).  Keeping the
    // insert position search and memmove off the push path matters —
    // the bucket is usually cache-cold, and a sorted insert touches all
    // of it.
    if (b.sorted == b.v.size() &&
        (b.sorted == b.head || ev_less(b.v.back(), ev))) {
      ++b.sorted;
    }
    b.v.push_back(ev);
    if (cal_size_ > peak_cal_) peak_cal_ = cal_size_;
  }

  /// Fold a bucket's unsorted tail into its sorted run: sort the tail,
  /// then merge it backward through `scratch_`.  The cost follows the
  /// tail and the run elements that order after it, not the bucket
  /// size, which matters where the crowd trigger cannot help: a pile of
  /// two instants (a job stream's `now` and `now + 55 us`) shares one
  /// bucket at any width the rest of the population sets, and its
  /// same-instant wakeups keep appending behind the later half.  A tail
  /// starts only with an event that orders before the run's last one,
  /// so a nonempty tail always needs the merge.
  void tidy(Bucket& b) {
    if (b.sorted == b.v.size()) return;
    const auto first = b.v.begin() + static_cast<std::ptrdiff_t>(b.head);
    const auto mid = b.v.begin() + static_cast<std::ptrdiff_t>(b.sorted);
    const auto last = b.v.end();
    assert(first != mid);
    std::sort(mid, last, ev_less);
    scratch_.assign(mid, last);
    auto run = mid;
    auto out = last;
    auto tail = scratch_.end();
    while (tail != scratch_.begin()) {
      if (run != first && ev_less(tail[-1], run[-1])) {
        *--out = *--run;
      } else {
        *--out = *--tail;
      }
    }
    b.sorted = b.v.size();
  }

  /// Advance the horizon as the scan position moves forward, migrating
  /// overflow events that now fall inside the rotation window.  A
  /// long-lived steady-state queue therefore never drains its calendar
  /// into one O(n log n) migration storm — the overflow tail trickles
  /// in as pops advance, one rotation at a time.  The horizon only
  /// ever advances here, and every migrated event has idx < the new
  /// horizon, so the calendar/overflow elementwise order is preserved
  /// (a migrated event at idx == limit could otherwise order after a
  /// later same-bucket push that was routed to the overflow).
  void slide_horizon() {
    const std::uint64_t span = kYears * buckets_.size();
    std::uint64_t end = cur_idx_ + span < cur_idx_ ? kMaxIdx : cur_idx_ + span;
    if (end > kMaxIdx) end = kMaxIdx;
    if (end <= limit_idx_) return;  // window has not advanced
    while (!overflow_.empty() && idx_of(overflow_.front().t) < end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), HeapCmp{});
      const Ev ev = overflow_.back();
      overflow_.pop_back();
      insert_calendar(ev, idx_of(ev.t));
      ++churn_;
    }
    limit_idx_ = end;
    // A migration volume dwarfing the live population means the
    // geometry is routing steady-state pushes through the overflow
    // heap (lookahead past the horizon); re-estimate from the current
    // content, which by now exhibits the true spread.
    if (churn_ > 4 * (cal_size_ + 64) && overload_cooldown_ == 0) {
      rebuild(buckets_.size());
    }
  }

  /// Find the minimum event and cache its location.  Pre: size_ > 0.
  void locate() {
    while (cal_size_ == 0) {
      // Calendar drained: serve or migrate the overflow.
      assert(!overflow_.empty());
      const std::uint64_t top = idx_of(overflow_.front().t);
      if (top >= kMaxIdx) {
        loc_overflow_ = true;
        return;
      }
      // Re-anchor the calendar at the overflow's first year and pull
      // every event inside the new horizon into buckets.
      cur_idx_ = top;
      limit_idx_ = kMaxIdx;  // horizon recomputed below, post-migration
      const std::uint64_t nb = buckets_.size();
      const std::uint64_t lim = top + nb < top ? kMaxIdx : top + nb;
      while (!overflow_.empty() && idx_of(overflow_.front().t) < lim) {
        std::pop_heap(overflow_.begin(), overflow_.end(), HeapCmp{});
        Ev ev = overflow_.back();
        overflow_.pop_back();
        insert_calendar(ev, idx_of(ev.t));
      }
      limit_idx_ = saturating_horizon(top);
    }
    loc_overflow_ = false;
    // Scan at most one full rotation from the current position.
    for (std::size_t i = 0; i <= mask_; ++i) {
      Bucket& b = buckets_[cur_idx_ & mask_];
      if (b.head < b.v.size()) tidy(b);
      if (b.head < b.v.size() && idx_of(b.v[b.head].t) == cur_idx_) {
        loc_bucket_ = &b;
        sparse_rotations_ = 0;  // widen only on CONSECUTIVE overshoots
        return;
      }
      ++cur_idx_;
    }
    // Nothing due within one rotation: jump straight to the earliest
    // bucket head.  (Monotonicity of idx_of makes the minimum-index
    // head the bucket holding the global minimum event.)
    if (++sparse_rotations_ >= 4) {
      // Repeatedly overshooting a rotation means the window is far
      // narrower than the event spread; widen it and start over.
      sparse_rotations_ = 0;
      rebuild(buckets_.size(), width_ * 8.0);
      locate();
      return;
    }
    std::uint64_t best = kMaxIdx;
    for (Bucket& b : buckets_) {
      if (b.head < b.v.size()) {
        tidy(b);
        best = std::min(best, idx_of(b.v[b.head].t));
      }
    }
    assert(best < kMaxIdx);
    cur_idx_ = best;
    loc_bucket_ = &buckets_[cur_idx_ & mask_];
  }

  /// Re-bucket every calendar event into `nbuckets` bins, re-estimating
  /// the bucket width from the live population (or taking `force_width`).
  /// The overflow heap is never re-split: the new horizon is capped at
  /// the overflow minimum, so the calendar/overflow order invariant is
  /// preserved without touching a potentially large far-future tail.
  void rebuild(std::size_t nbuckets, double force_width = 0.0) {
    ++resizes_;
    overload_cooldown_ = 2 * cal_size_ + 256;
    churn_ = 0;
    peak_cal_ = cal_size_;
    std::vector<Ev> live;
    live.reserve(cal_size_);
    for (Bucket& b : buckets_) {
      live.insert(live.end(),
                  b.v.begin() + static_cast<std::ptrdiff_t>(b.head), b.v.end());
      b.v.clear();
      b.head = b.sorted = 0;
    }
    const double width =
        force_width > 0.0 ? force_width : estimate_width(live);
    init(nbuckets, width);
    cal_size_ = 0;
    if (live.empty()) return;
    Time min_t = live.front().t;
    for (const Ev& ev : live) min_t = std::min(min_t, ev.t);
    cur_idx_ = idx_of(min_t);
    limit_idx_ = saturating_horizon(cur_idx_);
    for (const Ev& ev : live) {
      const std::uint64_t idx = idx_of(ev.t);
      if (idx >= limit_idx_) {
        overflow_push(ev);
      } else {
        insert_calendar(ev, idx);
      }
    }
  }

  /// Brown-style width estimate from a sample of the live population.
  /// Uses the MEDIAN nonzero gap between sorted sample times, which is
  /// robust where a min/max span is not: a small far-future tail (fault
  /// arming) contributes a few huge gaps that a span estimate would let
  /// inflate the width by orders of magnitude, and a same-instant pile
  /// contributes many zero gaps that would deflate it.  `stride` live
  /// events sit between consecutive samples, so per-event spacing is
  /// gap/stride and the classic ~3-events-per-bucket operating point
  /// gives w = 3 * gap / stride.
  double estimate_width(const std::vector<Ev>& live) const {
    if (live.size() < 2) return width_;
    double s[64];
    const std::size_t stride = std::max<std::size_t>(1, live.size() / 64);
    std::size_t n = 0;
    for (std::size_t i = 0; i < live.size() && n < 64; i += stride) {
      s[n++] = live[i].t;
    }
    std::sort(s, s + n);
    double gaps[63];
    std::size_t ng = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (s[i] > s[i - 1]) gaps[ng++] = s[i] - s[i - 1];
    }
    if (ng == 0) return width_;  // all ties: geometry can't help
    std::sort(gaps, gaps + ng);
    const double w = 3.0 * gaps[ng / 2] / static_cast<double>(stride);
    return w > 0.0 && w < kTimeInfinity ? w : width_;
  }

  std::vector<Bucket> buckets_;
  std::vector<Ev> overflow_;  // min-heap by (t, seq) via HeapCmp
  std::vector<Ev> scratch_;   // tidy()'s merge buffer for a bucket tail
  std::size_t mask_ = 0;
  double width_ = 1e-5;
  double inv_width_ = 1e5;
  std::uint64_t cur_idx_ = 0;    // absolute bucket index being scanned
  std::uint64_t limit_idx_ = 0;  // events at/past this index overflow
  std::size_t cal_size_ = 0;     // live events in buckets
  std::size_t peak_cal_ = 0;     // max cal_size_ since the last rebuild
  std::size_t size_ = 0;         // live events total (incl. overflow)
  std::uint64_t resizes_ = 0;
  std::size_t overload_cooldown_ = 0;
  std::uint64_t churn_ = 0;  // overflow->calendar migrations since rebuild
  int sparse_rotations_ = 0;
  Bucket* loc_bucket_ = nullptr;  // locate() result: minimum's bucket
  bool loc_overflow_ = false;     // locate() result: serve overflow top
  static constexpr int kFront = 16;
  Ev front_[kFront];  // the kFront smallest events, sorted descending
  int front_n_ = 0;   // live entries; minimum at front_[front_n_ - 1]
};

}  // namespace simkit
