// Tests for the iosrv cache-replacement policies: the BlockKeyHash
// collision regression, hand-computed ARC traces (including the
// write-aware deviations documented in cache_policy.hpp), the
// dirty-pinning / eviction-listener contracts shared with LRU, and a
// randomized differential check of both policies against a walk-based
// reference.
#include "iosrv/cache_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

namespace {

iosrv::BlockKey key(std::uint64_t f, std::uint64_t b) { return {f, b}; }

// The historical hash was `(file << 40) ^ block`: (f, 0) and
// (0, f << 40) collided outright for every f < 2^24, so a server
// touching many files at block 0 chained every entry into one bucket.
// The two-round splitmix replacement must keep that family distinct.
TEST(BlockKeyHash, HistoricalShiftXorFamilyStaysDistinct) {
  iosrv::BlockKeyHash h;
  std::unordered_set<std::size_t> seen;
  constexpr std::uint64_t kFiles = 4096;
  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    seen.insert(h(key(f, 0)));
    seen.insert(h(key(0, f << 40)));
  }
  EXPECT_EQ(seen.size(), 2 * kFiles);
}

TEST(BlockKeyHash, SequentialBlocksOfOneFileStayDistinct) {
  iosrv::BlockKeyHash h;
  std::unordered_set<std::size_t> seen;
  for (std::uint64_t b = 0; b < 4096; ++b) seen.insert(h(key(9, b)));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(MakePolicy, FactoryReturnsRequestedPolicy) {
  EXPECT_EQ(iosrv::make_policy(iosrv::PolicyKind::kLru, 4)->name(), "lru");
  EXPECT_EQ(iosrv::make_policy(iosrv::PolicyKind::kArc, 4)->name(), "arc");
}

// ------------------------------------------------------------------ ARC --

// Hand-computed trace at capacity 2 covering the textbook moves: T1
// insert, read-hit promotion to T2, demotion to B1, ghost adaptation of
// p (twice: once from lookup, once from the re-insert), and B2 demotion
// when the ghost re-enters T2.
TEST(ArcPolicy, HandTraceAtCapacityTwo) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), false));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_EQ(arc.t1_size(), 2u);

  // Clean inserts carry a read reference, so the first hit proves reuse.
  EXPECT_TRUE(arc.lookup(key(1, 1)));
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);

  // Capacity forces T1's LRU (block 2) into the B1 ghost list.
  EXPECT_TRUE(arc.insert(key(1, 3), false));
  EXPECT_FALSE(arc.contains(key(1, 2)));
  EXPECT_EQ(arc.b1_size(), 1u);
  EXPECT_EQ(arc.evictions(), 1u);

  // Ghost lookup: a miss, but it steers p toward T1 (B1: +1).
  EXPECT_FALSE(arc.lookup(key(1, 2)));
  EXPECT_DOUBLE_EQ(arc.p(), 1.0);

  // Re-materializing the ghost adapts again (+1, saturating at c) and
  // lands the block in T2, demoting T2's LRU (block 1) to B2.
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_DOUBLE_EQ(arc.p(), 2.0);
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 0u);
  EXPECT_EQ(arc.b2_size(), 1u);
  EXPECT_TRUE(arc.contains(key(1, 2)));
  EXPECT_TRUE(arc.contains(key(1, 3)));
  EXPECT_FALSE(arc.contains(key(1, 1)));
  EXPECT_EQ(arc.hits(), 1u);
  EXPECT_EQ(arc.misses(), 1u);
}

// Write-aware rule 1: dirty inserts never earn frequency.  A dirty
// refresh stays in its list, the FIRST read hit only refreshes (the
// stream draining its own write-behind data), and T2 membership takes a
// second read reference.
TEST(ArcPolicy, DirtyInsertTakesTwoReadHitsToReachT2) {
  iosrv::ArcPolicy arc(4);
  EXPECT_TRUE(arc.insert(key(7, 1), true));
  EXPECT_TRUE(arc.insert(key(7, 1), true));  // absorbed rewrite
  EXPECT_EQ(arc.t2_size(), 0u);

  EXPECT_TRUE(arc.lookup(key(7, 1)));  // first read: refresh only
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 0u);

  EXPECT_TRUE(arc.lookup(key(7, 1)));  // second read: proven reuse
  EXPECT_EQ(arc.t1_size(), 0u);
  EXPECT_EQ(arc.t2_size(), 1u);
}

TEST(ArcPolicy, CleanInsertPromotesOnFirstReadHit) {
  iosrv::ArcPolicy arc(4);
  EXPECT_TRUE(arc.insert(key(7, 1), false));
  EXPECT_TRUE(arc.lookup(key(7, 1)));
  EXPECT_EQ(arc.t2_size(), 1u);
}

// Write-aware rule 2: a ghost with no read history (the block was
// written, never demand-read, then evicted) neither adapts p nor earns
// T2 re-entry — it is forgotten and re-inserted brand-new into T1.
TEST(ArcPolicy, NeverReadGhostNeitherAdaptsNorEntersT2) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), true));  // write-originated
  arc.mark_clean(key(1, 1));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_TRUE(arc.lookup(key(1, 2)));         // block 2 -> T2
  EXPECT_TRUE(arc.insert(key(1, 3), false));  // evicts block 1 -> B1
  EXPECT_EQ(arc.b1_size(), 1u);

  EXPECT_FALSE(arc.lookup(key(1, 1)));  // never-read ghost: no signal
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);

  EXPECT_TRUE(arc.insert(key(1, 1), false));  // re-enters T1, not T2
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 1u);
  EXPECT_TRUE(arc.contains(key(1, 1)));
}

// Write-aware rule 3: a dirty rewrite of a read-referenced ghost also
// forgets the history — a rewrite invalidates whatever reuse the old
// data had shown.
TEST(ArcPolicy, DirtyRewriteOfGhostForgetsReadHistory) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), false));
  EXPECT_TRUE(arc.insert(key(1, 2), false));
  EXPECT_TRUE(arc.lookup(key(1, 1)));         // block 1 -> T2
  EXPECT_TRUE(arc.insert(key(1, 3), false));  // block 2 -> B1 (read ghost)

  EXPECT_TRUE(arc.insert(key(1, 2), true));  // rewrite of the ghost
  EXPECT_DOUBLE_EQ(arc.p(), 0.0);
  EXPECT_TRUE(arc.is_dirty(key(1, 2)));
  EXPECT_EQ(arc.t1_size(), 1u);
  EXPECT_EQ(arc.t2_size(), 1u);
  EXPECT_EQ(arc.b1_size(), 1u);
}

// The dirty-pinning contract shared with LRU: insert fails rather than
// evicting a pinned block, and recovers once something is clean.
TEST(ArcPolicy, InsertFailsWhenEverythingResidentIsPinned) {
  iosrv::ArcPolicy arc(2);
  EXPECT_TRUE(arc.insert(key(1, 1), true));
  EXPECT_TRUE(arc.insert(key(1, 2), true));
  EXPECT_FALSE(arc.insert(key(1, 3), false));
  EXPECT_EQ(arc.size(), 2u);

  arc.mark_clean(key(1, 1));
  EXPECT_TRUE(arc.insert(key(1, 3), false));
  EXPECT_TRUE(arc.contains(key(1, 3)));
  EXPECT_FALSE(arc.contains(key(1, 1)));
}

TEST(ArcPolicy, EvictListenerSeesDemotionsToGhost) {
  iosrv::ArcPolicy arc(2);
  std::vector<iosrv::BlockKey> evicted;
  arc.set_evict_listener(
      [&](const iosrv::BlockKey& k) { evicted.push_back(k); });
  EXPECT_TRUE(arc.insert(key(4, 1), false));
  EXPECT_TRUE(arc.insert(key(4, 2), false));
  EXPECT_TRUE(arc.insert(key(4, 3), false));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key(4, 1));
}

// ------------------------------------------------------------------ LRU --

TEST(LruPolicy, EvictListenerSeesTheLruVictim) {
  iosrv::LruPolicy lru(2);
  std::vector<iosrv::BlockKey> evicted;
  lru.set_evict_listener(
      [&](const iosrv::BlockKey& k) { evicted.push_back(k); });
  EXPECT_TRUE(lru.insert(key(4, 1), false));
  EXPECT_TRUE(lru.insert(key(4, 2), false));
  EXPECT_TRUE(lru.insert(key(4, 3), false));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], key(4, 1));
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(LruPolicy, CountersTrackHitsAndMisses) {
  iosrv::LruPolicy lru(2);
  EXPECT_FALSE(lru.lookup(key(1, 1)));
  EXPECT_TRUE(lru.insert(key(1, 1), false));
  EXPECT_TRUE(lru.lookup(key(1, 1)));
  EXPECT_EQ(lru.hits(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
}

// ------------------------------------------------------ differential --

// Test-only reference of the policies as first written: one MRU-first
// recency list per LRU/ARC list, and a victim is the first unpinned
// member met walking from the LRU end.  It mirrors that code move for
// move (ghost hits, fall-over between T1 and T2, write-aware rules) and
// stays deliberately naive: linear searches over small vectors.
struct RefBlock {
  iosrv::BlockKey key;
  bool dirty = false;
  bool referenced = false;
};
using RefList = std::vector<RefBlock>;  // MRU first

int find_in(const RefList& l, const iosrv::BlockKey& k) {
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (l[i].key == k) return static_cast<int>(i);
  }
  return -1;
}

RefBlock take(RefList& l, int i) {
  const RefBlock b = l[static_cast<std::size_t>(i)];
  l.erase(l.begin() + i);
  return b;
}

void push_mru(RefList& l, const RefBlock& b) { l.insert(l.begin(), b); }

int lru_unpinned(const RefList& l) {
  for (int i = static_cast<int>(l.size()) - 1; i >= 0; --i) {
    if (!l[static_cast<std::size_t>(i)].dirty) return i;
  }
  return -1;
}

class RefLru {
 public:
  explicit RefLru(std::size_t c) : c_(c) {}

  std::size_t size() const { return l_.size(); }
  bool contains(const iosrv::BlockKey& k) const { return find_in(l_, k) >= 0; }
  bool is_dirty(const iosrv::BlockKey& k) const {
    const int i = find_in(l_, k);
    return i >= 0 && l_[static_cast<std::size_t>(i)].dirty;
  }
  bool lookup(const iosrv::BlockKey& k) {
    const int i = find_in(l_, k);
    if (i < 0) return false;
    push_mru(l_, take(l_, i));
    return true;
  }
  bool insert(const iosrv::BlockKey& k, bool dirty) {
    const int i = find_in(l_, k);
    if (i >= 0) {
      RefBlock b = take(l_, i);
      b.dirty = b.dirty || dirty;
      push_mru(l_, b);
      return true;
    }
    while (l_.size() >= c_) {
      const int v = lru_unpinned(l_);
      if (v < 0) return false;
      if (v + 1 < static_cast<int>(l_.size())) ++skips;
      evicted.push_back(take(l_, v).key);
    }
    push_mru(l_, RefBlock{k, dirty});
    return true;
  }
  void mark_clean(const iosrv::BlockKey& k) {
    const int i = find_in(l_, k);
    if (i >= 0) l_[static_cast<std::size_t>(i)].dirty = false;
  }
  void invalidate_all() { l_.clear(); }

  std::vector<iosrv::BlockKey> evicted;
  std::size_t skips = 0;  // evictions that walked past a pinned tail

 private:
  std::size_t c_;
  RefList l_;
};

class RefArc {
 public:
  explicit RefArc(std::size_t c) : c_(c) {}

  double p() const { return p_; }
  std::size_t t1_size() const { return l_[kT1].size(); }
  std::size_t t2_size() const { return l_[kT2].size(); }
  std::size_t b1_size() const { return l_[kB1].size(); }
  std::size_t b2_size() const { return l_[kB2].size(); }
  std::size_t size() const { return t1_size() + t2_size(); }

  bool contains(const iosrv::BlockKey& k) const { return find(k).first < kB1; }
  bool is_dirty(const iosrv::BlockKey& k) const {
    const auto [l, i] = find(k);
    return l < kB1 && l_[l][static_cast<std::size_t>(i)].dirty;
  }
  bool lookup(const iosrv::BlockKey& k) {
    const auto [l, i] = find(k);
    if (l == kNone) return false;
    if (l >= kB1) {
      if (l_[l][static_cast<std::size_t>(i)].referenced) adapt(l == kB2);
      return false;
    }
    RefBlock b = take(l_[l], i);
    const int to = b.referenced ? kT2 : l;
    b.referenced = true;
    push_mru(l_[to], b);
    return true;
  }
  bool insert(const iosrv::BlockKey& k, bool dirty) {
    const auto [l, i] = find(k);
    if (l < kB1) {
      RefBlock b = take(l_[l], i);
      b.dirty = b.dirty || dirty;
      if (!dirty) b.referenced = true;
      push_mru(l_[dirty ? l : kT2], b);
      return true;
    }
    if (l != kNone) {
      if (dirty || !l_[l][static_cast<std::size_t>(i)].referenced) {
        take(l_[l], i);  // forget the ghost, insert as brand-new
      } else {
        adapt(l == kB2);
        if (size() >= c_ && !replace(l == kB2)) return false;
        RefBlock b = take(l_[l], find_in(l_[l], k));
        b.dirty = false;
        push_mru(l_[kT2], b);
        return true;
      }
    }
    if (t1_size() + b1_size() >= c_) {
      if (t1_size() < c_) {
        if (!l_[kB1].empty()) l_[kB1].pop_back();
        if (size() >= c_ && !replace(false)) return false;
      } else if (!evict_from(kT1, kNone)) {
        return false;
      }
    } else if (size() + b1_size() + b2_size() >= c_) {
      if (size() + b1_size() + b2_size() >= 2 * c_ && !l_[kB2].empty()) {
        l_[kB2].pop_back();
      }
      if (size() >= c_ && !replace(false)) return false;
    }
    push_mru(l_[kT1], RefBlock{k, dirty, !dirty});
    return true;
  }
  void mark_clean(const iosrv::BlockKey& k) {
    const auto [l, i] = find(k);
    if (l != kNone) l_[l][static_cast<std::size_t>(i)].dirty = false;
  }
  void invalidate_all() {
    for (RefList& l : l_) l.clear();
    p_ = 0.0;
  }

  std::vector<iosrv::BlockKey> evicted;
  std::size_t skips = 0;  // evictions that walked past a pinned tail

 private:
  enum { kT1, kT2, kB1, kB2, kNone };

  std::pair<int, int> find(const iosrv::BlockKey& k) const {
    for (int l = kT1; l < kNone; ++l) {
      const int i = find_in(l_[l], k);
      if (i >= 0) return {l, i};
    }
    return {kNone, -1};
  }
  void adapt(bool in_b2) {
    const double b1n = static_cast<double>(b1_size());
    const double b2n = static_cast<double>(b2_size());
    if (in_b2) {
      p_ = std::max(0.0, p_ - std::max(b2n > 0.0 ? b1n / b2n : 1.0, 1.0));
    } else {
      p_ = std::min(static_cast<double>(c_),
                    p_ + std::max(b1n > 0.0 ? b2n / b1n : 1.0, 1.0));
    }
  }
  bool evict_from(int from, int ghost) {
    const int v = lru_unpinned(l_[from]);
    if (v < 0) return false;
    if (v + 1 < static_cast<int>(l_[from].size())) ++skips;
    const RefBlock b = take(l_[from], v);
    if (ghost != kNone) push_mru(l_[ghost], b);
    evicted.push_back(b.key);
    return true;
  }
  bool replace(bool in_b2) {
    const double t1n = static_cast<double>(t1_size());
    const bool from_t1 = t1_size() > 0 && (t1n > p_ || (in_b2 && t1n == p_));
    const int first = from_t1 ? kT1 : kT2;
    const int second = from_t1 ? kT2 : kT1;
    return evict_from(first, first + 2) || evict_from(second, second + 2);
  }

  std::size_t c_;
  RefList l_[4];
  double p_ = 0.0;
};

struct Coverage {
  std::size_t evictions = 0;
  std::size_t pinned_skips = 0;
  std::size_t failed_inserts = 0;
  std::size_t unpins = 0;  // mark_clean of a resident dirty block
};

// Drive `real` and `ref` with one seeded stream of every CachePolicy
// operation over a key space a few times the capacity (so hits, ghost
// hits and fresh keys all occur).  Dirty inserts outnumber clean ones
// and mark_clean, so most residents are pinned.  After every operation
// the return values, the evict-listener sequences and `same_state`
// must agree.
template <class Real, class Ref, class SameState>
void drive(Real& real, Ref& ref, std::uint64_t seed, std::size_t cap,
           Coverage& cov, SameState same_state) {
  std::vector<iosrv::BlockKey> real_evicted;
  real.set_evict_listener(
      [&](const iosrv::BlockKey& k) { real_evicted.push_back(k); });
  std::mt19937_64 rng(seed);
  const std::uint64_t blocks = 2 * cap + 2;
  for (int op = 0; op < 3000; ++op) {
    const iosrv::BlockKey k{rng() % 2, rng() % blocks};
    const std::uint64_t r = rng() % 100;
    SCOPED_TRACE(::testing::Message() << "cap " << cap << " seed " << seed
                                      << " op " << op << " kind " << r);
    if (r < 25) {
      ASSERT_EQ(real.lookup(k), ref.lookup(k));
    } else if (r < 70) {
      const bool dirty = r >= 40;
      const bool ok = real.insert(k, dirty);
      ASSERT_EQ(ok, ref.insert(k, dirty));
      if (!ok) ++cov.failed_inserts;
    } else if (r < 85) {
      if (real.is_dirty(k)) ++cov.unpins;
      real.mark_clean(k);
      ref.mark_clean(k);
    } else if (r < 92) {
      ASSERT_EQ(real.contains(k), ref.contains(k));
    } else if (r < 99) {
      ASSERT_EQ(real.is_dirty(k), ref.is_dirty(k));
    } else {
      real.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_EQ(real_evicted, ref.evicted);
    ASSERT_EQ(real.evictions(), ref.evicted.size());
    ASSERT_EQ(real.size(), ref.size());
    same_state(real, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
  cov.evictions += ref.evicted.size();
  cov.pinned_skips += ref.skips;
}

void expect_covered(const Coverage& cov) {
  EXPECT_GT(cov.evictions, 1000u);
  EXPECT_GT(cov.pinned_skips, 1000u);
  EXPECT_GT(cov.failed_inserts, 1000u);
  EXPECT_GT(cov.unpins, 1000u);
}

TEST(LruPolicy, MatchesWalkReferenceUnderRandomPinning) {
  Coverage cov;
  for (std::size_t cap = 1; cap <= 16; ++cap) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      iosrv::LruPolicy real(cap);
      RefLru ref(cap);
      ASSERT_NO_FATAL_FAILURE(
          drive(real, ref, seed, cap, cov, [](const auto&, const auto&) {}));
    }
  }
  expect_covered(cov);
}

TEST(ArcPolicy, MatchesWalkReferenceUnderRandomPinning) {
  Coverage cov;
  for (std::size_t cap = 1; cap <= 16; ++cap) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      iosrv::ArcPolicy real(cap);
      RefArc ref(cap);
      ASSERT_NO_FATAL_FAILURE(drive(
          real, ref, seed, cap, cov,
          [](const iosrv::ArcPolicy& a, const RefArc& b) {
            ASSERT_EQ(a.t1_size(), b.t1_size());
            ASSERT_EQ(a.t2_size(), b.t2_size());
            ASSERT_EQ(a.b1_size(), b.b1_size());
            ASSERT_EQ(a.b2_size(), b.b2_size());
            ASSERT_EQ(a.p(), b.p());
          }));
    }
  }
  expect_covered(cov);
}

}  // namespace
