// Tests for the I/O node's LRU block cache (iosrv::LruPolicy) with dirty
// pinning.
#include "iosrv/cache_policy.hpp"

#include <gtest/gtest.h>

#include "pfs/types.hpp"

namespace pfs {
namespace {

iosrv::BlockKey k(FileId f, std::uint64_t b) { return {f, b}; }

TEST(BlockCache, MissThenHit) {
  iosrv::LruPolicy c(4);
  EXPECT_FALSE(c.lookup(k(0, 0)));
  c.insert(k(0, 0), false);
  EXPECT_TRUE(c.lookup(k(0, 0)));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(BlockCache, LruEviction) {
  iosrv::LruPolicy c(2);
  c.insert(k(0, 0), false);
  c.insert(k(0, 1), false);
  EXPECT_TRUE(c.lookup(k(0, 0)));  // 0 becomes MRU
  c.insert(k(0, 2), false);        // evicts 1 (LRU)
  EXPECT_TRUE(c.contains(k(0, 0)));
  EXPECT_FALSE(c.contains(k(0, 1)));
  EXPECT_TRUE(c.contains(k(0, 2)));
}

TEST(BlockCache, DirtyBlocksAreNotEvicted) {
  iosrv::LruPolicy c(2);
  c.insert(k(0, 0), true);   // dirty, pinned
  c.insert(k(0, 1), false);
  c.insert(k(0, 2), false);  // must evict 1, not the dirty 0
  EXPECT_TRUE(c.contains(k(0, 0)));
  EXPECT_FALSE(c.contains(k(0, 1)));
  EXPECT_TRUE(c.contains(k(0, 2)));
}

TEST(BlockCache, InsertFailsWhenAllPinned) {
  iosrv::LruPolicy c(2);
  c.insert(k(0, 0), true);
  c.insert(k(0, 1), true);
  EXPECT_FALSE(c.insert(k(0, 2), false));
  c.mark_clean(k(0, 0));
  EXPECT_TRUE(c.insert(k(0, 2), false));
  EXPECT_FALSE(c.contains(k(0, 0)));
}

TEST(BlockCache, ReinsertRefreshesAndMergesDirty) {
  iosrv::LruPolicy c(2);
  c.insert(k(0, 0), false);
  EXPECT_FALSE(c.is_dirty(k(0, 0)));
  c.insert(k(0, 0), true);
  EXPECT_TRUE(c.is_dirty(k(0, 0)));
  c.insert(k(0, 0), false);  // dirty persists until mark_clean
  EXPECT_TRUE(c.is_dirty(k(0, 0)));
  c.mark_clean(k(0, 0));
  EXPECT_FALSE(c.is_dirty(k(0, 0)));
  EXPECT_EQ(c.size(), 1u);
}

TEST(BlockCache, DistinguishesFiles) {
  iosrv::LruPolicy c(4);
  c.insert(k(1, 7), false);
  EXPECT_FALSE(c.contains(k(2, 7)));
  EXPECT_TRUE(c.contains(k(1, 7)));
}

TEST(BlockCache, CapacityRespectedUnderChurn) {
  iosrv::LruPolicy c(8);
  for (std::uint64_t i = 0; i < 1000; ++i) c.insert(k(0, i), false);
  EXPECT_LE(c.size(), 8u);
  EXPECT_TRUE(c.contains(k(0, 999)));
}

}  // namespace
}  // namespace pfs
