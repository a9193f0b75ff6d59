// iosrv/cache_policy.hpp — pluggable block-cache replacement policies
// for the active I/O servers.
//
// A CachePolicy is a timing-only presence map over (file, block) keys:
// content correctness lives at the client layer (pfs::SparseStore), the
// policy only decides which requests cost a disk access.  Two semantic
// constraints carry over from the historical pfs::BlockCache:
//
//   * dirty blocks (write-behind data not yet on disk) are PINNED —
//     they can never be evicted until mark_clean();
//   * insert() fails (returns false) when the cache is saturated with
//     pinned blocks, instead of evicting one.
//
// LruPolicy reproduces the historical BlockCache move for move, so an
// IoNode configured with it behaves byte-identically to pre-iosrv
// builds.  ArcPolicy implements ARC (Megiddo & Modha), which splits the
// cache between a recency list and a frequency list steered by ghost
// hits — the scan-resistant policy a shared server wants when one
// tenant's streaming dump would otherwise flush another tenant's
// re-read working set.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <string_view>

#include "iosrv/config.hpp"
#include "iosrv/flat_map.hpp"

namespace iosrv {

struct BlockKey {
  std::uint64_t file = 0;
  std::uint64_t block = 0;
  bool operator==(const BlockKey&) const = default;
};

/// Two-round splitmix64.  The historical hash was `(file << 40) ^
/// block`, which collides whole families outright — (f, 0) and
/// (0, f << 40) map to the same value — and degrades the maps to bucket
/// chains for block numbers >= 2^40.  A finalizer alone cannot help
/// (identical pre-mix values stay identical), so `file` is mixed to a
/// full 64-bit value BEFORE `block` is folded in, then mixed again.
struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const noexcept {
    auto mix = [](std::uint64_t z) noexcept {
      z += 0x9E3779B97f4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      return z ^ (z >> 31);
    };
    return static_cast<std::size_t>(mix(mix(k.file) ^ k.block));
  }
};

class CachePolicy {
 public:
  /// Called with each key evicted from residency (demotions to ARC
  /// ghost lists included — the block's data is gone either way).  The
  /// server uses this for eviction counters and read-ahead waste
  /// accounting.  May be empty.
  using EvictListener = std::function<void(const BlockKey&)>;

  explicit CachePolicy(std::size_t capacity_blocks)
      : capacity_(capacity_blocks) {}
  virtual ~CachePolicy() = default;
  CachePolicy(const CachePolicy&) = delete;
  CachePolicy& operator=(const CachePolicy&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  void set_evict_listener(EvictListener l) { listener_ = std::move(l); }

  virtual std::string_view name() const noexcept = 0;
  /// Resident block count.
  virtual std::size_t size() const noexcept = 0;

  /// Lookup with policy touch (LRU promotion / ARC frequency upgrade);
  /// counts hit/miss statistics.
  virtual bool lookup(const BlockKey& k) = 0;

  /// Presence / dirtiness checks without statistics or promotion.
  virtual bool contains(const BlockKey& k) const = 0;
  virtual bool is_dirty(const BlockKey& k) const = 0;

  /// Insert (or refresh) a block.  Evicts unpinned blocks when over
  /// capacity; returns false if the cache is saturated with pinned
  /// dirty blocks and the insert was skipped.  Refreshing an existing
  /// block merges the dirty flag (dirty wins).
  virtual bool insert(const BlockKey& k, bool dirty) = 0;

  /// Mark a dirty block clean (the flusher finished writing it).
  virtual void mark_clean(const BlockKey& k) = 0;

  /// Drop every resident block (and any ghost/adaptation history) —
  /// power-loss semantics for a node crash.  Dirty pins do not survive:
  /// the buffered data is gone, which is exactly the point.  The caller
  /// accounts the loss from its own write-behind state.  Does NOT fire
  /// the evict listener: invalidation is loss, not replacement.
  virtual void invalidate_all() = 0;

 protected:
  void count_hit() noexcept { ++hits_; }
  void count_miss() noexcept { ++misses_; }
  void count_eviction(const BlockKey& k) {
    ++evictions_;
    if (listener_) listener_(k);
  }

 private:
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  EvictListener listener_;
};

/// One recency list whose members are split by pin state: clean and
/// dirty members each sit in their own MRU-first std::list.  Every move
/// to an MRU end takes a fresh stamp from the list's counter, so each
/// side is ordered by stamp and the two interleave, by stamp, into the
/// single recency order a plain list would hold.  The least-recent
/// UNPINNED member — the victim a walk from the LRU end would stop at —
/// is therefore the clean side's tail, found without visiting a pinned
/// block.  Nodes move between lists by splice, so a position stays
/// valid for the node's lifetime wherever it moves.
class RecencyList {
 public:
  struct Node {
    BlockKey key;
    std::uint64_t stamp = 0;
  };
  using Nodes = std::list<Node>;
  using Pos = Nodes::iterator;

  /// Clean plus dirty members.
  std::size_t size() const noexcept { return clean_.size() + dirty_.size(); }
  bool empty() const noexcept { return clean_.empty() && dirty_.empty(); }
  /// The side holding one pin state (the splice source for moves).
  Nodes& side(bool dirty) noexcept { return dirty ? dirty_ : clean_; }

  /// Add a new member at the MRU end of its side.
  Pos push_front(const BlockKey& k, bool dirty) {
    Nodes& s = side(dirty);
    s.push_front(Node{k, ++stamp_});
    return s.begin();
  }
  /// Move `pos` out of `from` (a side of this or another list, or a
  /// ghost list) to the MRU end of side `dirty`, restamped.
  void move_to_front(Nodes& from, Pos pos, bool dirty) {
    Nodes& s = side(dirty);
    s.splice(s.begin(), from, pos);
    pos->stamp = ++stamp_;
  }
  /// Move a dirty member to the clean side at its stamp position,
  /// walking from the LRU end; its recency is unchanged.
  void unpin(Pos pos) {
    auto at = clean_.end();
    while (at != clean_.begin() && std::prev(at)->stamp < pos->stamp) --at;
    clean_.splice(at, dirty_, pos);
  }
  /// The least-recent clean member; `has_victim()` must hold.
  bool has_victim() const noexcept { return !clean_.empty(); }
  Pos victim() noexcept { return std::prev(clean_.end()); }

  void clear() noexcept {
    clean_.clear();
    dirty_.clear();
  }

 private:
  Nodes clean_, dirty_;
  std::uint64_t stamp_ = 0;
};

/// Classic LRU with dirty pinning — the historical pfs::BlockCache
/// behind the CachePolicy interface.
class LruPolicy final : public CachePolicy {
 public:
  explicit LruPolicy(std::size_t capacity_blocks)
      : CachePolicy(capacity_blocks) {}

  std::string_view name() const noexcept override { return "lru"; }
  std::size_t size() const noexcept override { return map_.size(); }
  bool lookup(const BlockKey& k) override;
  bool contains(const BlockKey& k) const override {
    return map_.contains(k);
  }
  bool is_dirty(const BlockKey& k) const override;
  bool insert(const BlockKey& k, bool dirty) override;
  void mark_clean(const BlockKey& k) override;
  void invalidate_all() override;

 private:
  struct Entry {
    RecencyList::Pos pos;
    bool dirty = false;
  };

  bool evict_one_clean();

  RecencyList lru_;
  FlatMap<BlockKey, Entry, BlockKeyHash> map_;
};

/// ARC (adaptive replacement cache) with dirty pinning.  Residents live
/// in T1 (seen once recently) or T2 (seen at least twice); ghosts of
/// recent evictions live in B1/B2 and steer the adaptation target `p`
/// (the T1 share of capacity).  Deviations from the textbook, all
/// motivated by what an I/O server actually sees:
///
///   * a victim choice skips pinned (dirty) blocks, falling over to the
///     other resident list, and insert() fails when everything resident
///     is pinned — matching the LRU contract above;
///   * WRITE-AWARE: dirty inserts (write-behind buffering) never promote
///     to T2 and never steer `p` — a checkpoint dump rewriting its state
///     region in sub-block pieces is one logical reference, not
///     frequency, and letting it colonize T2 evicts the read working
///     sets the frequency list exists to protect.  The FIRST read hit on
///     a write-originated block is the stream draining its own
///     write-behind data (write once, read back once, dead), so it only
///     refreshes recency; T2 membership takes a second read reference;
///   * lookup() of a ghost adapts `p` even though the data is gone (the
///     server cannot re-materialize a partial read), so adaptation also
///     learns from sub-block read misses.
class ArcPolicy final : public CachePolicy {
 public:
  explicit ArcPolicy(std::size_t capacity_blocks)
      : CachePolicy(capacity_blocks) {}

  std::string_view name() const noexcept override { return "arc"; }
  std::size_t size() const noexcept override { return t1_.size() + t2_.size(); }
  bool lookup(const BlockKey& k) override;
  bool contains(const BlockKey& k) const override;
  bool is_dirty(const BlockKey& k) const override;
  bool insert(const BlockKey& k, bool dirty) override;
  void mark_clean(const BlockKey& k) override;
  void invalidate_all() override;

  /// Adaptation target for |T1| (test/diagnostic).
  double p() const noexcept { return p_; }
  std::size_t t1_size() const noexcept { return t1_.size(); }
  std::size_t t2_size() const noexcept { return t2_.size(); }
  std::size_t b1_size() const noexcept { return b1_.size(); }
  std::size_t b2_size() const noexcept { return b2_.size(); }

 private:
  enum class List : std::uint8_t { kT1, kT2, kB1, kB2 };

  struct Entry {
    RecencyList::Pos pos;
    List list = List::kT1;
    bool dirty = false;
    /// True once the block has a demand-read reference behind it (a
    /// clean insert is one; a dirty insert is not).  Gates promotion:
    /// only the reference AFTER a read reference proves read reuse.
    bool referenced = false;
  };

  static bool resident(List l) noexcept {
    return l == List::kT1 || l == List::kT2;
  }
  /// T1 or T2 (`l` must be resident).
  RecencyList& recency(List l) noexcept {
    return l == List::kT1 ? t1_ : t2_;
  }
  RecencyList::Nodes& ghosts(List l) noexcept {
    return l == List::kB1 ? b1_ : b2_;
  }
  /// The std::list that holds `e`'s node.
  RecencyList::Nodes& nodes_of(const Entry& e) noexcept {
    return resident(e.list) ? recency(e.list).side(e.dirty) : ghosts(e.list);
  }

  /// Nudge `p` toward the list whose ghost was hit (B1 hit: grow T1's
  /// target; B2 hit: shrink it).
  void adapt(bool in_b2);
  /// Move a resident entry to the MRU end of T2 (a repeated reference).
  void promote(Entry& e);
  /// Demote one unpinned resident to its ghost list per the ARC REPLACE
  /// rule (ghost_hit_in_b2 biases toward evicting from T1 at |T1|==p).
  /// Returns false when every resident block is pinned.
  bool replace(bool ghost_hit_in_b2);
  /// Evict the LRU unpinned block of `from`, remembering it in `ghost`
  /// (kB1/kB2), or dropping it entirely when `ghost` is nullptr.
  bool evict_from(List from, const List* ghost);
  void drop_ghost_lru(List ghost);

  RecencyList t1_, t2_;
  /// Ghosts keep no data and are never dirty: one plain MRU-first list
  /// each, of the same node type so a demotion is a splice.
  RecencyList::Nodes b1_, b2_;
  FlatMap<BlockKey, Entry, BlockKeyHash> map_;
  double p_ = 0.0;
};

/// Factory for the configured policy.
std::unique_ptr<CachePolicy> make_policy(PolicyKind kind,
                                         std::size_t capacity_blocks);

}  // namespace iosrv
