#include "iosrv/cache_policy.hpp"

#include <algorithm>
#include <cassert>

namespace iosrv {

// ---------------------------------------------------------------- LRU --

bool LruPolicy::lookup(const BlockKey& k) {
  const Entry* e = map_.find(k);
  if (!e) {
    count_miss();
    return false;
  }
  count_hit();
  lru_.move_to_front(lru_.side(e->dirty), e->pos, e->dirty);
  return true;
}

bool LruPolicy::is_dirty(const BlockKey& k) const {
  const Entry* e = map_.find(k);
  return e && e->dirty;
}

bool LruPolicy::insert(const BlockKey& k, bool dirty) {
  if (Entry* e = map_.find(k)) {
    lru_.move_to_front(lru_.side(e->dirty), e->pos, e->dirty || dirty);
    e->dirty = e->dirty || dirty;
    return true;
  }
  while (map_.size() >= capacity()) {
    if (!evict_one_clean()) return false;  // everything pinned
  }
  map_.insert(k, Entry{lru_.push_front(k, dirty), dirty});
  return true;
}

void LruPolicy::mark_clean(const BlockKey& k) {
  Entry* e = map_.find(k);
  if (!e || !e->dirty) return;
  lru_.unpin(e->pos);
  e->dirty = false;
}

void LruPolicy::invalidate_all() {
  lru_.clear();
  map_.clear();
}

bool LruPolicy::evict_one_clean() {
  if (!lru_.has_victim()) return false;
  const RecencyList::Pos v = lru_.victim();
  const BlockKey victim = v->key;
  map_.erase(victim);
  lru_.side(false).erase(v);
  count_eviction(victim);
  return true;
}

// ---------------------------------------------------------------- ARC --

bool ArcPolicy::contains(const BlockKey& k) const {
  const Entry* e = map_.find(k);
  return e && resident(e->list);
}

bool ArcPolicy::is_dirty(const BlockKey& k) const {
  const Entry* e = map_.find(k);
  return e && e->dirty;
}

bool ArcPolicy::lookup(const BlockKey& k) {
  Entry* e = map_.find(k);
  if (!e) {
    count_miss();
    return false;
  }
  if (!resident(e->list)) {
    // Ghost hit on a read: the data is gone, but the reference still
    // carries the adaptation signal — IF the ghost had read history.
    // A never-read ghost is a write whose one read-back arrived after
    // eviction: that distance is a stream property, not a working set,
    // and chasing it saturates p while T2's winnable reuse is evicted.
    // Sub-block reads never insert, so without adapting here they would
    // never steer p at all.  The ghost stays put (a full-stripe insert
    // that follows still earns its T2 placement); that insert adapts
    // again, a same-direction step we accept.
    if (e->referenced) adapt(e->list == List::kB2);
    count_miss();
    return false;
  }
  count_hit();
  if (e->referenced) {
    promote(*e);
  } else {
    // First read of a write-originated block: reading back one's own
    // write-behind data is recency, not reuse — refresh in place.
    e->referenced = true;
    recency(e->list).move_to_front(nodes_of(*e), e->pos, e->dirty);
  }
  return true;
}

void ArcPolicy::adapt(bool in_b2) {
  const double b1n = static_cast<double>(b1_.size());
  const double b2n = static_cast<double>(b2_.size());
  if (in_b2) {
    p_ = std::max(0.0, p_ - std::max(b2n > 0.0 ? b1n / b2n : 1.0, 1.0));
  } else {
    p_ = std::min(static_cast<double>(capacity()),
                  p_ + std::max(b1n > 0.0 ? b2n / b1n : 1.0, 1.0));
  }
}

void ArcPolicy::promote(Entry& e) {
  t2_.move_to_front(nodes_of(e), e.pos, e.dirty);
  e.list = List::kT2;
}

void ArcPolicy::mark_clean(const BlockKey& k) {
  Entry* e = map_.find(k);
  if (!e || !e->dirty) return;
  assert(resident(e->list));  // ghosts are never dirty
  recency(e->list).unpin(e->pos);
  e->dirty = false;
}

void ArcPolicy::invalidate_all() {
  t1_.clear();
  t2_.clear();
  b1_.clear();
  b2_.clear();
  map_.clear();
  p_ = 0.0;  // the adaptation history described a cache that no longer exists
}

void ArcPolicy::drop_ghost_lru(List ghost) {
  RecencyList::Nodes& l = ghosts(ghost);
  if (l.empty()) return;
  map_.erase(l.back().key);
  l.pop_back();
}

bool ArcPolicy::evict_from(List from, const List* ghost) {
  RecencyList& l = recency(from);
  if (!l.has_victim()) return false;  // every member pinned
  const RecencyList::Pos v = l.victim();
  const BlockKey victim = v->key;
  if (ghost) {
    RecencyList::Nodes& g = ghosts(*ghost);
    g.splice(g.begin(), l.side(false), v);
    map_.find(victim)->list = *ghost;
  } else {
    l.side(false).erase(v);
    map_.erase(victim);
  }
  count_eviction(victim);
  return true;
}

bool ArcPolicy::replace(bool ghost_hit_in_b2) {
  const double t1n = static_cast<double>(t1_.size());
  const bool from_t1 =
      !t1_.empty() && (t1n > p_ || (ghost_hit_in_b2 && t1n == p_));
  if (from_t1) {
    const List b1 = List::kB1;
    if (evict_from(List::kT1, &b1)) return true;
    const List b2 = List::kB2;
    return evict_from(List::kT2, &b2);  // T1 fully pinned: fall over
  }
  const List b2 = List::kB2;
  if (evict_from(List::kT2, &b2)) return true;
  const List b1 = List::kB1;
  return evict_from(List::kT1, &b1);
}

bool ArcPolicy::insert(const BlockKey& k, bool dirty) {
  const std::size_t c = capacity();
  Entry* e = map_.find(k);
  if (e && resident(e->list)) {
    if (dirty) {
      // Write-aware: a write refresh (write-behind absorbing sub-block
      // pieces, or a checkpoint rewriting its region) is not a
      // frequency signal — keep the block in its current list, just
      // refresh recency there.
      recency(e->list).move_to_front(nodes_of(*e), e->pos, true);
      e->dirty = true;
    } else {
      e->referenced = true;
      promote(*e);
    }
    return true;
  }

  if (e) {  // ghost hit
    if (dirty || !e->referenced) {
      // Write-aware: a rewrite of an evicted block earns no frequency
      // credit, and a READ of a never-read ghost is a write's one
      // read-back arriving after eviction — neither steers p nor earns
      // T2.  Forget the ghost and insert as if brand-new (landing in
      // T1 below; a clean insert starts its read history there).
      nodes_of(*e).erase(e->pos);
      map_.erase(k);
    } else {
      // Read re-reference of a recently evicted block: adapt p toward
      // the list whose ghost was hit, make room, land in T2.  replace()
      // only demotes residents to ghosts and never erases from map_,
      // so `e` still points at this key's entry afterwards.
      const bool in_b2 = e->list == List::kB2;
      adapt(in_b2);
      if (size() >= c && !replace(in_b2)) return false;  // all pinned
      assert(!e->dirty);  // ghosts are never dirty
      t2_.move_to_front(nodes_of(*e), e->pos, false);
      e->list = List::kT2;
      return true;
    }
  }

  // Brand-new key.
  if (t1_.size() + b1_.size() >= c) {
    if (t1_.size() < c) {
      drop_ghost_lru(List::kB1);
      if (size() >= c && !replace(false)) return false;
    } else {
      // B1 empty and T1 fills the cache: evict T1's LRU outright.
      if (!evict_from(List::kT1, nullptr)) return false;
    }
  } else if (map_.size() >= c) {
    if (map_.size() >= 2 * c) drop_ghost_lru(List::kB2);
    if (size() >= c && !replace(false)) return false;
  }
  map_.insert(k, Entry{t1_.push_front(k, dirty), List::kT1, dirty,
                       /*referenced=*/!dirty});
  return true;
}

// ------------------------------------------------------------- factory --

std::unique_ptr<CachePolicy> make_policy(PolicyKind kind,
                                         std::size_t capacity_blocks) {
  if (kind == PolicyKind::kArc) {
    return std::make_unique<ArcPolicy>(capacity_blocks);
  }
  return std::make_unique<LruPolicy>(capacity_blocks);
}

}  // namespace iosrv
