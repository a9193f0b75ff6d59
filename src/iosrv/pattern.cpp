#include "iosrv/pattern.hpp"

namespace iosrv {

RunInfo PatternTracker::note(std::uint64_t client, std::uint64_t file,
                             std::uint64_t block) {
  const StreamKey key{client, file};
  Stream* found = map_.find(key);
  if (!found) {
    while (map_.size() >= max_streams_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    Stream s;
    s.last_block = block;
    s.lru_pos = lru_.begin();
    map_.insert(key, s);
    return s.run;
  }

  Stream& s = *found;
  lru_.splice(lru_.begin(), lru_, s.lru_pos);
  if (block == s.last_block) return s.run;  // duplicate: no-op

  const std::int64_t delta =
      static_cast<std::int64_t>(block) -
      static_cast<std::int64_t>(s.last_block);
  if (delta == s.run.stride && s.run.stride != 0) {
    s.run.length += 1;
  } else {
    // This access and the previous one establish a fresh stride.
    s.run.stride = delta;
    s.run.length = 2;
  }
  s.last_block = block;
  return s.run;
}

}  // namespace iosrv
