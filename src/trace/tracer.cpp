#include "trace/tracer.hpp"

namespace trace {

std::uint64_t IoTracer::total_ops() const {
  std::uint64_t n = 0;
  for (const auto& s : byKind_) n += s.count();
  return n;
}

simkit::Duration IoTracer::total_io_time() const {
  simkit::Duration t = 0.0;
  for (const auto& s : byKind_) t += s.time();
  return t;
}

std::uint64_t IoTracer::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& s : byKind_) b += s.bytes;
  return b;
}

void IoTracer::clear() {
  byKind_ = {};
  events_.clear();
}

}  // namespace trace
