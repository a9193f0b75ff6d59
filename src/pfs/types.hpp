// pfs/types.hpp — shared vocabulary for the parallel file system.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "simkit/time.hpp"

namespace pfs {

using FileId = std::uint32_t;
inline constexpr FileId kInvalidFile = ~FileId{0};

/// Typed failure surfaced by the I/O stack when fault injection is armed:
/// the request reached an I/O node that a fault::Injector crash window
/// holds down.  Propagates through the coroutine chain to whoever awaits
/// the request; pario's retry/backoff policy decides recovery.
class IoError : public std::runtime_error {
 public:
  explicit IoError(std::size_t io_node_index)
      : std::runtime_error("io error (node-down) at io node " +
                           std::to_string(io_node_index)),
        io_node_(io_node_index) {}

  std::size_t io_node() const noexcept { return io_node_; }

 private:
  std::size_t io_node_;
};

/// The operation kinds the Pablo-style tracer distinguishes — exactly the
/// rows of the paper's Tables 2 and 3.
enum class OpKind : std::uint8_t {
  kOpen = 0,
  kRead,
  kSeek,
  kWrite,
  kFlush,
  kClose,
  kCount  // sentinel
};

constexpr std::string_view to_string(OpKind k) {
  switch (k) {
    case OpKind::kOpen:  return "Open";
    case OpKind::kRead:  return "Read";
    case OpKind::kSeek:  return "Seek";
    case OpKind::kWrite: return "Write";
    case OpKind::kFlush: return "Flush";
    case OpKind::kClose: return "Close";
    case OpKind::kCount: break;
  }
  return "?";
}

/// Observer hook for I/O tracing (implemented by trace::IoTracer).  The
/// file system reports every client-visible operation through this.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void record(OpKind kind, simkit::Time start, simkit::Duration dur,
                      std::uint64_t bytes) = 0;
};

}  // namespace pfs
