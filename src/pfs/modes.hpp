// pfs/modes.hpp — Intel PFS shared-file I/O modes.
//
// The paper (§5) complains that "both PFS and PIOFS have different I/O
// modes which make the programming for I/O very difficult".  PFS exposed
// a per-open *I/O mode* governing how a file pointer is shared among the
// processes that opened a file together:
//
//   M_UNIX    each process has its OWN pointer; no coordination (the
//             default; what FileHandle already provides).
//   M_LOG     ONE shared pointer; accesses are atomic and serialized in
//             arrival order (append-log semantics).  Every operation
//             costs a pointer-token round trip — a classic scalability
//             trap.
//   M_SYNC    one shared pointer and accesses proceed in STRICT RANK
//             ORDER: process r's i-th operation happens after process
//             r-1's i-th operation.  Fully deterministic, fully serial.
//   M_RECORD  synchronized-start interleaved records: the i-th operation
//             of process r lands at offset (i * P + r) * record_size,
//             computed locally — no token traffic, fully parallel, but
//             every operation must be exactly record_size bytes.
//   M_GLOBAL  all processes read the same data; one process performs the
//             physical access and the data is broadcast.
//
// SharedFile implements these on top of StripedFs.  It is deliberately
// separate from FileHandle: modes are a coordination layer, not a data
// path, so it charges no interface cost and makes no trace records (its
// callers time whole collective accesses).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>

#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "simkit/resource.hpp"
#include "simkit/trigger.hpp"

namespace pfs {

enum class IoMode : std::uint8_t {
  kUnix = 0,
  kLog,
  kSync,
  kRecord,
  kGlobal,
};

constexpr std::string_view to_string(IoMode m) {
  switch (m) {
    case IoMode::kUnix:   return "M_UNIX";
    case IoMode::kLog:    return "M_LOG";
    case IoMode::kSync:   return "M_SYNC";
    case IoMode::kRecord: return "M_RECORD";
    case IoMode::kGlobal: return "M_GLOBAL";
  }
  return "?";
}

/// Shared state for one collective open (one per open, shared by ranks).
class SharedFileState {
 public:
  SharedFileState(simkit::Engine& eng, FileId file, IoMode mode,
                  std::uint64_t record_size, int nprocs)
      : file_(file),
        mode_(mode),
        record_size_(record_size),
        nprocs_(nprocs),
        token_(eng, 1) {}

  FileId file() const noexcept { return file_; }
  IoMode mode() const noexcept { return mode_; }
  std::uint64_t record_size() const noexcept { return record_size_; }
  int nprocs() const noexcept { return nprocs_; }

 private:
  friend class SharedFile;
  FileId file_;
  IoMode mode_;
  std::uint64_t record_size_;
  int nprocs_;
  simkit::Resource token_;        // the shared-pointer token (kLog)
  std::uint64_t shared_pos_ = 0;  // kLog/kSync shared pointer
  std::uint64_t sync_round_ = 0;  // kSync: completed operations
  /// kSync: wakeups of ranks waiting for their global turn, by turn.
  std::map<std::uint64_t, simkit::Trigger> sync_turns_;
};

/// One rank's endpoint on a collectively opened file.
class SharedFile {
 public:
  /// Collective open: every rank of `comm` calls this with the same
  /// arguments.  `record_size` is required for kRecord.
  static simkit::Task<SharedFile> open(mprt::Comm& comm, StripedFs& fs,
                                       FileId file, IoMode mode,
                                       std::uint64_t record_size = 0);

  /// Mode-governed sequential write of `len` bytes (must equal the record
  /// size in kRecord mode).  Returns the file offset the data landed at.
  simkit::Task<std::uint64_t> write(std::uint64_t len,
                                    std::span<const std::byte> data = {});

  /// Mode-governed sequential read.  kGlobal: rank 0 reads, everyone
  /// gets the bytes (and the timing of the broadcast).
  simkit::Task<std::uint64_t> read(std::uint64_t len,
                                   std::span<std::byte> out = {});

  simkit::Task<void> close();

  IoMode mode() const noexcept { return state_->mode(); }
  int rank() const noexcept { return comm_->rank(); }
  /// This rank's private pointer (kUnix/kRecord bookkeeping).
  std::uint64_t local_pos() const noexcept { return local_pos_; }

 private:
  SharedFile(mprt::Comm& comm, StripedFs& fs,
             std::shared_ptr<SharedFileState> state)
      : comm_(&comm), fs_(&fs), state_(std::move(state)) {}

  simkit::Task<std::uint64_t> log_op(hw::AccessKind kind, std::uint64_t len,
                                     std::span<std::byte> out,
                                     std::span<const std::byte> in);
  simkit::Task<std::uint64_t> sync_op(hw::AccessKind kind, std::uint64_t len,
                                      std::span<std::byte> out,
                                      std::span<const std::byte> in);

  mprt::Comm* comm_;
  StripedFs* fs_;
  std::shared_ptr<SharedFileState> state_;
  std::uint64_t local_pos_ = 0;
  std::uint64_t my_ops_ = 0;
};

}  // namespace pfs
