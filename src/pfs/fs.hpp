// pfs/fs.hpp — the striped parallel file system (PFS / PIOFS model) and
// its client-side file handle.
//
// A StripedFs stripes each file round-robin across the machine's I/O nodes
// in stripe units (64 KB on PFS, 32 KB on PIOFS).  Client operations pay a
// per-call syscall cost, split the byte range into stripe pieces, move
// request/data over the network, and contend at the I/O nodes.  Files can
// be content-backed (real bytes through a SparseStore) or timing-only.
// A FileHandle adds the per-call cost of the I/O interface it was opened
// through (Fortran record I/O, PASSION direct calls, or none) and traces
// each operation once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "hw/machine.hpp"
#include "metrics/metrics.hpp"
#include "pfs/ionode.hpp"
#include "pfs/layout.hpp"
#include "pfs/store.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace pfs {

class StripedFs;

/// Per-call software cost of the I/O interface a handle is opened
/// through.  The paper's SCF experiments compare Fortran record I/O with
/// the PASSION library's direct calls on the same file system: only the
/// bookkeeping and buffer copies around each call differ, yet Table 2 vs
/// Table 3 shows a 1.7-1.8x read-time difference.  The default (all zero,
/// unnamed) is the bare file-system client: it schedules nothing extra.
struct InterfaceParams {
  /// Names the pario.iface.<name>.* instruments; an unnamed interface
  /// records to the observer only.  Must point at static storage (a
  /// literal): the struct stays trivially destructible, because GCC 12
  /// destroys a defaulted class-type coroutine argument twice.
  std::string_view name;
  double call_overhead_ms = 0.0;  // per read/write, before the FS call
  double seek_overhead_ms = 0.0;  // per seek
  double open_close_overhead_ms = 0.0;
  /// Number of extra in-memory passes over the data (record buffering in
  /// the Fortran runtime copies through library buffers; PASSION hands
  /// the user buffer straight to the FS).
  int copy_passes = 0;

  /// Fortran unformatted record I/O through the runtime library: heavy
  /// per-call bookkeeping plus two buffer passes (record assembly +
  /// copy-out).
  static InterfaceParams fortran();
  /// PASSION direct calls: thin veneer over the parallel file system.
  static InterfaceParams passion();
};
static_assert(std::is_trivially_destructible_v<InterfaceParams>);

/// Per-process open file: cursor, interface cost and tracing.  Each
/// operation pays its interface overhead, then the file-system call, and
/// makes exactly one record of the whole (as Pablo saw it at the
/// application level).  Cheap value type; StripedFs::open makes them.
class FileHandle {
 public:
  FileHandle() = default;

  bool valid() const noexcept { return fs_ != nullptr; }
  StripedFs& fs() const noexcept { return *fs_; }
  FileId file() const noexcept { return file_; }
  hw::NodeId client() const noexcept { return client_; }
  std::uint64_t tell() const noexcept { return pos_; }

  /// Reposition the cursor (a traced, client-local operation).
  simkit::Task<void> seek(std::uint64_t pos);

  /// Read/write `len` bytes at the cursor, advancing it.
  simkit::Task<void> read(std::uint64_t len, std::span<std::byte> out = {});
  simkit::Task<void> write(std::uint64_t len,
                           std::span<const std::byte> data = {});

  /// Positioned read/write (no cursor change).
  simkit::Task<void> pread(std::uint64_t offset, std::uint64_t len,
                           std::span<std::byte> out = {});
  simkit::Task<void> pwrite(std::uint64_t offset, std::uint64_t len,
                            std::span<const std::byte> data = {});

  /// Asynchronous positioned read (PFS/PASSION iread): returns immediately
  /// with a handle; join it to wait for completion.  Neither traced nor
  /// charged interface overhead — callers that overlap I/O (the
  /// Prefetcher) account wait and copy time themselves.
  simkit::ProcHandle iread(std::uint64_t offset, std::uint64_t len,
                           std::span<std::byte> out = {});

  /// Durable flush barrier: completes only when every acked write of
  /// this file is on disk at its servers (the ordered_drain contract).
  /// Traced as a Flush.
  simkit::Task<void> fsync();
  simkit::Task<void> close();

  /// The one record of an operation its caller timed itself (the
  /// Prefetcher's wait-plus-copy reads): to the observer, and to the
  /// interface's instruments when it is named.
  void record(OpKind kind, simkit::Time t0, simkit::Duration dur,
              std::uint64_t bytes) const;

 private:
  friend class StripedFs;
  FileHandle(StripedFs* fs, FileId file, hw::NodeId client,
             IoObserver* observer, InterfaceParams iface);

  simkit::Task<void> data_op(OpKind kind, std::uint64_t offset,
                             std::uint64_t len, std::span<std::byte> out,
                             std::span<const std::byte> in);
  /// The one record of an operation that began at `t0` and ends now.
  void record(OpKind kind, simkit::Time t0, std::uint64_t bytes) const;

  /// Per-interface instruments (pario.iface.<name>.<op>.*), resolved at
  /// open from the installed registry; null when metrics are off or the
  /// interface is unnamed.  These are the per-call latency/byte
  /// distributions the paper's Tables 2-3 compare across interfaces.
  struct Meters {
    void resolve(std::string_view name);
    void note(OpKind kind, simkit::Duration latency,
              std::uint64_t bytes) const;
    std::array<metrics::Counter*, static_cast<std::size_t>(OpKind::kCount)>
        calls{};
    std::array<metrics::Histogram*,
               static_cast<std::size_t>(OpKind::kCount)>
        latency_s{};
    metrics::Histogram* read_bytes = nullptr;
    metrics::Histogram* write_bytes = nullptr;
  };

  StripedFs* fs_ = nullptr;
  FileId file_ = kInvalidFile;
  hw::NodeId client_ = 0;
  IoObserver* observer_ = nullptr;
  InterfaceParams iface_;
  Meters meters_;
  std::uint64_t pos_ = 0;
};

class StripedFs {
 public:
  /// `injector`, when given, arms its fault plan on the machine's engine
  /// and is consulted by every I/O node; null (the default) costs nothing
  /// and behaves bit-identically to a fault-free build.
  explicit StripedFs(hw::Machine& machine,
                     fault::Injector* injector = nullptr);

  hw::Machine& machine() noexcept { return machine_; }
  fault::Injector* injector() noexcept { return injector_; }
  const hw::IoSubsysParams& params() const noexcept { return io_; }
  std::size_t io_node_count() const noexcept { return nodes_.size(); }
  IoNode& io_node(std::size_t i) { return *nodes_.at(i); }

  /// Create a file.  `backed` files store real bytes (SparseStore); others
  /// are sized but hole-only (timing runs at 37 GB scale without RAM).
  FileId create(std::string name, bool backed = false);

  /// Create a file whose stripes are confined to `servers` (distinct I/O
  /// node indices) instead of the whole partition.  Failure-domain-aware
  /// placement: a replica created on a different rack's servers survives
  /// the switch outage that takes its primary down.  Throws
  /// std::invalid_argument on an empty list, duplicates, or out-of-range
  /// indices.
  FileId create_placed(std::string name, bool backed,
                       std::vector<std::uint32_t> servers);

  /// Open an existing file (timed metadata round-trip to its first server)
  /// through interface `iface`, which pays its open overhead first.  The
  /// handle records every operation, this open included, to `observer`.
  simkit::Task<FileHandle> open(hw::NodeId client, FileId file,
                                IoObserver* observer = nullptr,
                                InterfaceParams iface = {});

  // Raw timed operations (FileHandle wraps these with cursor, interface
  // cost and tracing).
  simkit::Task<void> pread(hw::NodeId client, FileId file,
                           std::uint64_t offset, std::uint64_t len,
                           std::span<std::byte> out = {});
  simkit::Task<void> pwrite(hw::NodeId client, FileId file,
                            std::uint64_t offset, std::uint64_t len,
                            std::span<const std::byte> data = {});
  /// Durable flush barrier on the file's own servers — the one drain
  /// barrier, and the fsync the ordered_drain durability policy exposes.
  /// Completes only when the file has no acked-but-unflushed blocks
  /// left; rethrows the first drain failure instead of reporting a lossy
  /// flush as clean.
  simkit::Task<void> fsync(hw::NodeId client, FileId file);
  /// Drains the file's servers like fsync, then a metadata round-trip.
  simkit::Task<void> close(hw::NodeId client, FileId file);

  /// Shrink (or declare) the file size — a metadata round-trip, used by
  /// balanced I/O when a donor gives away its tail.
  simkit::Task<void> truncate(hw::NodeId client, FileId file,
                              std::uint64_t new_size);

  std::uint64_t file_size(FileId file) const {
    return files_.at(file)->size;
  }
  const std::string& file_name(FileId file) const {
    return files_.at(file)->name;
  }
  bool is_backed(FileId file) const { return files_.at(file)->backed; }
  const StripeMap& stripe_map(FileId file) const {
    return files_.at(file)->map;
  }

  /// Direct content access (test/diagnostic; no simulated time).
  void poke(FileId file, std::uint64_t offset,
            std::span<const std::byte> data);
  void peek(FileId file, std::uint64_t offset, std::span<std::byte> out) const;

  /// Aggregate disk statistics across all I/O nodes.
  std::uint64_t total_disk_reads() const;
  std::uint64_t total_disk_writes() const;

  /// Did any server crash destroy acked-but-unflushed data of `file` in
  /// (t0, t1]?  Recovery logic treats this exactly like a scrub: a
  /// checkpoint committed before the loss window cannot vouch for data
  /// written into it.  Always false without crash semantics.
  bool file_lost_in(FileId file, simkit::Time t0, simkit::Time t1) const;

  /// Request header cost on the wire (request descriptors are small).
  static constexpr std::uint64_t kHeaderBytes = 64;

 private:
  struct FileMeta {
    std::string name;
    bool backed = false;
    std::uint64_t size = 0;
    StripeMap map;
    SparseStore store;
    FileMeta(std::string n, bool b, StripeMap m)
        : name(std::move(n)), backed(b), map(m) {}
  };

  simkit::Task<void> piece_read(hw::NodeId client, FileId file,
                                StripePiece piece);
  /// `group` ties the pieces of one multi-block client write together
  /// in the audit ledger (torn-write detection); 0 means ungrouped.
  simkit::Task<void> piece_write(hw::NodeId client, FileId file,
                                 StripePiece piece, std::uint64_t group);

  /// One drain of `file` per server it is striped over, in the order
  /// its stripe map lists them (node order for a default-striped file).
  std::vector<simkit::Task<void>> drains(FileId file);

  /// Does a server ack imply durability under the configured policy?
  bool durable_at_ack() const noexcept;

  hw::Machine& machine_;
  simkit::Engine& eng_;
  fault::Injector* injector_;
  hw::IoSubsysParams io_;
  std::vector<std::unique_ptr<IoNode>> nodes_;
  std::vector<std::unique_ptr<FileMeta>> files_;
};

}  // namespace pfs
