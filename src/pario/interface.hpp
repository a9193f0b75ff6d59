// pario/interface.hpp — the "efficient interface" optimization.
//
// The paper's SCF experiments compare three I/O interfaces to the same
// file system: (O) Fortran record I/O, (P) the PASSION library's direct
// calls, and (F) PASSION with prefetching.  Interface choice changes only
// the *software cost around each call* — per-call bookkeeping and buffer
// copies — yet Table 2 vs Table 3 shows a 1.7-1.8x read-time difference.
// IoInterface makes that cost model explicit and traces at its own level
// (so traced times include the interface overhead, as Pablo saw them).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "hw/machine.hpp"
#include "metrics/metrics.hpp"
#include "pfs/fs.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace pario {

struct InterfaceParams {
  std::string name;
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

/// A file accessed through a specific interface.  Owns the cursor; traces
/// every operation (including interface overhead) to the observer.
class IoInterface {
 public:
  IoInterface(pfs::StripedFs& fs, pfs::FileHandle handle,
              InterfaceParams params, pfs::IoObserver* observer = nullptr)
      : fs_(&fs), h_(handle), p_(std::move(params)), observer_(observer) {
    h_.set_observer(nullptr);  // tracing happens here, not underneath
    m_.resolve(p_.name);
  }

  const InterfaceParams& params() const noexcept { return p_; }
  pfs::FileHandle& handle() noexcept { return h_; }
  std::uint64_t tell() const noexcept { return pos_; }
  hw::Machine& machine() noexcept { return fs_->machine(); }
  simkit::Engine& engine() noexcept { return fs_->machine().engine(); }

  simkit::Task<void> read(std::uint64_t len, std::span<std::byte> out = {});
  simkit::Task<void> write(std::uint64_t len,
                           std::span<const std::byte> data = {});
  simkit::Task<void> pread(std::uint64_t offset, std::uint64_t len,
                           std::span<std::byte> out = {});
  simkit::Task<void> pwrite(std::uint64_t offset, std::uint64_t len,
                            std::span<const std::byte> data = {});
  simkit::Task<void> seek(std::uint64_t pos);
  simkit::Task<void> flush();
  simkit::Task<void> close();

  /// Asynchronous read (PASSION iread) — no interface overhead is charged
  /// at issue; the Prefetcher accounts wait and copy time explicitly.
  simkit::ProcHandle iread(std::uint64_t offset, std::uint64_t len,
                           std::span<std::byte> out = {}) {
    return h_.iread(offset, len, out);
  }

  /// Open `file` through this interface (pays interface open overhead on
  /// top of the file-system open round-trip).
  static simkit::Task<IoInterface> open(pfs::StripedFs& fs,
                                        hw::NodeId client, pfs::FileId file,
                                        InterfaceParams params,
                                        pfs::IoObserver* observer = nullptr);

 private:
  simkit::Task<void> data_op(pfs::OpKind kind, std::uint64_t offset,
                             std::uint64_t len, std::span<std::byte> out,
                             std::span<const std::byte> in);

  /// Per-interface-mode instruments (pario.iface.<mode>.<op>.*), resolved
  /// once at construction from the installed registry; inert when metrics
  /// are off.  These are the per-call latency/byte distributions the
  /// paper's Tables 2-3 compare across interfaces.
  struct Meters {
    void resolve(const std::string& mode);
    void note(pfs::OpKind kind, simkit::Duration latency,
              std::uint64_t bytes) const;
    std::array<metrics::Counter*,
               static_cast<std::size_t>(pfs::OpKind::kCount)>
        calls{};
    std::array<metrics::Histogram*,
               static_cast<std::size_t>(pfs::OpKind::kCount)>
        latency_s{};
    metrics::Histogram* read_bytes = nullptr;
    metrics::Histogram* write_bytes = nullptr;
  };

  pfs::StripedFs* fs_;
  pfs::FileHandle h_;
  InterfaceParams p_;
  pfs::IoObserver* observer_;
  Meters m_;
  std::uint64_t pos_ = 0;
};

}  // namespace pario
