#include "pario/interface.hpp"

namespace pario {

namespace {
const char* op_name(pfs::OpKind kind) {
  switch (kind) {
    case pfs::OpKind::kOpen:  return "open";
    case pfs::OpKind::kRead:  return "read";
    case pfs::OpKind::kSeek:  return "seek";
    case pfs::OpKind::kWrite: return "write";
    case pfs::OpKind::kFlush: return "flush";
    case pfs::OpKind::kClose: return "close";
    default:                  return "other";
  }
}
}  // namespace

void IoInterface::Meters::resolve(const std::string& mode) {
  metrics::Registry* r = metrics::current();
  if (!r) return;
  const std::string prefix = "pario.iface." + mode + ".";
  for (std::size_t k = 0; k < static_cast<std::size_t>(pfs::OpKind::kCount);
       ++k) {
    const std::string op = op_name(static_cast<pfs::OpKind>(k));
    calls[k] = &r->counter(prefix + op + ".calls");
    latency_s[k] = &r->histogram(prefix + op + ".latency_s");
  }
  // Byte distributions use a 1-byte unit (latencies keep the 1 us default).
  read_bytes = &r->histogram(prefix + "read.bytes", /*unit=*/1.0);
  write_bytes = &r->histogram(prefix + "write.bytes", /*unit=*/1.0);
}

void IoInterface::Meters::note(pfs::OpKind kind, simkit::Duration latency,
                               std::uint64_t bytes) const {
  const auto k = static_cast<std::size_t>(kind);
  if (!calls[k]) return;
  calls[k]->inc();
  latency_s[k]->observe(latency);
  if (bytes > 0) {
    if (kind == pfs::OpKind::kRead) {
      read_bytes->observe(static_cast<double>(bytes));
    } else if (kind == pfs::OpKind::kWrite) {
      write_bytes->observe(static_cast<double>(bytes));
    }
  }
}

InterfaceParams InterfaceParams::fortran() {
  InterfaceParams p;
  p.name = "fortran";
  // Record-oriented unformatted I/O: record length bookkeeping, blank
  // record padding, and a slow trap path — calibrated so the SCF 1.1
  // 64 KB read path lands ~1.7-1.8x slower than PASSION (Table 2 vs 3).
  p.call_overhead_ms = 12.0;
  p.seek_overhead_ms = 7.5;   // Fortran repositioning re-scans records
  p.open_close_overhead_ms = 70.0;
  p.copy_passes = 2;          // assemble into record buffer, copy out
  return p;
}

InterfaceParams InterfaceParams::passion() {
  InterfaceParams p;
  p.name = "passion";
  p.call_overhead_ms = 0.15;
  p.seek_overhead_ms = 0.05;
  p.open_close_overhead_ms = 12.0;
  p.copy_passes = 0;          // direct user-buffer I/O
  return p;
}

simkit::Task<IoInterface> IoInterface::open(pfs::StripedFs& fs,
                                            hw::NodeId client,
                                            pfs::FileId file,
                                            InterfaceParams params,
                                            pfs::IoObserver* observer) {
  simkit::Engine& eng = fs.machine().engine();
  const simkit::Time t0 = eng.now();
  co_await eng.delay(simkit::milliseconds(params.open_close_overhead_ms));
  pfs::FileHandle h = co_await fs.open(client, file, nullptr);
  IoInterface io(fs, h, params, observer);
  if (observer) {
    observer->record(pfs::OpKind::kOpen, t0, eng.now() - t0, 0);
  }
  io.m_.note(pfs::OpKind::kOpen, eng.now() - t0, 0);
  co_return io;
}

simkit::Task<void> IoInterface::data_op(pfs::OpKind kind,
                                        std::uint64_t offset,
                                        std::uint64_t len,
                                        std::span<std::byte> out,
                                        std::span<const std::byte> in) {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  co_await eng.delay(simkit::milliseconds(p_.call_overhead_ms));
  for (int pass = 0; pass < p_.copy_passes; ++pass) {
    co_await fs_->machine().mem_copy(len);
  }
  if (kind == pfs::OpKind::kRead) {
    co_await fs_->pread(h_.client(), h_.file(), offset, len, out);
  } else {
    co_await fs_->pwrite(h_.client(), h_.file(), offset, len, in);
  }
  if (observer_) observer_->record(kind, t0, eng.now() - t0, len);
  m_.note(kind, eng.now() - t0, len);
}

simkit::Task<void> IoInterface::read(std::uint64_t len,
                                     std::span<std::byte> out) {
  const std::uint64_t at = pos_;
  pos_ += len;
  co_await data_op(pfs::OpKind::kRead, at, len, out, {});
}

simkit::Task<void> IoInterface::write(std::uint64_t len,
                                      std::span<const std::byte> data) {
  const std::uint64_t at = pos_;
  pos_ += len;
  co_await data_op(pfs::OpKind::kWrite, at, len, {}, data);
}

simkit::Task<void> IoInterface::pread(std::uint64_t offset, std::uint64_t len,
                                      std::span<std::byte> out) {
  co_await data_op(pfs::OpKind::kRead, offset, len, out, {});
}

simkit::Task<void> IoInterface::pwrite(std::uint64_t offset,
                                       std::uint64_t len,
                                       std::span<const std::byte> data) {
  co_await data_op(pfs::OpKind::kWrite, offset, len, {}, data);
}

simkit::Task<void> IoInterface::seek(std::uint64_t pos) {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  co_await eng.delay(simkit::milliseconds(p_.seek_overhead_ms));
  co_await h_.seek(pos);  // pays the FS client-syscall cost
  pos_ = pos;
  if (observer_) {
    observer_->record(pfs::OpKind::kSeek, t0, eng.now() - t0, 0);
  }
  m_.note(pfs::OpKind::kSeek, eng.now() - t0, 0);
}

simkit::Task<void> IoInterface::flush() {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  co_await h_.flush();
  if (observer_) {
    observer_->record(pfs::OpKind::kFlush, t0, eng.now() - t0, 0);
  }
  m_.note(pfs::OpKind::kFlush, eng.now() - t0, 0);
}

simkit::Task<void> IoInterface::close() {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  co_await eng.delay(simkit::milliseconds(p_.open_close_overhead_ms));
  co_await h_.close();
  if (observer_) {
    observer_->record(pfs::OpKind::kClose, t0, eng.now() - t0, 0);
  }
  m_.note(pfs::OpKind::kClose, eng.now() - t0, 0);
}

}  // namespace pario
