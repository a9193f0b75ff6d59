#include "pfs/fs.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"
#include "simkit/combinators.hpp"

namespace pfs {

StripedFs::StripedFs(hw::Machine& machine, fault::Injector* injector)
    : machine_(machine),
      eng_(machine.engine()),
      injector_(injector),
      io_(machine.config().io) {
  const auto& cfg = machine.config();
  nodes_.reserve(cfg.io_nodes);
  for (std::size_t i = 0; i < cfg.io_nodes; ++i) {
    nodes_.push_back(std::make_unique<IoNode>(
        eng_, machine.io_node(i), i, io_, cfg.disk, injector_));
  }
  if (injector_) injector_->start(eng_);
}

FileId StripedFs::create(std::string name, bool backed) {
  const auto id = static_cast<FileId>(files_.size());
  // Start each file's round-robin on a different server so single-stripe
  // files don't all pile onto node 0 — PFS did the same.
  const auto first =
      static_cast<std::uint32_t>(id % nodes_.size());
  files_.push_back(std::make_unique<FileMeta>(
      std::move(name), backed,
      StripeMap(io_.stripe_unit_bytes,
                static_cast<std::uint32_t>(nodes_.size()), first)));
  return id;
}

FileId StripedFs::create_placed(std::string name, bool backed,
                                std::vector<std::uint32_t> servers) {
  if (servers.empty()) {
    throw std::invalid_argument("create_placed: empty server list");
  }
  std::vector<bool> seen(nodes_.size(), false);
  for (const std::uint32_t s : servers) {
    if (s >= nodes_.size()) {
      throw std::invalid_argument("create_placed: server index " +
                                  std::to_string(s) + " out of range");
    }
    if (seen[s]) {
      throw std::invalid_argument("create_placed: duplicate server " +
                                  std::to_string(s));
    }
    seen[s] = true;
  }
  const auto id = static_cast<FileId>(files_.size());
  const auto first = static_cast<std::uint32_t>(id % servers.size());
  files_.push_back(std::make_unique<FileMeta>(
      std::move(name), backed,
      StripeMap(io_.stripe_unit_bytes, std::move(servers), first)));
  return id;
}

simkit::Task<FileHandle> StripedFs::open(hw::NodeId client, FileId file,
                                         IoObserver* observer,
                                         InterfaceParams iface) {
  assert(file < files_.size());
  const simkit::Time t0 = eng_.now();
  if (iface.open_close_overhead_ms > 0.0) {
    co_await eng_.delay(simkit::milliseconds(iface.open_close_overhead_ms));
  }
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  // Metadata round-trip to the file's first server.
  IoNode& meta = *nodes_[files_[file]->map.server_of(0)];
  auto& net = machine_.network();
  co_await net.transfer(client, meta.node_id(), kHeaderBytes);
  co_await eng_.delay(simkit::milliseconds(io_.server_overhead_ms));
  co_await net.transfer(meta.node_id(), client, kHeaderBytes);
  FileHandle fh(this, file, client, observer, iface);
  fh.record(OpKind::kOpen, t0, 0);
  co_return fh;
}

simkit::Task<void> StripedFs::piece_read(hw::NodeId client, FileId file,
                                         StripePiece piece) {
  IoNode& node = *nodes_[piece.server];
  auto& net = machine_.network();
  co_await net.transfer(client, node.node_id(), kHeaderBytes);
  co_await node.process(hw::AccessKind::kRead, client, file,
                        piece.local_offset, piece.length);
  if (audit::Ledger* led = audit::current()) {
    led->note_read(file, piece.server,
                   piece.local_offset / io_.stripe_unit_bytes);
  }
  co_await net.transfer(node.node_id(), client, piece.length);
}

bool StripedFs::durable_at_ack() const noexcept {
  return io_.server.durability.policy ==
             iosrv::DurabilityPolicy::kWriteThrough ||
         io_.server.durability.policy == iosrv::DurabilityPolicy::kJournaled;
}

simkit::Task<void> StripedFs::piece_write(hw::NodeId client, FileId file,
                                          StripePiece piece,
                                          std::uint64_t group) {
  IoNode& node = *nodes_[piece.server];
  auto& net = machine_.network();
  co_await net.transfer(client, node.node_id(),
                        kHeaderBytes + piece.length);
  co_await node.process(hw::AccessKind::kWrite, client, file,
                        piece.local_offset, piece.length);
  // The ack the client just received: what it promises depends on the
  // durability policy, and the ledger holds the server to it.
  if (audit::Ledger* led = audit::current()) {
    led->note_write_acked(file, piece.server,
                          piece.local_offset / io_.stripe_unit_bytes,
                          piece.length, durable_at_ack(), group);
  }
}

simkit::Task<void> StripedFs::pread(hw::NodeId client, FileId file,
                                    std::uint64_t offset, std::uint64_t len,
                                    std::span<std::byte> out) {
  assert(file < files_.size());
  assert(out.empty() || out.size() == len);
  FileMeta& meta = *files_[file];
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  if (len == 0) co_return;
  std::vector<simkit::Task<void>> ops;
  for (const StripePiece& piece : meta.map.split(offset, len)) {
    ops.push_back(piece_read(client, file, piece));
  }
  co_await simkit::when_all(eng_, std::move(ops));
  // Content materializes at completion time (holes read as zeros).
  if (meta.backed && !out.empty()) meta.store.read(offset, out);
}

simkit::Task<void> StripedFs::pwrite(hw::NodeId client, FileId file,
                                     std::uint64_t offset, std::uint64_t len,
                                     std::span<const std::byte> data) {
  assert(file < files_.size());
  assert(data.empty() || data.size() == len);
  FileMeta& meta = *files_[file];
  // Content lands at issue time; timing completes later.  (Simulated
  // applications synchronize reads after writes, as the real ones did.)
  if (meta.backed && !data.empty()) meta.store.write(offset, data);
  meta.size = std::max(meta.size, offset + len);
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  if (len == 0) co_return;
  std::vector<StripePiece> pieces = meta.map.split(offset, len);
  // One client write spanning several server blocks is one atomic unit
  // to the application; the shared group id lets the auditor flag it as
  // torn when a crash makes some pieces durable and loses others.
  std::uint64_t group = 0;
  if (pieces.size() > 1) {
    if (audit::Ledger* led = audit::current()) group = led->begin_group();
  }
  std::vector<simkit::Task<void>> ops;
  ops.reserve(pieces.size());
  for (const StripePiece& piece : pieces) {
    ops.push_back(piece_write(client, file, piece, group));
  }
  co_await simkit::when_all(eng_, std::move(ops));
}

std::vector<simkit::Task<void>> StripedFs::drains(FileId file) {
  // Only the file's own servers hold its data; drain exactly those.
  // drain() rethrows recorded drain failures, so a barrier over lossy
  // writes fails instead of lying.
  std::vector<simkit::Task<void>> ops;
  for (const std::uint32_t s : files_.at(file)->map.server_list()) {
    ops.push_back(nodes_[s]->drain(file));
  }
  return ops;
}

simkit::Task<void> StripedFs::fsync(hw::NodeId client, FileId file) {
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  (void)client;
  co_await simkit::when_all(eng_, drains(file));
}

simkit::Task<void> StripedFs::close(hw::NodeId client, FileId file) {
  // Close semantics: drain buffered data, then a metadata round-trip.
  co_await simkit::when_all(eng_, drains(file));
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  IoNode& meta = *nodes_[files_[file]->map.server_of(0)];
  auto& net = machine_.network();
  co_await net.transfer(client, meta.node_id(), kHeaderBytes);
  co_await net.transfer(meta.node_id(), client, kHeaderBytes);
}

simkit::Task<void> StripedFs::truncate(hw::NodeId client, FileId file,
                                       std::uint64_t new_size) {
  co_await eng_.delay(simkit::milliseconds(io_.client_syscall_ms));
  IoNode& meta = *nodes_[files_[file]->map.server_of(0)];
  auto& net = machine_.network();
  co_await net.transfer(client, meta.node_id(), kHeaderBytes);
  co_await eng_.delay(simkit::milliseconds(io_.server_overhead_ms));
  co_await net.transfer(meta.node_id(), client, kHeaderBytes);
  files_[file]->size = new_size;
}

void StripedFs::poke(FileId file, std::uint64_t offset,
                     std::span<const std::byte> data) {
  FileMeta& meta = *files_.at(file);
  assert(meta.backed);
  meta.store.write(offset, data);
  meta.size = std::max(meta.size, offset + data.size());
}

void StripedFs::peek(FileId file, std::uint64_t offset,
                     std::span<std::byte> out) const {
  files_.at(file)->store.read(offset, out);
}

std::uint64_t StripedFs::total_disk_reads() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->disk_reads();
  return n;
}

std::uint64_t StripedFs::total_disk_writes() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node->disk_writes();
  return n;
}

bool StripedFs::file_lost_in(FileId file, simkit::Time t0,
                             simkit::Time t1) const {
  for (const auto& node : nodes_) {
    if (node->file_lost_in(file, t0, t1)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// InterfaceParams
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// FileHandle
// ---------------------------------------------------------------------------

void FileHandle::Meters::resolve(std::string_view name) {
  metrics::Registry* r = metrics::current();
  if (!r) return;
  const std::string prefix = "pario.iface." + std::string(name) + ".";
  for (std::size_t k = 0; k < calls.size(); ++k) {
    std::string op(to_string(static_cast<OpKind>(k)));  // "Read" -> "read"
    op[0] = static_cast<char>(std::tolower(static_cast<unsigned char>(op[0])));
    calls[k] = &r->counter(prefix + op + ".calls");
    latency_s[k] = &r->histogram(prefix + op + ".latency_s");
  }
  // Byte distributions use a 1-byte unit (latencies keep the 1 us default).
  read_bytes = &r->histogram(prefix + "read.bytes", /*unit=*/1.0);
  write_bytes = &r->histogram(prefix + "write.bytes", /*unit=*/1.0);
}

void FileHandle::Meters::note(OpKind kind, simkit::Duration latency,
                              std::uint64_t bytes) const {
  const auto k = static_cast<std::size_t>(kind);
  if (!calls[k]) return;
  calls[k]->inc();
  latency_s[k]->observe(latency);
  if (bytes > 0) {
    if (kind == OpKind::kRead) {
      read_bytes->observe(static_cast<double>(bytes));
    } else if (kind == OpKind::kWrite) {
      write_bytes->observe(static_cast<double>(bytes));
    }
  }
}

FileHandle::FileHandle(StripedFs* fs, FileId file, hw::NodeId client,
                       IoObserver* observer, InterfaceParams iface)
    : fs_(fs),
      file_(file),
      client_(client),
      observer_(observer),
      iface_(iface) {
  if (!iface_.name.empty()) meters_.resolve(iface_.name);
}

void FileHandle::record(OpKind kind, simkit::Time t0, simkit::Duration dur,
                        std::uint64_t bytes) const {
  if (observer_) observer_->record(kind, t0, dur, bytes);
  meters_.note(kind, dur, bytes);
}

void FileHandle::record(OpKind kind, simkit::Time t0,
                        std::uint64_t bytes) const {
  record(kind, t0, fs_->machine().engine().now() - t0, bytes);
}

// A zero interface overhead schedules nothing (delay(0) is still an
// event), so a bare handle keeps the raw call's exact event stream.

simkit::Task<void> FileHandle::data_op(OpKind kind, std::uint64_t offset,
                                       std::uint64_t len,
                                       std::span<std::byte> out,
                                       std::span<const std::byte> in) {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  if (iface_.call_overhead_ms > 0.0) {
    co_await eng.delay(simkit::milliseconds(iface_.call_overhead_ms));
  }
  for (int pass = 0; pass < iface_.copy_passes; ++pass) {
    co_await fs_->machine().mem_copy(len);
  }
  if (kind == OpKind::kRead) {
    co_await fs_->pread(client_, file_, offset, len, out);
  } else {
    co_await fs_->pwrite(client_, file_, offset, len, in);
  }
  record(kind, t0, len);
}

simkit::Task<void> FileHandle::seek(std::uint64_t pos) {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  if (iface_.seek_overhead_ms > 0.0) {
    co_await eng.delay(simkit::milliseconds(iface_.seek_overhead_ms));
  }
  co_await eng.delay(
      simkit::milliseconds(fs_->params().client_syscall_ms));
  pos_ = pos;
  record(OpKind::kSeek, t0, 0);
}

// The data calls are not coroutines: they move the cursor and hand back
// data_op's task, so each call costs one coroutine frame.

simkit::Task<void> FileHandle::read(std::uint64_t len,
                                    std::span<std::byte> out) {
  const std::uint64_t at = pos_;
  pos_ += len;
  return data_op(OpKind::kRead, at, len, out, {});
}

simkit::Task<void> FileHandle::write(std::uint64_t len,
                                     std::span<const std::byte> data) {
  const std::uint64_t at = pos_;
  pos_ += len;
  return data_op(OpKind::kWrite, at, len, {}, data);
}

simkit::Task<void> FileHandle::pread(std::uint64_t offset, std::uint64_t len,
                                     std::span<std::byte> out) {
  return data_op(OpKind::kRead, offset, len, out, {});
}

simkit::Task<void> FileHandle::pwrite(std::uint64_t offset, std::uint64_t len,
                                      std::span<const std::byte> data) {
  return data_op(OpKind::kWrite, offset, len, {}, data);
}

simkit::ProcHandle FileHandle::iread(std::uint64_t offset, std::uint64_t len,
                                     std::span<std::byte> out) {
  return fs_->machine().engine().spawn(
      fs_->pread(client_, file_, offset, len, out), "iread");
}

simkit::Task<void> FileHandle::fsync() {
  const simkit::Time t0 = fs_->machine().engine().now();
  co_await fs_->fsync(client_, file_);
  record(OpKind::kFlush, t0, 0);
}

simkit::Task<void> FileHandle::close() {
  simkit::Engine& eng = fs_->machine().engine();
  const simkit::Time t0 = eng.now();
  if (iface_.open_close_overhead_ms > 0.0) {
    co_await eng.delay(simkit::milliseconds(iface_.open_close_overhead_ms));
  }
  co_await fs_->close(client_, file_);
  record(OpKind::kClose, t0, 0);
}

}  // namespace pfs
