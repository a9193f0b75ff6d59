#include "pfs/modes.hpp"

#include <cassert>

namespace pfs {

simkit::Task<SharedFile> SharedFile::open(mprt::Comm& comm, StripedFs& fs,
                                          FileId file, IoMode mode,
                                          std::uint64_t record_size) {
  assert(mode != IoMode::kRecord || record_size > 0);
  // Agree on a rendezvous key (tags advance in SPMD lock-step), deposit
  // the shared state at rank 0, and synchronize twice: once so everyone
  // sees the deposit, once so rank 0 may clean the board.
  const int key = comm.next_collective_tag();
  auto& board = comm.cluster().rendezvous();
  if (comm.rank() == 0) {
    board[key] = std::make_shared<SharedFileState>(
        comm.engine(), file, mode, record_size, comm.size());
  }
  co_await mprt::barrier(comm);
  auto state = std::static_pointer_cast<SharedFileState>(board.at(key));
  co_await mprt::barrier(comm);
  if (comm.rank() == 0) board.erase(key);

  // Every rank performs the (timed) file-system open.
  (void)co_await fs.open(comm.node(), file);
  co_return SharedFile(comm, fs, std::move(state));
}

simkit::Task<std::uint64_t> SharedFile::log_op(hw::AccessKind kind,
                                               std::uint64_t len,
                                               std::span<std::byte> out,
                                               std::span<const std::byte> in) {
  SharedFileState& st = *state_;
  // Token round trip to the file's metadata server: the shared pointer is
  // a distributed object, and every M_LOG access pays for it.
  auto& net = comm_->machine().network();
  const hw::NodeId meta =
      fs_->io_node(fs_->stripe_map(st.file_).server_of(0)).node_id();
  co_await st.token_.acquire();
  co_await net.transfer(comm_->node(), meta, StripedFs::kHeaderBytes);
  co_await net.transfer(meta, comm_->node(), StripedFs::kHeaderBytes);
  const std::uint64_t at = st.shared_pos_;
  st.shared_pos_ += len;
  // Atomic-append semantics: the token is held across the access.
  if (kind == hw::AccessKind::kRead) {
    co_await fs_->pread(comm_->node(), st.file_, at, len, out);
  } else {
    co_await fs_->pwrite(comm_->node(), st.file_, at, len, in);
  }
  st.token_.release();
  co_return at;
}

simkit::Task<std::uint64_t> SharedFile::sync_op(hw::AccessKind kind,
                                                std::uint64_t len,
                                                std::span<std::byte> out,
                                                std::span<const std::byte> in) {
  SharedFileState& st = *state_;
  // Global turn t serves rank (t % P)'s (t / P)-th operation.
  const std::uint64_t my_turn =
      my_ops_ * static_cast<std::uint64_t>(st.nprocs_) +
      static_cast<std::uint64_t>(comm_->rank());
  if (st.sync_round_ != my_turn) {
    co_await st.sync_turns_[my_turn].wait();
  }
  const std::uint64_t at = st.shared_pos_;
  st.shared_pos_ += len;
  if (kind == hw::AccessKind::kRead) {
    co_await fs_->pread(comm_->node(), st.file_, at, len, out);
  } else {
    co_await fs_->pwrite(comm_->node(), st.file_, at, len, in);
  }
  // Advance the global turn and wake its owner, if already waiting.
  ++st.sync_round_;
  auto it = st.sync_turns_.find(st.sync_round_);
  if (it != st.sync_turns_.end()) it->second.fire(comm_->engine());
  st.sync_turns_.erase(my_turn);
  co_return at;
}

simkit::Task<std::uint64_t> SharedFile::write(std::uint64_t len,
                                              std::span<const std::byte> data) {
  SharedFileState& st = *state_;
  std::uint64_t at = 0;
  switch (st.mode_) {
    case IoMode::kUnix:
      at = local_pos_;
      co_await fs_->pwrite(comm_->node(), st.file_, at, len, data);
      local_pos_ += len;
      break;
    case IoMode::kLog:
      at = co_await log_op(hw::AccessKind::kWrite, len, {}, data);
      break;
    case IoMode::kSync:
      at = co_await sync_op(hw::AccessKind::kWrite, len, {}, data);
      break;
    case IoMode::kRecord: {
      assert(len == st.record_size_ && "M_RECORD requires fixed records");
      at = (my_ops_ * static_cast<std::uint64_t>(st.nprocs_) +
            static_cast<std::uint64_t>(comm_->rank())) *
           st.record_size_;
      co_await fs_->pwrite(comm_->node(), st.file_, at, len, data);
      break;
    }
    case IoMode::kGlobal:
      // One writer; everyone synchronizes on the result.
      at = local_pos_;
      if (comm_->rank() == 0) {
        co_await fs_->pwrite(comm_->node(), st.file_, at, len, data);
      }
      co_await mprt::barrier(*comm_);
      local_pos_ += len;
      break;
  }
  ++my_ops_;
  co_return at;
}

simkit::Task<std::uint64_t> SharedFile::read(std::uint64_t len,
                                             std::span<std::byte> out) {
  SharedFileState& st = *state_;
  std::uint64_t at = 0;
  switch (st.mode_) {
    case IoMode::kUnix:
      at = local_pos_;
      co_await fs_->pread(comm_->node(), st.file_, at, len, out);
      local_pos_ += len;
      break;
    case IoMode::kLog:
      at = co_await log_op(hw::AccessKind::kRead, len, out, {});
      break;
    case IoMode::kSync:
      at = co_await sync_op(hw::AccessKind::kRead, len, out, {});
      break;
    case IoMode::kRecord: {
      assert(len == st.record_size_ && "M_RECORD requires fixed records");
      at = (my_ops_ * static_cast<std::uint64_t>(st.nprocs_) +
            static_cast<std::uint64_t>(comm_->rank())) *
           st.record_size_;
      co_await fs_->pread(comm_->node(), st.file_, at, len, out);
      break;
    }
    case IoMode::kGlobal: {
      // Rank 0 touches the disks; the data fans out over the network.
      at = local_pos_;
      if (comm_->rank() == 0) {
        co_await fs_->pread(comm_->node(), st.file_, at, len, out);
      }
      std::span<std::byte> bview = out;
      co_await mprt::bcast(*comm_, 0, len, bview);
      local_pos_ += len;
      break;
    }
  }
  ++my_ops_;
  co_return at;
}

simkit::Task<void> SharedFile::close() {
  // Collective close: every rank finishes its accesses before any closes.
  co_await mprt::barrier(*comm_);
  co_await fs_->close(comm_->node(), state_->file_);
}

}  // namespace pfs
