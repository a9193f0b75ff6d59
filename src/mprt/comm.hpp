// mprt/comm.hpp — message-passing runtime over the simulated machine.
//
// An NX/MPL-flavoured runtime: a Cluster maps ranks onto compute nodes
// (one process per node, as the paper's applications ran) and each rank
// owns a Comm endpoint with tagged, source-matched send/recv.  Sends are
// eager: the sender pays the network timing and completes; the message
// waits in the receiver's mailbox.  Collectives are built on top in
// collectives.hpp with real tree/pairwise algorithms so their network
// costs emerge from point-to-point timing.
//
// A message costs two coroutine frames: the send body and its
// hw::Network::transfer.  recv() is a frameless awaiter whose message
// slot lives in the receiver's own frame (DESIGN.md §14 and §16).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hw/machine.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace mprt {

using Rank = int;
inline constexpr Rank kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  Rank src = -1;
  int tag = 0;
  std::uint64_t bytes = 0;             // simulated size
  std::vector<std::byte> payload;      // real content (may be empty)
};

/// Routing policy for bulk collective exchanges: how alltoallv (and the
/// hierarchical two-phase I/O built on it) moves personalized blocks.
/// kFlat is the default and reproduces the historical behavior byte for
/// byte; kTwoLevel trades a forwarding hop for message count, the
/// O(P^2) -> O(P + A^2) reduction DESIGN.md §16 describes.
struct CollectiveTopology {
  enum class Kind : std::uint8_t {
    kFlat,      // direct pairwise: P messages per rank
    kTwoLevel,  // leader-per-group routing: ~2P + A^2 messages total
  };
  Kind kind = Kind::kFlat;
  /// kTwoLevel group width G: ranks [g*G, (g+1)*G) route through their
  /// leader, rank g*G.  An exchange sends 2(P - A) + A(A - 1) messages
  /// for A = ceil(P/G) groups.  0 picks G = ceil(sqrt(P)), which balances
  /// each leader's G - 1 member messages against its A - 1 peer leaders.
  int group_size = 0;
};

class Cluster;

/// Per-rank communication endpoint.
class Comm {
 public:
  Rank rank() const noexcept { return rank_; }
  int size() const noexcept;
  hw::NodeId node() const noexcept { return node_; }
  simkit::Engine& engine() noexcept;
  hw::Machine& machine() noexcept;
  Cluster& cluster() noexcept { return *cluster_; }

  /// Timed, eager send.  `bytes` is the simulated message size; `payload`
  /// optionally carries real content — empty, exactly `bytes` long, or
  /// (for framed collective routing) shorter than `bytes` when part of
  /// the simulated volume is timing-only.  Receivers must size content
  /// off payload.size(), never off bytes.  The payload is copied when
  /// send is called, so the caller's buffer is free once it returns.
  simkit::Task<void> send(Rank dst, int tag, std::uint64_t bytes,
                          std::span<const std::byte> payload = {});

  /// Awaiter of recv(); co_await it where it is made.
  struct [[nodiscard]] Recv {
    Comm& comm;
    Rank src;
    int tag;
    std::optional<Message> slot;

    bool await_ready() { return comm.take_mail(src, tag, slot); }
    void await_suspend(std::coroutine_handle<> h) {
      comm.recvers_.push_back(PendingRecv{src, tag, &slot, h});
    }
    Message await_resume() { return std::move(*slot); }
  };

  /// Receive the first matching message (FIFO per matching stream).  The
  /// mailbox is searched when the co_await starts; a receiver that has
  /// to wait is scheduled by the delivering send.
  Recv recv(Rank src = kAnySource, int tag = kAnyTag) {
    return Recv{*this, src, tag, std::nullopt};
  }

  /// Next tag for internal collective rounds; stays in lock-step across
  /// ranks because collectives are called in SPMD order.
  int next_collective_tag() { return kCollectiveTagBase + (coll_seq_++ & 0xFFFF); }

  /// The cluster-wide collective routing policy (see CollectiveTopology).
  const CollectiveTopology& topology() const noexcept;

  std::uint64_t messages_sent() const noexcept { return sent_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

  static constexpr int kCollectiveTagBase = 1 << 20;

 private:
  friend class Cluster;
  Comm(Cluster* cluster, Rank rank, hw::NodeId node)
      : cluster_(cluster), rank_(rank), node_(node) {}

  simkit::Task<void> send_owned(Rank dst, int tag, std::uint64_t bytes,
                                std::vector<std::byte> payload);
  void deliver(Message m);
  /// Move the first mailbox message matching (src, tag) into `slot`.
  bool take_mail(Rank src, int tag, std::optional<Message>& slot);
  static bool matches(const Message& m, Rank src, int tag) {
    return (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }

  struct PendingRecv {
    Rank src;
    int tag;
    std::optional<Message>* slot;
    std::coroutine_handle<> h;
  };

  Cluster* cluster_;
  Rank rank_;
  hw::NodeId node_;
  std::deque<Message> mailbox_;
  std::deque<PendingRecv> recvers_;
  int coll_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

/// The "world": owns one Comm per rank and runs SPMD programs.
class Cluster {
 public:
  /// One process per compute node, ranks 0..nprocs-1.
  Cluster(hw::Machine& machine, int nprocs);

  int size() const noexcept { return static_cast<int>(comms_.size()); }
  hw::Machine& machine() noexcept { return machine_; }
  simkit::Engine& engine() noexcept { return machine_.engine(); }
  Comm& comm(Rank r) { return *comms_.at(static_cast<std::size_t>(r)); }

  /// Spawn `body(comm)` on every rank and wait for all of them.
  simkit::Task<void> run(
      const std::function<simkit::Task<void>(Comm&)>& body);

  /// Convenience: build the cluster, run one program, drive the engine.
  /// Returns the simulated completion time.
  static simkit::Time execute(
      hw::Machine& machine, int nprocs,
      const std::function<simkit::Task<void>(Comm&)>& body);

  /// Rendezvous board for collective constructors (e.g. pfs::SharedFile):
  /// rank 0 deposits a shared object under an agreed key (a collective
  /// tag), the other ranks pick it up after a barrier.
  std::map<int, std::shared_ptr<void>>& rendezvous() { return rendezvous_; }

  /// Collective routing policy for every Comm of this cluster.  Set it
  /// before spawning rank bodies — changing the topology between two
  /// collectives of a running SPMD program is undefined (ranks could
  /// route one collective two different ways).
  void set_topology(CollectiveTopology t) noexcept { topology_ = t; }
  const CollectiveTopology& topology() const noexcept { return topology_; }

 private:
  hw::Machine& machine_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::map<int, std::shared_ptr<void>> rendezvous_;
  CollectiveTopology topology_;
};

}  // namespace mprt
