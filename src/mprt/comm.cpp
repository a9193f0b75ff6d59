#include "mprt/comm.hpp"

#include <utility>

#include "simkit/combinators.hpp"

namespace mprt {

int Comm::size() const noexcept { return cluster_->size(); }
simkit::Engine& Comm::engine() noexcept { return cluster_->engine(); }
hw::Machine& Comm::machine() noexcept { return cluster_->machine(); }
const CollectiveTopology& Comm::topology() const noexcept {
  return cluster_->topology();
}

simkit::Task<void> Comm::send(Rank dst, int tag, std::uint64_t bytes,
                              std::span<const std::byte> payload) {
  return send_owned(dst, tag, bytes,
                    std::vector<std::byte>(payload.begin(), payload.end()));
}

simkit::Task<void> Comm::send_owned(Rank dst, int tag, std::uint64_t bytes,
                                    std::vector<std::byte> payload) {
  assert(dst >= 0 && dst < size());
  // Framed collective routing ships real headers + whatever content the
  // caller materialized, under a simulated size that includes the
  // timing-only remainder — so "at most bytes", not "exactly bytes".
  assert(payload.size() <= bytes);
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.bytes = bytes;
  m.payload = std::move(payload);
  ++sent_;
  bytes_sent_ += bytes;
  Comm& peer = cluster_->comm(dst);
  // Envelope + data on the wire; 0-byte messages still cost an envelope.
  co_await machine().network().transfer(node_, peer.node_, bytes + 32);
  peer.deliver(std::move(m));
}

void Comm::deliver(Message m) {
  for (auto it = recvers_.begin(); it != recvers_.end(); ++it) {
    if (matches(m, it->src, it->tag)) {
      it->slot->emplace(std::move(m));
      engine().schedule_at(engine().now(), it->h);
      recvers_.erase(it);
      return;
    }
  }
  mailbox_.push_back(std::move(m));
}

bool Comm::take_mail(Rank src, int tag, std::optional<Message>& slot) {
  for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
    if (matches(*it, src, tag)) {
      slot.emplace(std::move(*it));
      mailbox_.erase(it);
      return true;
    }
  }
  return false;
}

Cluster::Cluster(hw::Machine& machine, int nprocs) : machine_(machine) {
  assert(nprocs > 0);
  assert(static_cast<std::size_t>(nprocs) <=
         machine.config().compute_nodes &&
         "one process per compute node");
  comms_.reserve(static_cast<std::size_t>(nprocs));
  for (Rank r = 0; r < nprocs; ++r) {
    comms_.push_back(std::unique_ptr<Comm>(new Comm(
        this, r, machine.compute_node(static_cast<std::size_t>(r)))));
  }
}

simkit::Task<void> Cluster::run(
    const std::function<simkit::Task<void>(Comm&)>& body) {
  std::vector<simkit::Task<void>> ranks;
  ranks.reserve(comms_.size());
  for (auto& c : comms_) ranks.push_back(body(*c));
  co_await simkit::when_all(engine(), std::move(ranks));
}

simkit::Time Cluster::execute(
    hw::Machine& machine, int nprocs,
    const std::function<simkit::Task<void>(Comm&)>& body) {
  Cluster cluster(machine, nprocs);
  auto& eng = machine.engine();
  auto main = eng.spawn(cluster.run(body), "cluster_main");
  eng.run();
  return main.finish_time();
}

}  // namespace mprt
