#include "mprt/collectives.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "metrics/metrics.hpp"

namespace mprt {

simkit::Task<void> barrier(Comm& c) {
  const int p = c.size();
  if (p == 1) co_return;
  const int tag = c.next_collective_tag();
  const Rank r = c.rank();
  for (int k = 1; k < p; k <<= 1) {
    const Rank dst = (r + k) % p;
    const Rank src = (r - k % p + p) % p;
    co_await c.send(dst, tag, 0);
    (void)co_await c.recv(src, tag);
  }
}

simkit::Task<void> bcast(Comm& c, Rank root, std::uint64_t bytes,
                         std::span<std::byte> buf) {
  assert(buf.empty() || buf.size() == bytes);
  const int p = c.size();
  if (p == 1) co_return;
  const int tag = c.next_collective_tag();
  const Rank r = c.rank();
  const Rank rel = (r - root + p) % p;

  // Receive from parent (non-root only).
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const Rank parent = ((rel - mask) + root) % p;
      Message m = co_await c.recv(parent, tag);
      if (!buf.empty() && !m.payload.empty()) {
        std::memcpy(buf.data(), m.payload.data(),
                    std::min<std::size_t>(buf.size(), m.payload.size()));
      }
      break;
    }
    mask <<= 1;
  }
  // Forward to children.
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const Rank child = (rel + mask + root) % p;
      const std::span<const std::byte> view = buf;  // no ternary: GCC 12
      co_await c.send(child, tag, bytes, view);
    }
    mask >>= 1;
  }
}

simkit::Task<std::vector<Message>> gatherv(Comm& c, Rank root,
                                           std::uint64_t my_bytes,
                                           std::span<const std::byte> payload) {
  const int p = c.size();
  const int tag = c.next_collective_tag();
  std::vector<Message> out;
  if (c.rank() == root) {
    out.resize(static_cast<std::size_t>(p));
    Message self;
    self.src = root;
    self.tag = tag;
    self.bytes = my_bytes;
    self.payload.assign(payload.begin(), payload.end());
    out[static_cast<std::size_t>(root)] = std::move(self);
    for (int i = 1; i < p; ++i) {
      Message m = co_await c.recv(kAnySource, tag);
      out[static_cast<std::size_t>(m.src)] = std::move(m);
    }
  } else {
    co_await c.send(root, tag, my_bytes, payload);
  }
  co_return out;
}

namespace {

/// Wire-traffic instruments for one alltoallv call (any routing kind);
/// null when metrics are off.  `bytes` counts simulated wire volume
/// including the 32-byte point-to-point envelope, so routing overhead
/// (frame headers, forwarding hops) is visible, not just payload.
struct A2aMeters {
  A2aMeters() {
    if (metrics::Registry* r = metrics::current()) {
      msgs = &r->counter("mprt.alltoall.msgs");
      bytes = &r->counter("mprt.alltoall.bytes");
    }
  }
  void note(std::uint64_t sim_bytes) {
    if (msgs) {
      msgs->inc();
      bytes->inc(sim_bytes + 32);
    }
  }
  metrics::Counter* msgs = nullptr;
  metrics::Counter* bytes = nullptr;
};

/// A personalized block in flight through a routed exchange.  Wire record:
/// [src u32][dst u32][sim_bytes u64][payload_len u64][payload bytes].
/// sim_bytes is the block's simulated size; the payload carries only what
/// the caller materialized (possibly nothing), so a frame's real length
/// is at most its simulated length.
struct Block {
  Rank src = -1;
  Rank dst = -1;
  std::uint64_t sim_bytes = 0;
  std::vector<std::byte> payload;
};

constexpr std::size_t kBlockHeader = 24;

/// Serialize blocks into `frame` and return the frame's SIMULATED size
/// via `sim` (header per record + sim_bytes, whether or not the payload
/// was materialized) — the honest wire cost of routed aggregation.
void encode_blocks(const std::vector<Block>& blocks,
                   std::vector<std::byte>& frame, std::uint64_t& sim) {
  frame.clear();
  sim = 0;
  std::size_t real = 0;
  for (const auto& b : blocks) real += kBlockHeader + b.payload.size();
  frame.reserve(real);
  for (const auto& b : blocks) {
    std::uint32_t hdr32[2] = {static_cast<std::uint32_t>(b.src),
                              static_cast<std::uint32_t>(b.dst)};
    std::uint64_t hdr64[2] = {b.sim_bytes, b.payload.size()};
    const auto* p32 = reinterpret_cast<const std::byte*>(hdr32);
    frame.insert(frame.end(), p32, p32 + 8);
    const auto* p64 = reinterpret_cast<const std::byte*>(hdr64);
    frame.insert(frame.end(), p64, p64 + 16);
    frame.insert(frame.end(), b.payload.begin(), b.payload.end());
    sim += kBlockHeader + b.sim_bytes;
  }
}

std::vector<Block> decode_blocks(std::span<const std::byte> frame) {
  std::vector<Block> out;
  std::size_t cur = 0;
  while (cur + kBlockHeader <= frame.size()) {
    std::uint32_t hdr32[2];
    std::uint64_t hdr64[2];
    std::memcpy(hdr32, frame.data() + cur, 8);
    std::memcpy(hdr64, frame.data() + cur + 8, 16);
    cur += kBlockHeader;
    Block b;
    b.src = static_cast<Rank>(hdr32[0]);
    b.dst = static_cast<Rank>(hdr32[1]);
    b.sim_bytes = hdr64[0];
    const auto len = static_cast<std::size_t>(hdr64[1]);
    assert(cur + len <= frame.size());
    b.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(cur),
                     frame.begin() + static_cast<std::ptrdiff_t>(cur + len));
    cur += len;
    out.push_back(std::move(b));
  }
  return out;
}

/// Rank r's outbound blocks, payloads moved out of `sends`; its block to
/// itself stays there (delivered locally).  No block is empty, so routed
/// topologies pay no wire headers for nothing-to-say pairs.
std::vector<Block> build_blocks(Rank r, std::vector<Outgoing>& sends) {
  std::vector<Block> out;
  out.reserve(sends.size());
  for (Outgoing& s : sends) {
    if (s.dst != r) out.push_back({r, s.dst, s.bytes, std::move(s.payload)});
  }
  return out;
}

/// The first block in `sends` whose dst is >= `dst`.
std::vector<Outgoing>::iterator first_block_from(std::vector<Outgoing>& sends,
                                                 Rank dst) {
  return std::lower_bound(sends.begin(), sends.end(), dst,
                          [](const Outgoing& s, Rank d) { return s.dst < d; });
}

void sort_by_source(std::vector<Message>& out) {
  std::sort(out.begin(), out.end(), [](const Message& a, const Message& b) {
    return a.src < b.src;
  });
}

/// Ends a routed exchange: adds my block to myself, if I have one, and
/// puts the hop-ordered arrivals in the source order alltoallv returns.
void finish_routed(std::vector<Message>& out, Rank r, int tag,
                   std::vector<Outgoing>& sends) {
  const auto self = first_block_from(sends, r);
  if (self != sends.end() && self->dst == r) {
    out.push_back({r, tag, self->bytes, std::move(self->payload)});
  }
  sort_by_source(out);
}

/// Two-level leader routing: members ship all their blocks to the group
/// leader (one message), leaders exchange pairwise (A^2), leaders deliver
/// to members (one message each) — ~2P + A^2 wire messages instead of
/// P^2, at the price of every byte crossing the network an extra time.
simkit::Task<std::vector<Message>> alltoallv_twolevel(
    Comm& c, std::vector<Outgoing> sends) {
  const int p = c.size();
  const Rank r = c.rank();
  A2aMeters meters;
  const int width = two_level_group_width(p, c.topology());
  const int nl = (p + width - 1) / width;
  const Rank my_leader = r - r % width;
  const int li = r / width;
  const int tag_up = c.next_collective_tag();
  const int tag_x = c.next_collective_tag();
  const int tag_down = c.next_collective_tag();

  std::vector<Message> out;
  std::vector<Block> mine = build_blocks(r, sends);

  if (r != my_leader) {
    std::vector<std::byte> frame;
    std::uint64_t sim = 0;
    encode_blocks(mine, frame, sim);
    meters.note(sim);
    co_await c.send(my_leader, tag_up, sim, frame);
    Message down = co_await c.recv(my_leader, tag_down);
    auto arrived = decode_blocks(down.payload);
    for (auto& b : arrived) {
      assert(b.dst == r);
      out.push_back({b.src, tag_down, b.sim_bytes, std::move(b.payload)});
    }
  } else {
    // Collect the group's blocks (members in rank order).
    std::vector<Block> pool = std::move(mine);
    const Rank group_end = std::min(my_leader + width, p);
    for (Rank mr = my_leader + 1; mr < group_end; ++mr) {
      Message up = co_await c.recv(mr, tag_up);
      auto arrived = decode_blocks(up.payload);
      for (auto& b : arrived) pool.push_back(std::move(b));
    }
    // Bucket by destination group.
    std::vector<std::vector<Block>> per_group(static_cast<std::size_t>(nl));
    std::vector<Block> local;
    for (auto& b : pool) {
      const int g = b.dst / width;
      if (g == li) {
        local.push_back(std::move(b));
      } else {
        per_group[static_cast<std::size_t>(g)].push_back(std::move(b));
      }
    }
    // Shifted pairwise exchange among leaders (eager sends: the
    // sequential send-then-recv per step cannot deadlock).
    for (int k = 1; k < nl; ++k) {
      const int gd = (li + k) % nl;
      const int gs = (li - k + nl) % nl;
      const Rank dst_leader = gd * width;
      const Rank src_leader = gs * width;
      std::vector<std::byte> frame;
      std::uint64_t sim = 0;
      encode_blocks(per_group[static_cast<std::size_t>(gd)], frame, sim);
      meters.note(sim);
      co_await c.send(dst_leader, tag_x, sim, frame);
      Message m = co_await c.recv(src_leader, tag_x);
      auto arrived = decode_blocks(m.payload);
      for (auto& b : arrived) local.push_back(std::move(b));
    }
    // Deliver within my group.
    std::vector<std::vector<Block>> per_member(
        static_cast<std::size_t>(group_end - my_leader));
    for (auto& b : local) {
      if (b.dst == r) {
        out.push_back({b.src, tag_down, b.sim_bytes, std::move(b.payload)});
      } else {
        per_member[static_cast<std::size_t>(b.dst - my_leader)].push_back(
            std::move(b));
      }
    }
    for (Rank mr = my_leader + 1; mr < group_end; ++mr) {
      std::vector<std::byte> frame;
      std::uint64_t sim = 0;
      encode_blocks(per_member[static_cast<std::size_t>(mr - my_leader)],
                    frame, sim);
      meters.note(sim);
      co_await c.send(mr, tag_down, sim, frame);
    }
  }
  finish_routed(out, r, tag_down, sends);
  co_return out;
}

/// The historical flat exchange, kept byte-identical (same single tag,
/// same shifted pairwise order, self included, one envelope per pair even
/// when it carries 0 bytes) for default-topology runs.
simkit::Task<std::vector<Message>> alltoallv_flat(
    Comm& c, std::vector<Outgoing> sends) {
  const int p = c.size();
  const int tag = c.next_collective_tag();
  const Rank r = c.rank();
  A2aMeters meters;
  std::vector<Message> out;

  // Shifted pairwise exchange: step k talks to (r+k) / (r-k).  Eager sends
  // make the sequential send-then-recv per step deadlock-free.  The
  // destinations run r, r+1, ..., P-1, 0, ..., r-1, so `next` walks the
  // ascending `sends` from the first dst >= r and wraps with them; a
  // pair with no block sends `none`, an empty envelope.
  const Outgoing none;
  auto next = first_block_from(sends, r);
  for (int k = 0; k < p; ++k) {
    const Rank dst = (r + k) % p;
    const Rank src = (r - k % p + p) % p;
    if (dst == 0) next = sends.begin();
    const Outgoing* block = &none;
    if (next != sends.end() && next->dst == dst) block = &*next++;
    meters.note(block->bytes);
    co_await c.send(dst, tag, block->bytes, block->payload);
    Message m = co_await c.recv(src, tag);
    if (m.bytes > 0) out.push_back(std::move(m));
  }
  sort_by_source(out);  // they arrived from r, r-1, ..., 0, P-1, ..., r+1
  co_return out;
}

}  // namespace

int two_level_group_width(int p, const CollectiveTopology& t) {
  if (p <= 1) return 1;
  int g = t.group_size;
  if (g <= 0) {
    g = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(p))));
  }
  return std::clamp(g, 1, p);
}

simkit::Task<std::vector<Message>> alltoallv(Comm& c,
                                             std::vector<Outgoing> sends) {
  Rank prev = -1;
  for (const Outgoing& s : sends) {
    if (s.dst <= prev || s.dst >= c.size() || s.bytes == 0 ||
        s.payload.size() > s.bytes) {
      throw std::invalid_argument(
          "alltoallv: sends need ascending unique dst in [0, P), "
          "bytes > 0, payload size <= bytes");
    }
    prev = s.dst;
  }
  if (c.topology().kind == CollectiveTopology::Kind::kTwoLevel) {
    co_return co_await alltoallv_twolevel(c, std::move(sends));
  }
  co_return co_await alltoallv_flat(c, std::move(sends));
}

namespace {
void combine(ReduceOp op, std::span<double> acc,
             std::span<const double> in) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] += in[i]; break;
      case ReduceOp::kMin: acc[i] = std::min(acc[i], in[i]); break;
      case ReduceOp::kMax: acc[i] = std::max(acc[i], in[i]); break;
    }
  }
}
}  // namespace

simkit::Task<void> allreduce(Comm& c, std::span<double> values,
                             ReduceOp op) {
  const int p = c.size();
  if (p == 1) co_return;
  const int tag = c.next_collective_tag();
  const Rank r = c.rank();
  const std::uint64_t bytes = values.size() * sizeof(double);

  // Binomial reduce to rank 0.
  int mask = 1;
  while (mask < p) {
    if (r & mask) {
      co_await c.send(r - mask, tag, bytes, std::as_bytes(values));
      break;
    }
    if (r + mask < p) {
      Message m = co_await c.recv(r + mask, tag);
      assert(m.payload.size() == bytes);
      combine(op, values,
              std::span<const double>(
                  reinterpret_cast<const double*>(m.payload.data()),
                  values.size()));
    }
    mask <<= 1;
  }
  co_await bcast(c, 0, bytes, std::as_writable_bytes(values));
}

}  // namespace mprt
