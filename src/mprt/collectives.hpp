// mprt/collectives.hpp — collective operations over point-to-point.
//
// Real algorithms (MPICH-style binomial trees, dissemination barrier,
// shifted pairwise exchange), so collective cost scales with log P or P
// exactly as it did on the paper's machines.  All ranks must call each
// collective in the same order (SPMD), which keeps the internal tag
// sequence aligned.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mprt/comm.hpp"
#include "simkit/task.hpp"

namespace mprt {

/// Dissemination barrier: ceil(log2 P) rounds, works for any P.
simkit::Task<void> barrier(Comm& c);

/// Binomial-tree broadcast of `bytes` from `root`.  If `buf` is non-empty
/// (size == bytes) it carries real content: the root's bytes arrive in
/// every rank's buf.
simkit::Task<void> bcast(Comm& c, Rank root, std::uint64_t bytes,
                         std::span<std::byte> buf = {});

/// Gather per-rank blocks to `root`.  Returns P messages indexed by rank
/// at the root (self included); empty vector elsewhere.
simkit::Task<std::vector<Message>> gatherv(
    Comm& c, Rank root, std::uint64_t my_bytes,
    std::span<const std::byte> payload = {});

/// One block of a personalized all-to-all: `bytes` simulated bytes for
/// rank `dst`, with `payload` as real content (empty, or at most `bytes`
/// long, as for Comm::send).
struct Outgoing {
  Rank dst = -1;
  std::uint64_t bytes = 0;
  std::vector<std::byte> payload;
};

/// Personalized all-to-all over sparse lists.  `sends` holds this rank's
/// blocks, `dst` ascending and unique, `bytes > 0`, its block to itself
/// included; any other list throws std::invalid_argument (an O(blocks)
/// check, on in every build).  Returns only the messages with bytes > 0
/// addressed to this rank, ascending by source, its own included.
///
/// Routing follows the cluster's CollectiveTopology: kFlat is the
/// historical shifted pairwise exchange (P messages per rank, an empty
/// envelope for a pair with no block), kTwoLevel routes through group
/// leaders (~2P + A^2 messages total for A groups).  Both deliver
/// identical lists; only message counts and timing differ.  Wire traffic
/// is metered as mprt.alltoall.msgs / mprt.alltoall.bytes when a metrics
/// registry is installed.  `sends` is taken BY VALUE: a coroutine must
/// not bind references to caller temporaries.
simkit::Task<std::vector<Message>> alltoallv(Comm& c,
                                             std::vector<Outgoing> sends);

/// Effective kTwoLevel group width W for a P-rank cluster: the
/// topology's group_size clamped to [1, P], or ceil(sqrt(P)) when it is
/// 0.  The group leaders are ranks 0, W, 2W, ...; they are also the
/// aggregators of the hierarchical two-phase I/O path (pario::TwoPhase
/// under a kTwoLevel topology).
int two_level_group_width(int p, const CollectiveTopology& t);

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

/// Allreduce over doubles (binomial reduce to rank 0, then broadcast).
simkit::Task<void> allreduce(Comm& c, std::span<double> values, ReduceOp op);

}  // namespace mprt
