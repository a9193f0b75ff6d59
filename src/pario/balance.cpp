#include "pario/balance.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "mprt/collectives.hpp"

namespace pario {

namespace {
// SCF 3.0's tolerance: 10% of the mean or 1 MB, whichever is larger.
constexpr double kToleranceFraction = 0.10;
constexpr std::uint64_t kToleranceBytes = 1ULL << 20;
}  // namespace

std::vector<BalanceMove> plan_balance(const std::vector<std::uint64_t>& sizes) {
  const int p = static_cast<int>(sizes.size());
  if (p <= 1) return {};
  const std::uint64_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
  const std::uint64_t mean = total / static_cast<std::uint64_t>(p);
  const std::uint64_t tol = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(kToleranceFraction *
                                 static_cast<double>(mean)),
      kToleranceBytes);

  // Signed imbalance per rank.
  std::vector<std::int64_t> delta(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    delta[i] = static_cast<std::int64_t>(sizes[i]) -
               static_cast<std::int64_t>(mean);
  }

  std::vector<BalanceMove> moves;
  // Greedy: repeatedly move from the biggest surplus to the biggest
  // deficit until everyone is within tolerance.  Deterministic (stable
  // index tie-breaks), terminates because every move strictly reduces the
  // donor's surplus below tolerance or fills the taker.
  for (;;) {
    auto donor = std::max_element(delta.begin(), delta.end());
    auto taker = std::min_element(delta.begin(), delta.end());
    if (*donor <= static_cast<std::int64_t>(tol) &&
        -*taker <= static_cast<std::int64_t>(tol)) {
      break;
    }
    const std::int64_t amount = std::min(*donor, -*taker);
    assert(amount > 0);
    moves.push_back(BalanceMove{
        static_cast<int>(donor - delta.begin()),
        static_cast<int>(taker - delta.begin()),
        static_cast<std::uint64_t>(amount)});
    *donor -= amount;
    *taker += amount;
  }
  return moves;
}

simkit::Task<std::vector<std::uint64_t>> balance_files(
    mprt::Comm& comm, pfs::StripedFs& fs, pfs::FileId my_file) {
  const int p = comm.size();
  const int r = comm.rank();

  // Gather sizes, plan at rank 0, broadcast the plan.
  std::uint64_t my_size = fs.file_size(my_file);
  auto size_msgs = co_await mprt::gatherv(
      comm, 0, 8,
      std::span<const std::byte>(reinterpret_cast<std::byte*>(&my_size), 8));
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(p), 0);
  std::vector<BalanceMove> moves;
  if (r == 0) {
    for (int i = 0; i < p; ++i) {
      std::memcpy(&sizes[static_cast<std::size_t>(i)],
                  size_msgs[static_cast<std::size_t>(i)].payload.data(), 8);
    }
    moves = plan_balance(sizes);
  }
  // Serialize sizes + moves: [P sizes][n_moves][(from,to,bytes)...].
  std::vector<std::byte> plan;
  if (r == 0) {
    const std::uint64_t n_moves = moves.size();
    plan.resize(static_cast<std::size_t>(p) * 8 + 8 + moves.size() * 24);
    std::memcpy(plan.data(), sizes.data(), static_cast<std::size_t>(p) * 8);
    std::memcpy(plan.data() + static_cast<std::size_t>(p) * 8, &n_moves, 8);
    for (std::size_t i = 0; i < moves.size(); ++i) {
      std::uint64_t rec[3] = {static_cast<std::uint64_t>(moves[i].from),
                              static_cast<std::uint64_t>(moves[i].to),
                              moves[i].bytes};
      std::memcpy(plan.data() + static_cast<std::size_t>(p) * 8 + 8 + i * 24,
                  rec, 24);
    }
  }
  std::uint64_t plan_size = plan.size();
  co_await mprt::bcast(
      comm, 0, 8,
      std::span<std::byte>(reinterpret_cast<std::byte*>(&plan_size), 8));
  plan.resize(plan_size);
  co_await mprt::bcast(comm, 0, plan_size, plan);
  if (r != 0) {
    std::memcpy(sizes.data(), plan.data(), static_cast<std::size_t>(p) * 8);
    std::uint64_t n_moves = 0;
    std::memcpy(&n_moves, plan.data() + static_cast<std::size_t>(p) * 8, 8);
    moves.resize(n_moves);
    for (std::size_t i = 0; i < n_moves; ++i) {
      std::uint64_t rec[3];
      std::memcpy(rec,
                  plan.data() + static_cast<std::size_t>(p) * 8 + 8 + i * 24,
                  24);
      moves[i] = BalanceMove{static_cast<int>(rec[0]),
                             static_cast<int>(rec[1]), rec[2]};
    }
  }

  // Execute: donors read their tail and send; takers receive and append.
  // Moves are executed in plan order with per-move tags so concurrent
  // pairs do not interfere.
  std::vector<std::uint64_t> new_sizes = sizes;
  constexpr int kBalanceTag = 1 << 19;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const auto& mv = moves[i];
    const auto from = static_cast<std::size_t>(mv.from);
    const auto to = static_cast<std::size_t>(mv.to);
    if (r == mv.from) {
      // Donate the current tail of my private file, then shrink it.
      co_await fs.pread(comm.node(), my_file, new_sizes[from] - mv.bytes,
                        mv.bytes);
      co_await comm.send(mv.to, kBalanceTag + static_cast<int>(i), mv.bytes);
      co_await fs.truncate(comm.node(), my_file, new_sizes[from] - mv.bytes);
    } else if (r == mv.to) {
      (void)co_await comm.recv(mv.from, kBalanceTag + static_cast<int>(i));
      co_await fs.pwrite(comm.node(), my_file, new_sizes[to], mv.bytes);
    }
    // Everyone tracks the bookkeeping so offsets stay consistent.
    new_sizes[from] -= mv.bytes;
    new_sizes[to] += mv.bytes;
  }
  co_await mprt::barrier(comm);
  co_return new_sizes;
}

}  // namespace pario
