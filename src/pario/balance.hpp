// pario/balance.hpp — balanced I/O (SCF 3.0's file-size balancing).
//
// After the first SCF iteration each process has written a private
// integral file whose size depends on which integrals it happened to
// evaluate.  Subsequent iterations read the files in lock-step, so the
// largest file gates every iteration.  SCF 3.0 balances the file sizes
// after the write phase — "currently to within 10% or 1 MB, whichever is
// larger" — by shipping excess integral records from overfull to
// underfull processes.  This module implements that redistribution as a
// real collective: plan at rank 0, broadcast, pairwise transfers with the
// file I/O priced through the file system.
#pragma once

#include <cstdint>
#include <vector>

#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "simkit/task.hpp"

namespace pario {

struct BalanceMove {
  int from = 0;
  int to = 0;
  std::uint64_t bytes = 0;
  bool operator==(const BalanceMove&) const = default;
};

/// Pure planning: compute the moves that bring `sizes` within
/// max(10% of the mean, 1 MB) of the mean.  Deterministic greedy
/// matching of the largest donor with the neediest taker.
std::vector<BalanceMove> plan_balance(const std::vector<std::uint64_t>& sizes);

/// Collective: balance the per-rank private files `my_file` (one per
/// rank).  Returns every rank's post-balance file size.
simkit::Task<std::vector<std::uint64_t>> balance_files(
    mprt::Comm& comm, pfs::StripedFs& fs, pfs::FileId my_file);

}  // namespace pario
