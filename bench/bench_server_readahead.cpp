// Scenario "server_readahead" — pattern-driven server-side read-ahead
// (iosrv::ReadAheadConfig): hit/waste tradeoff across access patterns.
//
// A client reads a 32 MB file piece by piece in three orders —
// sequential, constant-stride, and shuffled — with read-ahead off and
// on.  The server's PatternTracker only arms prefetching after
// pfs::IoNode::kReadAheadMinRun same-stride accesses per (client, file)
// stream, so:
//   * sequential and strided runs detect quickly and prefetching
//     overlaps disk reads with the request/response path (faster, high
//     prefetch-hit rate, bounded waste),
//   * a shuffled order never forms a run, so read-ahead must do (almost)
//     nothing: no speculation, no waste, unchanged elapsed time — the
//     "first, do no harm" half of the contract.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pfs/fs.hpp"
#include "pfs/ionode.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::uint64_t kPiece = 64 * 1024;
constexpr std::uint64_t kFileMiB = 32;

enum class Pattern : std::size_t { kSequential, kStrided, kRandom };
constexpr const char* kPatternNames[] = {"sequential", "strided", "random"};

struct Result {
  double elapsed = 0.0;
  std::uint64_t disk_reads = 0;
  std::uint64_t ra_issued = 0;
  std::uint64_t ra_hits = 0;  // resident + late (in-flight join)
  std::uint64_t ra_waste = 0;
};

/// The piece visit order for a pattern, deterministic by construction.
std::vector<std::uint64_t> piece_order(Pattern p, std::uint64_t pieces,
                                       std::uint64_t seed) {
  std::vector<std::uint64_t> order(pieces);
  std::iota(order.begin(), order.end(), 0);
  switch (p) {
    case Pattern::kSequential:
      break;
    case Pattern::kStrided: {
      // Lane-major: 0, 4, 8, ..., 1, 5, 9, ... — long constant-stride
      // runs with one stride reset per lane.
      std::vector<std::uint64_t> strided;
      strided.reserve(pieces);
      for (std::uint64_t lane = 0; lane < 4; ++lane) {
        for (std::uint64_t i = lane; i < pieces; i += 4) {
          strided.push_back(i);
        }
      }
      order = std::move(strided);
      break;
    }
    case Pattern::kRandom: {
      // Fisher-Yates with a splitmix-style mixer: reproducible shuffle.
      std::uint64_t s = seed * 0x9E3779B97f4A7C15ULL + 1;
      for (std::uint64_t i = pieces - 1; i > 0; --i) {
        s += 0x9E3779B97f4A7C15ULL;
        std::uint64_t z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        std::swap(order[i], order[(z ^ (z >> 31)) % (i + 1)]);
      }
      break;
    }
  }
  return order;
}

Result run_one(Pattern pattern, bool readahead, double scale,
               std::uint64_t seed) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2);
  cfg.io.server.readahead.enabled = readahead;
  hw::Machine machine(eng, cfg);
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("trace");
  const std::uint64_t pieces = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(
          static_cast<double>((kFileMiB << 20) / kPiece) *
          std::min(scale, 4.0)),
      64);
  const std::vector<std::uint64_t> order =
      piece_order(pattern, pieces, seed);
  Result res;
  eng.spawn([](simkit::Engine& e, hw::Machine& m, pfs::StripedFs& fs,
               pfs::FileId f, const std::vector<std::uint64_t>& order,
               Result& out) -> simkit::Task<void> {
    const auto n = m.compute_node(0);
    const simkit::Time t0 = e.now();
    for (std::uint64_t piece : order) {
      co_await fs.pread(n, f, piece * kPiece, kPiece);
    }
    out.elapsed = e.now() - t0;
    for (std::size_t i = 0; i < fs.io_node_count(); ++i) {
      const pfs::IoNode& node = fs.io_node(i);
      out.disk_reads += node.disk_reads();
      out.ra_issued += node.readahead_issued();
      out.ra_hits += node.readahead_hits() + node.readahead_late_hits();
      out.ra_waste += node.readahead_waste();
    }
  }(eng, machine, fs, f, order, res));
  eng.run();
  return res;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<Result> results =
      ctx.map<Result>(std::size(kPatternNames) * 2, [&](std::size_t i) {
        return run_one(static_cast<Pattern>(i / 2), (i % 2) == 1,
                       opt.scale, opt.seed);
      });
  auto at = [&](Pattern p, bool ra) -> const Result& {
    return results[static_cast<std::size_t>(p) * 2 + (ra ? 1 : 0)];
  };

  expt::Table table({"pattern", "read-ahead", "elapsed (s)", "disk reads",
                     "ra issued", "ra hits", "ra waste"});
  for (std::size_t p = 0; p < std::size(kPatternNames); ++p) {
    for (bool ra : {false, true}) {
      const Result& r = at(static_cast<Pattern>(p), ra);
      table.add_row({kPatternNames[p], ra ? "on" : "off",
                     expt::fmt("%.2f", r.elapsed),
                     expt::fmt_u64(r.disk_reads),
                     expt::fmt_u64(r.ra_issued), expt::fmt_u64(r.ra_hits),
                     expt::fmt_u64(r.ra_waste)});
    }
  }
  ctx.printf(
      "Server read-ahead: hit/waste tradeoff by access pattern "
      "(min_run=%d, degree=%u, budget=%u)\n%s\n",
      pfs::IoNode::kReadAheadMinRun, pfs::IoNode::kReadAheadDegree,
      pfs::IoNode::kReadAheadBudget, ctx.table(table).c_str());

  const Result& seq_off = at(Pattern::kSequential, false);
  const Result& seq_on = at(Pattern::kSequential, true);
  const Result& str_off = at(Pattern::kStrided, false);
  const Result& str_on = at(Pattern::kStrided, true);
  const Result& rnd_off = at(Pattern::kRandom, false);
  const Result& rnd_on = at(Pattern::kRandom, true);
  ctx.expect(seq_on.elapsed < seq_off.elapsed,
             "read-ahead speeds up the sequential scan (" +
                 expt::fmt("%.2f", seq_on.elapsed) + " vs " +
                 expt::fmt("%.2f", seq_off.elapsed) + " s)");
  ctx.expect(str_on.elapsed < str_off.elapsed,
             "read-ahead follows constant strides, not just stride 1");
  ctx.expect(seq_on.ra_hits * 2 > seq_on.ra_issued,
             "most sequential prefetches are used (hit rate > 50%)");
  ctx.expect(seq_on.ra_waste * 5 < seq_on.ra_issued + 1,
             "sequential prefetch waste stays under 20%");
  ctx.expect(rnd_on.ra_issued * 10 < rnd_off.disk_reads + 10,
             "a shuffled order arms (almost) no speculation");
  ctx.expect(rnd_on.elapsed <= rnd_off.elapsed * 1.02,
             "read-ahead does no harm to the random workload (" +
                 expt::fmt("%.2f", rnd_on.elapsed) + " vs " +
                 expt::fmt("%.2f", rnd_off.elapsed) + " s)");
}

const scenario::Registration reg{{
    .name = "server_readahead",
    .title = "I/O-server read-ahead: sequential/strided win, random no-harm",
    .description =
        "Reads one file sequentially, strided, and shuffled with server "
        "read-ahead off and on. --check asserts prefetching speeds up the "
        "detected runs with bounded waste and leaves the random order "
        "untouched (no runs, no speculation, no slowdown).",
    .default_scale = 1.0,
    .grid = {{"pattern", {"sequential", "strided", "random"}},
             {"readahead", {"off", "on"}}},
    .run = run,
}};

}  // namespace
