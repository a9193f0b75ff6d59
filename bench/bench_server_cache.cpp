// Scenario "server_cache_policy" — pluggable I/O-server cache
// replacement (iosrv::CachePolicy): LRU vs ARC across the five paper
// applications' reuse textures (DESIGN.md §13).
//
// Each app-inspired workload runs twice on the same machine, differing
// only in cfg.io.server.policy.  The interesting rows are the mixed
// ones: a re-read working set periodically polluted by a streaming scan
// (SCF's integral re-reads vs another tenant's dump) is exactly the
// pattern ARC's ghost-list adaptation protects and plain LRU does not.
// Pure streams (Hartree dump, seismic trace scan) have no reuse for any
// policy to exploit — both should sit near zero hits, and the check
// pins that no-free-lunch shape too.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::uint64_t kMiB = 1ULL << 20;
constexpr std::uint64_t kPiece = 64 * 1024;  // one stripe unit per request

struct Result {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double elapsed = 0.0;

  double hit_rate() const {
    const double total =
        static_cast<double>(hits) + static_cast<double>(misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Deterministic 64-bit mix for the synthetic access sequences (no
/// engine RNG: the sequence is part of the workload definition).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

simkit::Task<void> read_span(pfs::StripedFs& fs, hw::NodeId n,
                             pfs::FileId f, std::uint64_t offset,
                             std::uint64_t len) {
  for (std::uint64_t off = offset; off < offset + len; off += kPiece) {
    co_await fs.pread(n, f, off, kPiece);
  }
}

// -- the five reuse textures ----------------------------------------------

/// SCF: a hot integral file re-read every iteration, with a cold 16 MB
/// scan (another tenant's dump being read back) interleaved every other
/// iteration.  The hot set (1.5 MB = 12 blocks per node) fits the 2 MB
/// server caches; the scan is 8x them, so LRU loses the hot set to
/// every scan while ARC's frequency list keeps it resident.
simkit::Task<void> wl_scf(pfs::StripedFs& fs, hw::NodeId n, int iters) {
  const pfs::FileId hot = fs.create("scf.hot");
  const pfs::FileId cold = fs.create("scf.cold");
  const std::uint64_t hot_bytes = 3 * kMiB / 2;
  co_await read_span(fs, n, hot, 0, hot_bytes);  // cold prime pass
  for (int i = 0; i < iters; ++i) {
    co_await read_span(fs, n, hot, 0, hot_bytes);
    if (i % 2 == 1) co_await read_span(fs, n, cold, 0, 16 * kMiB);
  }
}

/// FFT: strided 8 KB transpose writes over 16 MB, flush, then two
/// sequential re-read passes.
simkit::Task<void> wl_fft(pfs::StripedFs& fs, hw::NodeId n, int iters) {
  const pfs::FileId f = fs.create("fft");
  for (int it = 0; it < iters; ++it) {
    for (std::uint64_t i = 0; i < 2048; ++i) {
      co_await fs.pwrite(n, f, i * 8192, 8192);
    }
    co_await fs.fsync(n, f);
    co_await read_span(fs, n, f, 0, 16 * kMiB);
    co_await read_span(fs, n, f, 0, 16 * kMiB);
  }
}

/// AST: skewed random reads — 3 of 4 accesses go to a hot 2 MB subset
/// of a 32 MB orbital file, the rest anywhere.  ARC's frequency list
/// should keep the hot subset resident through the uniform noise.
simkit::Task<void> wl_ast(pfs::StripedFs& fs, hw::NodeId n, int iters) {
  const pfs::FileId f = fs.create("ast");
  const std::uint64_t pieces = 32 * kMiB / kPiece;
  const std::uint64_t hot_pieces = 2 * kMiB / kPiece;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(iters); ++i) {
    const std::uint64_t r = mix(i);
    const std::uint64_t piece = (r % 4 != 0)
                                    ? (r / 7) % hot_pieces
                                    : (r / 7) % pieces;
    co_await fs.pread(n, f, piece * kPiece, kPiece);
  }
}

/// Hartree-Fock: a pure sequential dump (write-behind absorbs it); no
/// block is ever revisited.
simkit::Task<void> wl_hartree(pfs::StripedFs& fs, hw::NodeId n, int iters) {
  const pfs::FileId f = fs.create("hartree");
  const std::uint64_t bytes = 16 * kMiB * static_cast<unsigned>(iters);
  for (std::uint64_t off = 0; off < bytes; off += kPiece) {
    co_await fs.pwrite(n, f, off, kPiece);
  }
  co_await fs.fsync(n, f);
}

/// Seismic: one pass over a trace file far larger than the caches.
simkit::Task<void> wl_seismic(pfs::StripedFs& fs, hw::NodeId n, int iters) {
  const pfs::FileId f = fs.create("seismic");
  co_await read_span(fs, n, f, 0,
                     32 * kMiB * static_cast<unsigned>(iters));
}

struct App {
  const char* name;
  simkit::Task<void> (*body)(pfs::StripedFs&, hw::NodeId, int);
  int iters;  // at scale 1.0
};

constexpr App kApps[] = {
    {"scf_reread", wl_scf, 6},
    {"fft_transpose", wl_fft, 2},
    {"ast_orbitals", wl_ast, 3000},
    {"hartree_dump", wl_hartree, 2},
    {"seismic_stream", wl_seismic, 2},
};

Result run_one(const App& app, iosrv::PolicyKind policy, double scale) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2);
  cfg.io.server.policy = policy;
  hw::Machine machine(eng, cfg);
  pfs::StripedFs fs(machine);
  const int iters =
      std::max(1, static_cast<int>(app.iters * std::min(scale, 4.0)));
  Result res;
  eng.spawn([](simkit::Engine& e, hw::Machine& m, pfs::StripedFs& fs,
               const App& app, int iters, Result& out)
                -> simkit::Task<void> {
    const simkit::Time t0 = e.now();
    co_await app.body(fs, m.compute_node(0), iters);
    out.elapsed = e.now() - t0;
    for (std::size_t i = 0; i < fs.io_node_count(); ++i) {
      const iosrv::CachePolicy& c = fs.io_node(i).cache();
      out.hits += c.hits();
      out.misses += c.misses();
      out.evictions += c.evictions();
    }
  }(eng, machine, fs, app, iters, res));
  eng.run();
  return res;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();
  constexpr iosrv::PolicyKind kPolicies[] = {iosrv::PolicyKind::kLru,
                                             iosrv::PolicyKind::kArc};

  const std::vector<Result> results = ctx.map<Result>(
      std::size(kApps) * std::size(kPolicies), [&](std::size_t i) {
        return run_one(kApps[i / std::size(kPolicies)],
                       kPolicies[i % std::size(kPolicies)], opt.scale);
      });
  auto at = [&](std::size_t app, std::size_t pol) -> const Result& {
    return results[app * std::size(kPolicies) + pol];
  };

  expt::Table table({"app", "policy", "hits", "misses", "hit %",
                     "evictions", "client time (s)"});
  for (std::size_t a = 0; a < std::size(kApps); ++a) {
    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      const Result& r = at(a, p);
      table.add_row({kApps[a].name,
                     std::string(iosrv::to_string(kPolicies[p])),
                     expt::fmt_u64(r.hits), expt::fmt_u64(r.misses),
                     expt::fmt("%.1f", 100.0 * r.hit_rate()),
                     expt::fmt_u64(r.evictions),
                     expt::fmt("%.2f", r.elapsed)});
    }
  }
  std::uint64_t lru_total = 0, arc_total = 0;
  for (std::size_t a = 0; a < std::size(kApps); ++a) {
    lru_total += at(a, 0).hits;
    arc_total += at(a, 1).hits;
  }
  ctx.printf(
      "Server cache replacement: LRU vs ARC over the five apps' reuse "
      "patterns (2 I/O nodes, 2 MB cache each)\n%s\n",
      ctx.table(table).c_str());
  ctx.printf("Aggregate hits: lru %llu, arc %llu\n\n",
             static_cast<unsigned long long>(lru_total),
             static_cast<unsigned long long>(arc_total));

  const Result& scf_lru = at(0, 0);
  const Result& scf_arc = at(0, 1);
  const Result& ast_lru = at(2, 0);
  const Result& ast_arc = at(2, 1);
  ctx.expect(arc_total > lru_total,
             "ARC wins aggregate hits over the app mix (" +
                 expt::fmt_u64(arc_total) + " vs " +
                 expt::fmt_u64(lru_total) + ")");
  ctx.expect(scf_arc.hit_rate() > scf_lru.hit_rate(),
             "ARC protects the scan-polluted SCF re-read set (" +
                 expt::fmt("%.1f", 100.0 * scf_arc.hit_rate()) +
                 "% vs " +
                 expt::fmt("%.1f", 100.0 * scf_lru.hit_rate()) + "%)");
  ctx.expect(scf_arc.elapsed < scf_lru.elapsed,
             "the SCF hit-rate win shows up in client time");
  ctx.expect(ast_arc.hit_rate() > ast_lru.hit_rate(),
             "ARC's frequency list wins on skewed random reads");
  for (std::size_t a : {std::size_t{3}, std::size_t{4}}) {
    ctx.expect(at(a, 0).hit_rate() < 0.05 && at(a, 1).hit_rate() < 0.05,
               std::string(kApps[a].name) +
                   ": pure streams have no reuse for either policy");
  }
  ctx.expect(scf_lru.evictions > 0 && scf_arc.evictions > 0,
             "eviction accounting is live for both policies");
}

const scenario::Registration reg{{
    .name = "server_cache_policy",
    .title = "I/O-server cache replacement: LRU vs ARC over app reuse mixes",
    .description =
        "Runs five app-inspired reuse textures (SCF scan-polluted re-reads, "
        "FFT transpose, AST skewed random, Hartree dump, seismic stream) "
        "under LRU and ARC server caches. --check asserts ARC wins where "
        "reuse meets pollution and that pure streams give neither policy "
        "anything.",
    .default_scale = 1.0,
    .grid = {{"app",
              {"scf_reread", "fft_transpose", "ast_orbitals", "hartree_dump",
               "seismic_stream"}},
             {"policy", {"lru", "arc"}}},
    .run = run,
}};

}  // namespace
