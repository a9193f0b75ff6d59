#include "pario/twophase.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <utility>

#include "metrics/metrics.hpp"
#include "mprt/collectives.hpp"

namespace pario {
namespace {

/// Registry instruments for one collective call (pario.twophase.*); all
/// null when metrics are off.  Resolved at call entry because TwoPhase is
/// stateless — there is no constructor to cache handles in.
struct TpMeters {
  TpMeters() {
    if (metrics::Registry* r = metrics::current()) {
      io_s = &r->histogram("pario.twophase.io_s");
      exchange_s = &r->histogram("pario.twophase.exchange_s");
      io_calls = &r->counter("pario.twophase.io_calls");
      io_bytes = &r->counter("pario.twophase.io_bytes");
    }
  }
  metrics::Histogram* io_s = nullptr;
  metrics::Histogram* exchange_s = nullptr;
  metrics::Counter* io_calls = nullptr;
  metrics::Counter* io_bytes = nullptr;
};

/// One timed span of phase 2 (metadata, request, or data exchange).
void note_exchange(TwoPhaseStats* stats, const TpMeters& m,
                   simkit::Duration d) {
  if (stats) stats->exchange_time += d;
  if (m.exchange_s) m.exchange_s->observe(d);
}

// ---------------------------------------------------------------------------
// Wire formats.  The flat plan's replicated table carries bare 16-byte
// (file_offset, length) pairs; the hierarchical plan ships each piece list
// inline as a count-prefixed record, [n u64][n pairs], ahead of the data.
// ---------------------------------------------------------------------------

void put_pairs(std::vector<std::byte>& out, const std::vector<Extent>& v) {
  const std::size_t at = out.size();
  out.resize(at + v.size() * 16);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t pair[2] = {v[i].file_offset, v[i].length};
    std::memcpy(out.data() + at + i * 16, pair, 16);
  }
}

std::vector<Extent> get_pairs(std::span<const std::byte> bytes,
                              std::size_t n) {
  std::vector<Extent> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t pair[2];
    std::memcpy(pair, bytes.data() + i * 16, 16);
    v[i] = Extent{pair[0], pair[1], 0};
  }
  return v;
}

std::vector<std::byte> encode_records(const std::vector<Extent>& subs) {
  std::vector<std::byte> out(8);
  const std::uint64_t n = subs.size();
  std::memcpy(out.data(), &n, 8);
  put_pairs(out, subs);
  return out;
}

std::vector<Extent> decode_records(std::span<const std::byte> pay) {
  if (pay.size() < 8) return {};
  std::uint64_t n = 0;
  std::memcpy(&n, pay.data(), 8);
  if (pay.size() < 8 + n * 16) return {};
  return get_pairs(pay.subspan(8), static_cast<std::size_t>(n));
}

/// Byte offset where data begins inside a records+data payload.
std::size_t records_size(const std::vector<Extent>& recs) {
  return 8 + recs.size() * 16;
}

// ---------------------------------------------------------------------------
// Metadata step: agree on the accessed range and who owns which part.
// ---------------------------------------------------------------------------

/// Every rank's sorted pieces in one array: rank s's pieces are
/// extents[rows[s], rows[s + 1]).
struct ExtentTable {
  std::vector<std::size_t> rows;  // P + 1 offsets into `extents`
  std::vector<Extent> extents;

  std::span<const Extent> of(std::size_t s) const {
    return std::span<const Extent>(extents).subspan(rows[s],
                                                    rows[s + 1] - rows[s]);
  }
};

/// Every rank learns every rank's (sorted) piece list: gatherv to rank 0
/// plus a broadcast of [P x u64 counts][all pairs] — the same global-view
/// step MPI-IO implementations perform.
simkit::Task<ExtentTable> allgather_extents(mprt::Comm& c,
                                            const std::vector<Extent>& mine) {
  const auto p = static_cast<std::size_t>(c.size());
  std::vector<std::byte> my_bytes;
  put_pairs(my_bytes, mine);
  auto gathered = co_await mprt::gatherv(c, 0, my_bytes.size(), my_bytes);

  std::vector<std::byte> table;
  if (c.rank() == 0) {
    table.resize(p * 8);
    for (std::size_t r = 0; r < p; ++r) {
      const std::uint64_t n = gathered[r].payload.size() / 16;
      std::memcpy(table.data() + r * 8, &n, 8);
    }
    for (const auto& m : gathered) {
      table.insert(table.end(), m.payload.begin(), m.payload.end());
    }
  }
  std::uint64_t table_size = table.size();
  std::span<std::byte> size_view(reinterpret_cast<std::byte*>(&table_size),
                                 8);
  co_await mprt::bcast(c, 0, 8, size_view);
  table.resize(table_size);
  co_await mprt::bcast(c, 0, table_size, table);

  ExtentTable all;
  all.rows.resize(p + 1);
  for (std::size_t r = 0; r < p; ++r) {
    std::uint64_t n = 0;
    std::memcpy(&n, table.data() + r * 8, 8);
    all.rows[r + 1] = all.rows[r] + n;
  }
  all.extents =
      get_pairs(std::span<const std::byte>(table).subspan(p * 8), all.rows[p]);
  co_return all;
}

/// Global [lo, hi) of the collective access without the replicated extent
/// table: an allreduce of {min offset, -max end} under kMin.  Offsets ride
/// as doubles (exact below 2^53 — far beyond any simulated file).
simkit::Task<std::pair<std::uint64_t, std::uint64_t>> reduce_bounds(
    mprt::Comm& c, const std::vector<Extent>& mine) {
  double vals[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (const auto& e : mine) {
    vals[0] = std::min(vals[0], static_cast<double>(e.file_offset));
    vals[1] = std::min(vals[1], -static_cast<double>(e.file_end()));
  }
  std::span<double> view(vals, 2);
  co_await mprt::allreduce(c, view, mprt::ReduceOp::kMin);
  std::pair<std::uint64_t, std::uint64_t> bounds{0, 0};
  if (std::isfinite(vals[0])) {
    bounds = {static_cast<std::uint64_t>(vals[0]),
              static_cast<std::uint64_t>(-vals[1])};
  }
  co_return bounds;
}

struct Domains {
  std::uint64_t lo = 0;
  std::uint64_t chunk = 0;  // size of each file domain; 0 = nothing to do
  std::uint64_t hi = 0;

  std::pair<std::uint64_t, std::uint64_t> of(int domain) const {
    const std::uint64_t d_lo =
        lo + chunk * static_cast<std::uint64_t>(domain);
    return {std::min(d_lo, hi), std::min(d_lo + chunk, hi)};
  }
};

Domains make_domains(std::uint64_t lo, std::uint64_t hi, int n,
                     std::uint64_t stripe_unit) {
  if (hi <= lo) return {0, 0, 0};
  // Stripe-aligned domains keep each aggregator talking to a stable
  // subset of I/O nodes.
  std::uint64_t chunk = (hi - lo + static_cast<std::uint64_t>(n) - 1) /
                        static_cast<std::uint64_t>(n);
  chunk = (chunk + stripe_unit - 1) / stripe_unit * stripe_unit;
  return {lo, chunk, hi};
}

/// The per-call plan.  File domain a belongs to rank a * width: width 1
/// on the flat plan (ranks past the aggregator count own empty domains),
/// the leader-group width under kTwoLevel, where the group leaders
/// aggregate.  The flat plan learns each source's pieces from the
/// replicated extent table; the hierarchical plan ships them inline as
/// records, so only there does a read need a request round first.
struct Plan {
  Domains dom;
  int naggs = 0;
  int width = 1;
  bool records = false;
  ExtentTable table;  // flat: every rank's pieces
};

/// Sorts my pieces and runs the metadata step both directions share.
simkit::Task<Plan> make_plan(mprt::Comm& comm, pfs::StripedFs& fs,
                             pfs::FileId file, std::vector<Extent>& mine,
                             int aggregators, TwoPhaseStats* stats,
                             const TpMeters& m) {
  simkit::Engine& eng = comm.engine();
  const int p = comm.size();
  std::sort(mine.begin(), mine.end(), [](const Extent& a, const Extent& b) {
    return a.file_offset != b.file_offset ? a.file_offset < b.file_offset
                                          : a.buf_offset < b.buf_offset;
  });
  const simkit::Time t_meta = eng.now();
  Plan plan;
  std::pair<std::uint64_t, std::uint64_t> bounds{~std::uint64_t{0}, 0};
  if (comm.topology().kind == mprt::CollectiveTopology::Kind::kTwoLevel) {
    // The topology's group leaders aggregate; `aggregators` is superseded.
    plan.width = mprt::two_level_group_width(p, comm.topology());
    plan.naggs = (p + plan.width - 1) / plan.width;
    plan.records = true;
    bounds = co_await reduce_bounds(comm, mine);
  } else {
    plan.table = co_await allgather_extents(comm, mine);
    plan.naggs = aggregators > 0 && aggregators <= p ? aggregators : p;
    for (const auto& e : plan.table.extents) {
      bounds.first = std::min(bounds.first, e.file_offset);
      bounds.second = std::max(bounds.second, e.file_end());
    }
  }
  plan.dom = make_domains(bounds.first, bounds.second, plan.naggs,
                          fs.stripe_map(file).stripe_unit());
  note_exchange(stats, m, eng.now() - t_meta);
  co_return plan;
}

/// Piece lists keyed by peer rank, holding only non-empty lists.
using PeerPieces = std::vector<std::pair<mprt::Rank, std::vector<Extent>>>;

/// My pieces cut by file domain, keyed by the owning aggregator.
PeerPieces by_domain(const Plan& plan, const std::vector<Extent>& mine) {
  PeerPieces out;
  for (int a = 0; a < plan.naggs; ++a) {
    const auto [lo, hi] = plan.dom.of(a);
    auto subs = TwoPhase::intersect(mine, lo, hi);
    if (!subs.empty()) out.emplace_back(a * plan.width, std::move(subs));
  }
  return out;
}

/// Each source's pieces inside this rank's file domain: decoded from the
/// records that arrived inline in `in`, one message per source, or cut
/// from the replicated table, which every rank then releases.
PeerPieces by_source(Plan& plan, const mprt::Comm& comm,
                     const std::vector<mprt::Message>& in) {
  const ExtentTable table = std::move(plan.table);
  PeerPieces out;
  if (comm.rank() % plan.width != 0) return out;  // not an aggregator
  const auto [lo, hi] = plan.dom.of(comm.rank() / plan.width);
  const std::size_t n = plan.records ? in.size() : table.rows.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const mprt::Rank s = plan.records ? in[i].src : static_cast<mprt::Rank>(i);
    auto subs = plan.records ? decode_records(in[i].payload)
                             : TwoPhase::intersect(table.of(i), lo, hi);
    if (!subs.empty()) out.emplace_back(s, std::move(subs));
  }
  return out;
}

/// What `src` sent in an alltoallv result; empty if it sent no bytes.
std::span<const std::byte> payload_from(const std::vector<mprt::Message>& in,
                                        mprt::Rank src) {
  const auto it = std::lower_bound(
      in.begin(), in.end(), src,
      [](const mprt::Message& m, mprt::Rank s) { return m.src < s; });
  if (it == in.end() || it->src != src) return {};
  return it->payload;
}

/// Merged runs covering every source's pieces.
std::vector<Extent> runs_of(const PeerPieces& sources) {
  std::vector<Extent> pieces;
  for (const auto& [src, subs] : sources) {
    pieces.insert(pieces.end(), subs.begin(), subs.end());
  }
  return TwoPhase::merge_runs(std::move(pieces));
}

/// One buffer per merged run, zero-filled when the file is backed (and
/// empty otherwise): a read that breaks off after a failed run still
/// packs valid bytes from the runs it never read.
std::vector<std::vector<std::byte>> run_buffers(
    const std::vector<Extent>& runs, bool backed) {
  std::vector<std::vector<std::byte>> bufs(runs.size());
  if (backed) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      bufs[i].resize(runs[i].length);
    }
  }
  return bufs;
}

/// Where `sub` sits inside the buffer of the merged run that holds it.
std::byte* run_bytes(const std::vector<Extent>& runs,
                     std::vector<std::vector<std::byte>>& bufs,
                     const Extent& sub) {
  auto it = std::upper_bound(runs.begin(), runs.end(), sub.file_offset,
                             [](std::uint64_t off, const Extent& r) {
                               return off < r.file_offset;
                             });
  const auto i = static_cast<std::size_t>(std::prev(it) - runs.begin());
  return bufs[i].data() + (sub.file_offset - runs[i].file_offset);
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

/// Ships my per-domain pieces to their aggregators: the records when they
/// travel inline, then the data bytes when `data` is non-empty.  A write
/// counts its data bytes in the simulated size even when timing-only; a
/// read's request round sends the records alone.
simkit::Task<std::vector<mprt::Message>> to_aggregators(
    mprt::Comm& comm, const Plan& plan, const PeerPieces& mine,
    std::span<const std::byte> data, bool write) {
  std::vector<mprt::Outgoing> sends;
  std::uint64_t packed = 0;
  for (const auto& [dst, subs] : mine) {
    std::vector<std::byte> buf;
    if (plan.records) buf = encode_records(subs);
    const std::uint64_t bytes = total_length(subs);
    if (!data.empty()) {
      buf.reserve(buf.size() + bytes);
      for (const auto& s : subs) {
        buf.insert(buf.end(), data.begin() + s.buf_offset,
                   data.begin() + s.buf_offset + s.length);
      }
    }
    const std::uint64_t sim =
        (plan.records ? records_size(subs) : 0) + (write ? bytes : 0);
    sends.push_back({dst, sim, std::move(buf)});
    packed += sim;
  }
  co_await comm.machine().mem_copy(packed);  // pack pass
  // By value, moved: a temporary vector passed through co_await trips a
  // GCC 12 coroutine temporary-lifetime bug.
  co_return co_await mprt::alltoallv(comm, std::move(sends));
}

/// Phase 1: one large file-system call per merged run, moving real bytes
/// through `bufs` (see run_buffers).  When a retry policy runs dry the
/// IoError is returned, not thrown, so the caller completes the message
/// protocol first (no rank deadlocks inside the collective) and the
/// unread runs keep their zeroes, which the caller discards.
simkit::Task<std::exception_ptr> io_phase(
    mprt::Comm& comm, pfs::StripedFs& fs, pfs::FileId file, bool write,
    const std::vector<Extent>& runs,
    std::vector<std::vector<std::byte>>& bufs, TwoPhaseStats* stats,
    const TpMeters& m, const TwoPhaseOptions& opt) {
  simkit::Engine& eng = comm.engine();
  const simkit::Time t_io = eng.now();
  std::exception_ptr deferred;  // see TwoPhaseOptions::retry
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Extent& run = runs[i];
    const std::span<std::byte> view = bufs[i];
    if (opt.retry) {
      try {
        if (write) {
          co_await resilient_pwrite(fs, comm.node(), file, run.file_offset,
                                    run.length, view, *opt.retry,
                                    opt.retry_stats);
        } else {
          co_await resilient_pread(fs, comm.node(), file, run.file_offset,
                                   run.length, view, *opt.retry,
                                   opt.retry_stats);
        }
      } catch (const pfs::IoError&) {
        deferred = std::current_exception();
        break;  // abandon my domain; complete the protocol
      }
    } else if (write) {
      co_await fs.pwrite(comm.node(), file, run.file_offset, run.length,
                         view);
    } else {
      co_await fs.pread(comm.node(), file, run.file_offset, run.length, view);
    }
    if (stats) {
      ++stats->io_calls;
      stats->io_bytes += run.length;
    }
    if (m.io_calls) {
      m.io_calls->inc();
      m.io_bytes->inc(run.length);
    }
  }
  if (stats) stats->io_time += eng.now() - t_io;
  if (m.io_s) m.io_s->observe(eng.now() - t_io);
  co_return deferred;
}

}  // namespace

std::vector<Extent> TwoPhase::intersect(std::span<const Extent> pieces,
                                        std::uint64_t lo, std::uint64_t hi) {
  std::vector<Extent> out;
  for (const auto& e : pieces) {
    const std::uint64_t s = std::max(e.file_offset, lo);
    const std::uint64_t t = std::min(e.file_end(), hi);
    if (s < t) {
      out.push_back(Extent{s, t - s, e.buf_offset + (s - e.file_offset)});
    }
  }
  return out;
}

std::vector<Extent> TwoPhase::merge_runs(std::vector<Extent> pieces) {
  if (pieces.empty()) return pieces;
  std::sort(pieces.begin(), pieces.end(),
            [](const Extent& a, const Extent& b) {
              return a.file_offset < b.file_offset;
            });
  std::vector<Extent> out;
  out.push_back(Extent{pieces[0].file_offset, pieces[0].length, 0});
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    Extent& last = out.back();
    if (pieces[i].file_offset <= last.file_end()) {
      last.length = std::max(last.file_end(), pieces[i].file_end()) -
                    last.file_offset;
    } else {
      out.push_back(Extent{pieces[i].file_offset, pieces[i].length, 0});
    }
  }
  return out;
}

simkit::Task<void> TwoPhase::write(mprt::Comm& comm, pfs::StripedFs& fs,
                                   pfs::FileId file, std::vector<Extent> mine,
                                   std::span<const std::byte> local_data,
                                   TwoPhaseStats* stats,
                                   TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  Plan plan = co_await make_plan(comm, fs, file, mine, options.aggregators,
                                 stats, m);
  if (plan.dom.chunk == 0) co_return;  // every rank agrees

  // ---- exchange phase: my pieces to their domain owners ---------------
  const simkit::Time t_x = eng.now();
  const PeerPieces my_domains = by_domain(plan, mine);
  const auto received =
      co_await to_aggregators(comm, plan, my_domains, local_data, true);

  // Aggregator side: assemble the domain's runs from each source.  Data
  // handling keys off the FILE being backed, not this rank's own buffer:
  // a rank with no pieces of its own may still own a domain.
  const bool backed = fs.is_backed(file);
  const PeerPieces sources = by_source(plan, comm, received);
  const std::vector<Extent> runs = runs_of(sources);
  auto run_bufs = run_buffers(runs, backed);
  std::uint64_t unpacked = 0;
  for (const auto& [src, subs] : sources) {
    const auto pay = payload_from(received, src);
    std::size_t cursor = plan.records ? records_size(subs) : 0;
    for (const auto& sub : subs) {
      if (backed && pay.size() >= cursor + sub.length) {
        std::memcpy(run_bytes(runs, run_bufs, sub), pay.data() + cursor,
                    sub.length);
      }
      cursor += sub.length;
      unpacked += sub.length;
    }
  }
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  note_exchange(stats, m, eng.now() - t_x);

  // ---- I/O phase: write the domain in large runs -----------------------
  const std::exception_ptr deferred = co_await io_phase(
      comm, fs, file, true, runs, run_bufs, stats, m, options);
  co_await mprt::barrier(comm);  // collective completion
  if (deferred) std::rethrow_exception(deferred);
}

simkit::Task<void> TwoPhase::read(mprt::Comm& comm, pfs::StripedFs& fs,
                                  pfs::FileId file, std::vector<Extent> mine,
                                  std::span<std::byte> local_out,
                                  TwoPhaseStats* stats,
                                  TwoPhaseOptions options) {
  simkit::Engine& eng = comm.engine();
  const TpMeters m;
  Plan plan = co_await make_plan(comm, fs, file, mine, options.aggregators,
                                 stats, m);
  if (plan.dom.chunk == 0) co_return;

  // ---- request round (inline records only) -----------------------------
  const PeerPieces my_domains = by_domain(plan, mine);
  PeerPieces sources;
  {
    // Scoped so the request buffers die before the reply round.
    std::vector<mprt::Message> requests;
    if (plan.records) {
      const simkit::Time t_req = eng.now();
      requests = co_await to_aggregators(comm, plan, my_domains, {}, false);
      note_exchange(stats, m, eng.now() - t_req);
    }
    sources = by_source(plan, comm, requests);
  }

  // ---- I/O phase: read my domain's merged runs -------------------------
  // As in write(), data handling keys off the file; only the final
  // scatter depends on local_out.
  const bool backed = fs.is_backed(file);
  const std::vector<Extent> runs = runs_of(sources);
  auto run_bufs = run_buffers(runs, backed);
  const std::exception_ptr deferred = co_await io_phase(
      comm, fs, file, false, runs, run_bufs, stats, m, options);

  // ---- exchange phase: pieces back to their requesters -----------------
  const simkit::Time t_x = eng.now();
  std::vector<mprt::Outgoing> sends;
  std::uint64_t packed = 0;
  for (const auto& [src, subs] : sources) {
    mprt::Outgoing& reply = sends.emplace_back(src, total_length(subs));
    packed += reply.bytes;
    if (!backed) continue;
    reply.payload.reserve(reply.bytes);
    for (const auto& sub : subs) {
      const std::byte* from = run_bytes(runs, run_bufs, sub);
      reply.payload.insert(reply.payload.end(), from, from + sub.length);
    }
  }
  co_await comm.machine().mem_copy(packed);  // pack pass
  const auto replies = co_await mprt::alltoallv(comm, std::move(sends));

  // Scatter replies into my local buffer, in per-domain request order.
  std::uint64_t unpacked = 0;
  for (const auto& [agg, subs] : my_domains) {
    const auto pay = payload_from(replies, agg);
    std::size_t cursor = 0;
    for (const auto& sub : subs) {
      if (!local_out.empty() && pay.size() >= cursor + sub.length) {
        std::memcpy(local_out.data() + sub.buf_offset, pay.data() + cursor,
                    sub.length);
      }
      cursor += sub.length;
      unpacked += sub.length;
    }
  }
  co_await comm.machine().mem_copy(unpacked);  // unpack pass
  note_exchange(stats, m, eng.now() - t_x);
  if (deferred) std::rethrow_exception(deferred);
}

}  // namespace pario
