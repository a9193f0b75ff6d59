// audit/audit.hpp — simulation-wide data-integrity auditor.
//
// The simulator prices I/O but carries no payloads on the server side:
// correctness of *content* is asserted at the client layer, so a server
// that silently drops an acked write-behind buffer on a crash would
// never be caught.  The Ledger closes that hole: a per-(file, server,
// block) version record is advanced by every client-visible write ack
// and by every event that makes (or destroys) a durable copy, and every
// read is cross-checked against it.  Three violation classes:
//
//   * lost update — an acked write's data destroyed (crash invalidated
//     the writeback pool / redo log) before it ever became durable;
//   * stale read  — a read observing a block whose newest acked version
//     is known lost: in a real system this read returns old bytes;
//   * torn write  — a multi-block client write (one pwrite spanning
//     pieces) of which some pieces became durable and others were lost,
//     leaving a mixed-version range on disk after recovery.
//
// Mirrors the metrics:: idiom exactly: a thread_local `current()`
// pointer, RAII `Scope` installation, zero cost when no ledger is
// installed (one pointer load and branch), and observation-only —
// feeding the ledger never consumes simulated time or RNG state, so an
// audited run is byte-identical to an unaudited one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace audit {

/// Aggregate results, mergeable across per-point ledgers.
struct Totals {
  std::uint64_t writes_acked = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t lost_updates = 0;    // acked-but-unflushed blocks destroyed
  std::uint64_t lost_bytes = 0;
  std::uint64_t stale_reads = 0;     // reads of a block with a lost update
  std::uint64_t torn_writes = 0;     // multi-block writes partially durable
  std::uint64_t scrub_destroyed = 0; // durable blocks destroyed by scrubs

  std::uint64_t violations() const noexcept {
    return lost_updates + stale_reads + torn_writes;
  }
  void merge(const Totals& o) noexcept {
    writes_acked += o.writes_acked;
    reads_checked += o.reads_checked;
    lost_updates += o.lost_updates;
    lost_bytes += o.lost_bytes;
    stale_reads += o.stale_reads;
    torn_writes += o.torn_writes;
    scrub_destroyed += o.scrub_destroyed;
  }
};

class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Open a torn-write group: one client pwrite spanning several server
  /// blocks shares a group id; 0 means "ungrouped" (single-piece write).
  std::uint64_t begin_group() noexcept { return ++next_group_; }

  /// A server acked one block of a client write.  `durable_at_ack` is
  /// true when the ack itself implies durability (write-through, a
  /// journaled redo append, or a synchronous server) — such blocks can
  /// never be lost by a plain crash, only destroyed by a scrub.
  void note_write_acked(std::uint64_t file, std::size_t server,
                        std::uint64_t block, std::uint64_t bytes,
                        bool durable_at_ack, std::uint64_t group = 0);

  /// A buffered block reached disk (drain / flush / journal replay).
  void note_durable(std::uint64_t file, std::size_t server,
                    std::uint64_t block);

  /// A crash destroyed a block the server had acked.  Counts a lost
  /// update only when the ledger itself believes the newest acked
  /// version was not yet durable — the independent cross-check against
  /// the server's own loss accounting.
  void note_lost(std::uint64_t file, std::size_t server,
                 std::uint64_t block, std::uint64_t bytes);

  /// A scrubbing crash destroyed everything `server` stored, durable
  /// copies included.
  void note_scrubbed(std::size_t server);

  /// A client read touched this block; flags a stale read if the
  /// newest acked version is known lost.
  void note_read(std::uint64_t file, std::size_t server,
                 std::uint64_t block);

  const Totals& totals() const noexcept { return totals_; }
  std::uint64_t violations() const noexcept { return totals_.violations(); }

 private:
  /// What the ledger knows of one (file, server, block).  A check only
  /// ever asks whether the newest acked version is durable or lost, so
  /// flags stand in for version counters.
  struct Record {
    std::uint64_t group = 0;  // group of the newest acked write
    bool acked = false;       // some version was acked
    bool pending = false;     // the newest acked version is not durable
    bool lost = false;        // the newest acked version was destroyed
  };
  /// One server's records of one file, indexed by the server-local
  /// block number; it ends after the highest block acked.
  using Row = std::vector<Record>;
  struct Group {
    std::uint64_t pending = 0;  // acked pieces not yet durable
    std::uint64_t durable = 0;
    std::uint64_t lost = 0;
    bool flagged = false;
  };

  /// The record of a block, or nullptr past the end of its row; a hole
  /// inside a row reads as never acked.  Never allocates.
  Record* find(std::uint64_t file, std::size_t server, std::uint64_t block);
  void group_settle(std::uint64_t id, bool became_durable);

  /// rows_[server][file]: FileIds, server indices and server-local
  /// block numbers are all dense, so the rows have few holes.
  std::vector<std::vector<Row>> rows_;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::uint64_t next_group_ = 0;
  Totals totals_;
};

/// The installed ledger, or nullptr when auditing is off (the default).
Ledger* current() noexcept;

/// RAII installation, nesting like metrics::Scope — a scenario body may
/// install its own ledger inside a `--audit` run's per-point one.
class Scope {
 public:
  explicit Scope(Ledger& l) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* prev_;
};

}  // namespace audit
