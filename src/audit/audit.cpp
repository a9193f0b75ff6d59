#include "audit/audit.hpp"

namespace audit {

namespace {
thread_local Ledger* g_current = nullptr;
}  // namespace

Ledger* current() noexcept { return g_current; }

Scope::Scope(Ledger& l) noexcept : prev_(g_current) { g_current = &l; }
Scope::~Scope() { g_current = prev_; }

void Ledger::group_settle(std::uint64_t id, bool became_durable) {
  auto it = groups_.find(id);
  if (it == groups_.end()) return;
  Group& g = it->second;
  if (g.pending > 0) --g.pending;
  if (became_durable) {
    ++g.durable;
  } else {
    ++g.lost;
  }
  if (g.durable > 0 && g.lost > 0 && !g.flagged) {
    g.flagged = true;
    ++totals_.torn_writes;
  }
  // No pending pieces left: the group's fate is sealed (nothing can
  // still become durable or lost), so the record is no longer needed.
  if (g.pending == 0) groups_.erase(it);
}

Ledger::Record* Ledger::find(std::uint64_t file, std::size_t server,
                             std::uint64_t block) {
  if (server >= rows_.size() || file >= rows_[server].size()) return nullptr;
  Row& row = rows_[server][file];
  return block < row.size() ? &row[block] : nullptr;
}

void Ledger::note_write_acked(std::uint64_t file, std::size_t server,
                              std::uint64_t block, std::uint64_t bytes,
                              bool durable_at_ack, std::uint64_t group) {
  (void)bytes;
  if (server >= rows_.size()) rows_.resize(server + 1);
  std::vector<Row>& files = rows_[server];
  if (file >= files.size()) files.resize(file + 1);
  Row& row = files[file];
  if (block >= row.size()) row.resize(block + 1);
  Record& rec = row[block];
  // An overwrite supersedes a still-pending older version: the old
  // group piece resolves as neither durable nor lost.
  if (!rec.lost && rec.pending && rec.group != 0) {
    auto it = groups_.find(rec.group);
    if (it != groups_.end() && it->second.pending > 0 &&
        --it->second.pending == 0) {
      groups_.erase(it);
    }
  }
  rec.acked = true;
  rec.lost = false;  // fresh data supersedes any lost version
  ++totals_.writes_acked;
  if (durable_at_ack) {
    rec.pending = false;
    rec.group = 0;  // an all-durable group can never tear
  } else {
    rec.pending = true;
    rec.group = group;
    if (group != 0) ++groups_[group].pending;
  }
}

void Ledger::note_durable(std::uint64_t file, std::size_t server,
                          std::uint64_t block) {
  Record* rec = find(file, server, block);
  if (!rec || rec->lost || !rec->pending) return;
  rec->pending = false;
  const std::uint64_t g = rec->group;
  rec->group = 0;
  if (g != 0) group_settle(g, /*became_durable=*/true);
}

void Ledger::note_lost(std::uint64_t file, std::size_t server,
                       std::uint64_t block, std::uint64_t bytes) {
  Record* rec = find(file, server, block);
  // Only a version the ledger independently believes was acked but not
  // yet durable is a lost update — if the server claims loss on a block
  // the ledger saw drained, one side's accounting is wrong and the
  // mismatch shows up as counts that disagree in tests.
  if (!rec || rec->lost || !rec->pending) return;
  rec->lost = true;
  ++totals_.lost_updates;
  totals_.lost_bytes += bytes;
  const std::uint64_t g = rec->group;
  rec->group = 0;
  if (g != 0) group_settle(g, /*became_durable=*/false);
}

void Ledger::note_scrubbed(std::size_t server) {
  // Rare (one call per scrubbing crash); a sweep of the server's rows is
  // fine.  Each record is flagged and counted exactly once.
  if (server >= rows_.size()) return;
  for (Row& row : rows_[server]) {
    for (Record& rec : row) {
      if (!rec.acked || rec.lost) continue;
      rec.lost = true;
      rec.group = 0;
      ++totals_.scrub_destroyed;
    }
  }
}

void Ledger::note_read(std::uint64_t file, std::size_t server,
                       std::uint64_t block) {
  ++totals_.reads_checked;
  const Record* rec = find(file, server, block);
  if (rec && rec->lost) ++totals_.stale_reads;
}

}  // namespace audit
