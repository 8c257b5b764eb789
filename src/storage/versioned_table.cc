#include "storage/versioned_table.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <unordered_set>

namespace dvs {

VersionedTable::VersionedTable(Schema schema, size_t max_partition_rows)
    : schema_(std::move(schema)),
      max_partition_rows_(max_partition_rows == 0 ? 1 : max_partition_rows) {
  TableVersion v0;
  v0.id = 1;
  v0.commit_ts = HlcTimestamp::Min();
  v0.row_count = 0;
  versions_.push_back(std::move(v0));
}

const TableVersion& VersionedTable::version(VersionId id) const {
  assert(has_version(id));
  return versions_[id - first_version_];
}

const MicroPartition& VersionedTable::partition(PartitionId id) const {
  auto it = partitions_.find(id);
  assert(it != partitions_.end());
  return *it->second;
}

VersionId VersionedTable::ResolveVersionAt(HlcTimestamp ts) const {
  // Versions are committed in increasing timestamp order; binary search for
  // the last one with commit_ts <= ts.
  auto it = std::upper_bound(
      versions_.begin(), versions_.end(), ts,
      [](const HlcTimestamp& t, const TableVersion& v) { return t < v.commit_ts; });
  if (it == versions_.begin()) return kInvalidVersionId;
  return std::prev(it)->id;
}

void VersionedTable::AddPartition(std::shared_ptr<MicroPartition> part,
                                  TableVersion* version) {
  part->id = next_partition_id_++;
  for (size_t j = 0; j < part->size(); ++j) {
    row_index_[part->row(j).id] = {part->id, static_cast<uint32_t>(j)};
  }
  stats_.index_entries_added += part->size();
  stats_.partitions_created += 1;
  version->added.push_back(part->id);
  version->live.push_back(part->id);
  partitions_.emplace(part->id, std::move(part));
}

void VersionedTable::AddRowsAsPartitions(
    std::vector<IdRow> rows, TableVersion* version,
    std::vector<PartitionRows>* delta_inserts) {
  size_t i = 0;
  while (i < rows.size()) {
    size_t n = std::min(max_partition_rows_, rows.size() - i);
    auto part = std::make_shared<MicroPartition>();
    part->payload = std::make_shared<const std::vector<IdRow>>(
        std::make_move_iterator(rows.begin() + i),
        std::make_move_iterator(rows.begin() + i + n));
    stats_.rows_written += n;
    if (delta_inserts != nullptr) delta_inserts->push_back({part, {}});
    AddPartition(std::move(part), version);
    i += n;
  }
}

Status VersionedTable::ValidateChanges(const ChangeSet& changes) const {
  // Production validation (§6.1): at most one change per (row_id, action).
  std::unordered_set<uint64_t> seen;
  seen.reserve(changes.size());
  std::unordered_set<RowId> deleted;
  for (const ChangeRow& c : changes) {
    uint64_t key = c.row_id * 2 + (c.action == ChangeAction::kDelete ? 1 : 0);
    if (!seen.insert(key).second) {
      return Corruption("duplicate (row_id, action) pair in change set: "
                        "row_id=" + std::to_string(c.row_id) + " action=" +
                        ChangeActionName(c.action));
    }
    if (c.action == ChangeAction::kDelete) deleted.insert(c.row_id);
  }
  // Never delete a row that does not exist; never insert a duplicate row id
  // (unless this change set also deletes it, i.e. an update).
  for (const ChangeRow& c : changes) {
    if (c.action == ChangeAction::kDelete) {
      if (!row_index_.count(c.row_id)) {
        return Corruption("delete of non-existent row id " +
                          std::to_string(c.row_id));
      }
    } else if (row_index_.count(c.row_id) && !deleted.count(c.row_id)) {
      return Corruption("insert of duplicate row id " +
                        std::to_string(c.row_id));
    }
  }
  return OkStatus();
}

Result<VersionId> VersionedTable::ApplyChanges(const ChangeSet& changes,
                                               HlcTimestamp commit_ts) {
  if (commit_ts <= versions_.back().commit_ts) {
    return Internal("non-monotonic commit timestamp for table version");
  }
  DVS_RETURN_IF_ERROR(ValidateChanges(changes));
  // Exclusive vs serve-side snapshot acquisition; the single-writer contract
  // means no other mutator contends. AddRowsAsPartitions inserts into
  // partitions_ mid-build, so the whole build is inside the critical section.
  std::unique_lock<std::shared_mutex> commit_lock(commit_mu_);

  // Locate every delete through the row-id index: exactly one point lookup
  // per delete change (counted in stats_.index_lookups), grouping deleted
  // offsets by partition. No partition's rows are scanned to *find* deletes;
  // only touched partitions are read, to rewrite their survivors.
  std::unordered_map<PartitionId, std::vector<char>> touched;
  std::vector<IdRow> inserts;
  size_t delete_count = 0;
  for (const ChangeRow& c : changes) {
    if (c.action == ChangeAction::kInsert) {
      inserts.push_back({c.row_id, c.values});
      continue;
    }
    ++delete_count;
    auto it = row_index_.find(c.row_id);
    stats_.index_lookups += 1;
    const RowLocation loc = it->second;  // existence validated above
    std::vector<char>& dead = touched[loc.partition];
    if (dead.empty()) dead.resize(partition(loc.partition).size(), 0);
    dead[loc.offset] = 1;
    row_index_.erase(it);
    stats_.index_entries_removed += 1;
  }

  TableVersion next;
  next.id = versions_.back().id + 1;
  next.commit_ts = commit_ts;

  // Copy-on-write: partitions untouched by deletes stay live; touched ones
  // are removed. If at least half a partition's worth of rows survives, a
  // view over the same payload keeps them by reference; smaller survivor
  // sets are copied and packed into new partitions. The rule reads only the
  // live row count, so a materialized (recovered) table makes the same
  // choices. The delta references the deleted rows in place and the
  // insert-only partitions; survivors are not changes and stay out of it.
  auto delta = std::make_shared<VersionDelta>();
  std::vector<IdRow> survivors;
  const TableVersion& prev = versions_.back();
  for (PartitionId pid : prev.live) {
    auto t = touched.find(pid);
    if (t == touched.end()) {
      next.live.push_back(pid);
      continue;
    }
    next.removed.push_back(pid);
    const std::vector<char>& dead = t->second;
    const std::shared_ptr<const MicroPartition>& p = partitions_.at(pid);
    PartitionRows deleted{p, {}};
    std::vector<uint32_t> kept;
    for (size_t j = 0; j < p->size(); ++j) {
      (dead[j] ? deleted.offsets : kept).push_back(static_cast<uint32_t>(j));
    }
    if (2 * kept.size() >= max_partition_rows_) {
      auto view = std::make_shared<MicroPartition>();
      view->payload = p->payload;
      view->selection.reserve(kept.size());
      for (uint32_t j : kept) {
        view->selection.push_back(p->selection.empty() ? j : p->selection[j]);
      }
      stats_.rows_kept_in_place += kept.size();
      AddPartition(std::move(view), &next);
    } else {
      for (uint32_t j : kept) survivors.push_back(p->row(j));
      stats_.rows_rewritten_copy += kept.size();
    }
    if (kept.empty()) deleted.offsets.clear();
    delta->deletes.push_back(std::move(deleted));
  }
  AddRowsAsPartitions(std::move(survivors), &next);
  const size_t insert_count = inserts.size();
  AddRowsAsPartitions(std::move(inserts), &next, &delta->inserts);
  if (!delta->deletes.empty() || !delta->inserts.empty()) {
    next.delta = std::move(delta);
  }

  std::sort(next.live.begin(), next.live.end());
  next.row_count = prev.row_count + insert_count - delete_count;
  versions_.push_back(std::move(next));
  return versions_.back().id;
}

Result<VersionId> VersionedTable::Overwrite(std::vector<IdRow> rows,
                                            HlcTimestamp commit_ts) {
  if (commit_ts <= versions_.back().commit_ts) {
    return Internal("non-monotonic commit timestamp for table version");
  }
  {
    std::unordered_set<RowId> ids;
    ids.reserve(rows.size());
    for (const IdRow& r : rows) {
      if (!ids.insert(r.id).second) {
        return Corruption("duplicate row id in overwrite: " +
                          std::to_string(r.id));
      }
    }
  }
  std::unique_lock<std::shared_mutex> commit_lock(commit_mu_);
  TableVersion next;
  next.id = versions_.back().id + 1;
  next.commit_ts = commit_ts;
  next.removed = versions_.back().live;
  next.row_count = rows.size();
  auto delta = std::make_shared<VersionDelta>();
  for (PartitionId pid : next.removed) {
    delta->deletes.push_back({partitions_.at(pid), {}});
  }
  row_index_.clear();
  stats_.index_rebuilds += 1;
  AddRowsAsPartitions(std::move(rows), &next, &delta->inserts);
  if (!delta->deletes.empty() || !delta->inserts.empty()) {
    next.delta = std::move(delta);
  }
  std::sort(next.live.begin(), next.live.end());
  versions_.push_back(std::move(next));
  return versions_.back().id;
}

VersionId VersionedTable::CommitNoOp(HlcTimestamp commit_ts) {
  assert(commit_ts > versions_.back().commit_ts);
  std::unique_lock<std::shared_mutex> commit_lock(commit_mu_);
  TableVersion next;
  next.id = versions_.back().id + 1;
  next.commit_ts = commit_ts;
  next.live = versions_.back().live;
  next.row_count = versions_.back().row_count;
  versions_.push_back(std::move(next));
  return versions_.back().id;
}

VersionId VersionedTable::Recluster(HlcTimestamp commit_ts) {
  assert(commit_ts > versions_.back().commit_ts);
  std::vector<IdRow> all = ScanLatest();
  std::unique_lock<std::shared_mutex> commit_lock(commit_mu_);
  TableVersion next;
  next.id = versions_.back().id + 1;
  next.commit_ts = commit_ts;
  next.removed = versions_.back().live;
  next.row_count = all.size();
  next.data_equivalent = true;
  row_index_.clear();
  stats_.index_rebuilds += 1;
  AddRowsAsPartitions(std::move(all), &next);
  std::sort(next.live.begin(), next.live.end());
  versions_.push_back(std::move(next));
  if (maintenance_hook_) maintenance_hook_(versions_.back());
  return versions_.back().id;
}

ReadSnapshot VersionedTable::SnapshotLocked(VersionId vid) const {
  const TableVersion& v = versions_[vid - first_version_];
  ReadSnapshot snap;
  snap.version = v.id;
  snap.commit_ts = v.commit_ts;
  snap.row_count = v.row_count;
  snap.partitions.reserve(v.live.size());
  for (PartitionId pid : v.live) {
    auto it = partitions_.find(pid);
    assert(it != partitions_.end());
    snap.partitions.push_back(it->second);
  }
  stats_.snapshot_pins += 1;
  return snap;
}

Result<ReadSnapshot> VersionedTable::SnapshotVersion(VersionId vid) const {
  std::shared_lock<std::shared_mutex> read_lock(commit_mu_);
  if (vid < first_version_ || vid > versions_.back().id) {
    return FailedPrecondition(
        "version " + std::to_string(vid) + " is outside the retained range [" +
        std::to_string(first_version_) + ", " +
        std::to_string(versions_.back().id) + "]");
  }
  return SnapshotLocked(vid);
}

Result<ReadSnapshot> VersionedTable::SnapshotAtTime(HlcTimestamp ts) const {
  std::shared_lock<std::shared_mutex> read_lock(commit_mu_);
  VersionId vid = ResolveVersionAt(ts);
  if (vid == kInvalidVersionId) {
    return FailedPrecondition("table has no version at or before " +
                              ts.ToString());
  }
  return SnapshotLocked(vid);
}

std::vector<IdRow> VersionedTable::ScanAt(VersionId vid) const {
  const TableVersion& v = version(vid);
  std::vector<IdRow> out;
  out.reserve(v.row_count);
  for (PartitionId pid : v.live) {
    partition(pid).ForEach([&](const IdRow& r) { out.push_back(r); });
  }
  return out;
}

void VersionedTable::VisitPartitionsAt(
    VersionId vid,
    const std::function<void(const MicroPartition&)>& fn) const {
  const TableVersion& v = version(vid);
  for (PartitionId pid : v.live) fn(partition(pid));
}

size_t VersionedTable::RowCountAt(VersionId vid) const {
  return version(vid).row_count;
}

Result<ChangeSet> VersionedTable::ScanChanges(VersionId from,
                                              VersionId to) const {
  if (from > to || !has_version(from) || !has_version(to)) {
    return InvalidArgument("bad change-scan interval [" + std::to_string(from) +
                           ", " + std::to_string(to) + "]");
  }
  // Per row id: the stored row it had at `from` (set by its first delete in
  // the interval) and the one it has at `to` (its last insert, unless a
  // later delete took it back out).
  struct NetRow {
    const IdRow* before = nullptr;
    const IdRow* after = nullptr;
  };
  std::unordered_map<RowId, NetRow> net;
  uint64_t rows_read = 0;
  for (VersionId v = from + 1; v <= to; ++v) {
    const VersionDelta* delta = version(v).delta.get();
    if (delta == nullptr) continue;
    for (const PartitionRows& group : delta->deletes) {
      group.ForEach([&](const IdRow& r) {
        ++rows_read;
        NetRow& n = net[r.id];
        if (n.after != nullptr) {
          n.after = nullptr;  // inserted earlier in the interval
        } else {
          n.before = &r;
        }
      });
    }
    for (const PartitionRows& group : delta->inserts) {
      group.ForEach([&](const IdRow& r) {
        ++rows_read;
        net[r.id].after = &r;
      });
    }
  }
  stats_.change_scan_raw_rows += rows_read;

  // A row rewritten with identical content is not a logical change.
  std::vector<const IdRow*> deletes, inserts;
  for (const auto& [id, n] : net) {
    if (n.before != nullptr && n.after != nullptr &&
        RowsEqual(n.before->values, n.after->values)) {
      continue;
    }
    if (n.before != nullptr) deletes.push_back(n.before);
    if (n.after != nullptr) inserts.push_back(n.after);
  }
  auto by_id = [](const IdRow* a, const IdRow* b) { return a->id < b->id; };
  std::sort(deletes.begin(), deletes.end(), by_id);
  std::sort(inserts.begin(), inserts.end(), by_id);
  ChangeSet out;
  out.reserve(deletes.size() + inserts.size());
  for (const IdRow* r : deletes) {
    out.push_back({ChangeAction::kDelete, r->id, r->values});
  }
  for (const IdRow* r : inserts) {
    out.push_back({ChangeAction::kInsert, r->id, r->values});
  }
  stats_.change_scan_net_rows += out.size();
  return out;
}

size_t VersionedTable::PartitionDiffRows(VersionId from, VersionId to) const {
  assert(has_version(from) && has_version(to) && from <= to);
  const TableVersion& vf = version(from);
  const TableVersion& vt = version(to);
  std::vector<PartitionId> diff;
  std::set_symmetric_difference(vf.live.begin(), vf.live.end(),
                                vt.live.begin(), vt.live.end(),
                                std::back_inserter(diff));
  size_t rows = 0;
  for (PartitionId pid : diff) rows += partition(pid).size();
  return rows;
}

bool VersionedTable::HasDataChanges(VersionId from, VersionId to) const {
  assert(has_version(from) && has_version(to) && from <= to);
  for (VersionId v = from + 1; v <= to; ++v) {
    const TableVersion& tv = version(v);
    if (tv.data_equivalent) continue;
    if (!tv.added.empty() || !tv.removed.empty()) return true;
  }
  return false;
}

std::unique_ptr<VersionedTable> VersionedTable::Clone() const {
  auto clone = std::make_unique<VersionedTable>(schema_, max_partition_rows_);
  clone->partitions_ = partitions_;  // shared immutable payloads
  clone->versions_ = versions_;
  clone->row_index_ = row_index_;
  clone->first_version_ = first_version_;
  clone->next_partition_id_ = next_partition_id_;
  clone->next_row_id_ = next_row_id_;
  return clone;
}

PruneOutcome VersionedTable::PruneVersionsBefore(VersionId keep_from) {
  PruneOutcome out;
  std::unique_lock<std::shared_mutex> commit_lock(commit_mu_);
  if (keep_from > versions_.back().id) keep_from = versions_.back().id;
  if (keep_from <= first_version_) return out;

  const size_t drop = static_cast<size_t>(keep_from - first_version_);
  versions_.erase(versions_.begin(), versions_.begin() + drop);
  first_version_ = keep_from;
  out.versions_pruned = drop;
  // Change scans never read the first retained version's delta (it lies
  // before every scannable interval), and its delete references point into
  // the pruned predecessor: drop it so it does not pin freed partitions.
  versions_.front().delta.reset();

  // Free partitions no retained live set can reach. Every other retained
  // delta references only its own and its predecessor's live partitions,
  // so added/removed lists of retained versions may reference freed ids but
  // no delta does.
  std::unordered_set<PartitionId> reachable;
  for (const TableVersion& v : versions_) {
    reachable.insert(v.live.begin(), v.live.end());
  }
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (!reachable.count(it->first)) {
      it = partitions_.erase(it);
      ++out.partitions_freed;
    } else {
      ++it;
    }
  }
  stats_.versions_pruned += out.versions_pruned;
  stats_.partitions_freed += out.partitions_freed;
  return out;
}

std::unique_ptr<VersionedTable> VersionedTable::Restore(
    Schema schema, size_t max_partition_rows, VersionId first_version,
    std::vector<TableVersion> versions, std::vector<MicroPartition> partitions,
    PartitionId next_partition_id, RowId next_row_id) {
  assert(!versions.empty() && versions.front().id == first_version);
  auto table = std::make_unique<VersionedTable>(std::move(schema),
                                                max_partition_rows);
  table->versions_ = std::move(versions);
  table->first_version_ = first_version;
  table->partitions_.clear();
  for (MicroPartition& p : partitions) {
    PartitionId pid = p.id;
    table->partitions_.emplace(
        pid, std::make_shared<const MicroPartition>(std::move(p)));
  }
  table->next_partition_id_ = next_partition_id;
  table->next_row_id_ = next_row_id;
  // Rebuild the row-id index from the latest version's live partitions: the
  // same (row id -> location) content the live index held at capture time.
  table->row_index_.clear();
  for (PartitionId pid : table->versions_.back().live) {
    const MicroPartition& p = table->partition(pid);
    for (size_t j = 0; j < p.size(); ++j) {
      table->row_index_[p.row(j).id] = {pid, static_cast<uint32_t>(j)};
    }
  }
  table->versions_.front().delta.reset();
  for (size_t i = 1; i < table->versions_.size(); ++i) {
    TableVersion& v = table->versions_[i];
    v.delta = v.data_equivalent
                  ? nullptr
                  : table->DiffDelta(table->versions_[i - 1], v);
  }
  return table;
}

std::shared_ptr<const VersionDelta> VersionedTable::DiffDelta(
    const TableVersion& prev, const TableVersion& next) const {
  std::vector<PartitionId> removed, added;
  std::set_difference(prev.live.begin(), prev.live.end(), next.live.begin(),
                      next.live.end(), std::back_inserter(removed));
  std::set_difference(next.live.begin(), next.live.end(), prev.live.begin(),
                      prev.live.end(), std::back_inserter(added));
  if (removed.empty() && added.empty()) return nullptr;

  // A row on both sides with identical content is a delete's survivor (kept
  // by a view or copied) or an unchanged row an overwrite rewrote, not a
  // change. Matched rows leave `deleted`, so what remains there is the
  // delete side.
  std::unordered_map<RowId, const IdRow*> deleted;
  for (PartitionId pid : removed) {
    partition(pid).ForEach(
        [&](const IdRow& r) { deleted.emplace(r.id, &r); });
  }
  auto delta = std::make_shared<VersionDelta>();
  // The rows of partition `pid` that `skip` rejects; a null group if none.
  auto keep = [&](PartitionId pid, auto&& skip) {
    PartitionRows group{partitions_.at(pid), {}};
    const MicroPartition& p = *group.partition;
    for (size_t j = 0; j < p.size(); ++j) {
      if (!skip(p.row(j))) group.offsets.push_back(static_cast<uint32_t>(j));
    }
    if (group.offsets.empty()) return PartitionRows{};
    if (group.offsets.size() == p.size()) group.offsets.clear();
    return group;
  };
  for (PartitionId pid : added) {
    PartitionRows group = keep(pid, [&](const IdRow& r) {
      auto it = deleted.find(r.id);
      if (it == deleted.end() || !RowsEqual(it->second->values, r.values)) {
        return false;
      }
      deleted.erase(it);
      return true;
    });
    if (group.partition) delta->inserts.push_back(std::move(group));
  }
  for (PartitionId pid : removed) {
    PartitionRows group =
        keep(pid, [&](const IdRow& r) { return deleted.count(r.id) == 0; });
    if (group.partition) delta->deletes.push_back(std::move(group));
  }
  if (delta->deletes.empty() && delta->inserts.empty()) return nullptr;
  return delta;
}

ChangeSet VersionedTable::MakeInsertChanges(std::vector<Row> rows) {
  ChangeSet out;
  out.reserve(rows.size());
  for (Row& r : rows) {
    out.push_back({ChangeAction::kInsert, next_row_id_++, std::move(r)});
  }
  return out;
}

}  // namespace dvs
