// Versioned, copy-on-write table storage.
//
// Mirrors the Snowflake storage model the paper builds on (§5.1, §5.3,
// §5.5.2): a table is a set of immutable micro-partitions; every committed
// change produces a new table version that adds and/or removes whole
// partitions; versions are indexed by HLC commit timestamp, giving time
// travel ("read as of t" = largest commit ts <= t).
//
// A micro-partition is an immutable, shared row payload plus an optional
// selection of the payload rows it holds. A delete that leaves at least half
// a partition's worth of survivors (2 * survivors >= max_partition_rows)
// replaces the partition with a *view*: a fresh partition id over the same
// payload that selects only the survivors, so no surviving row is copied and
// a view's payload never holds more than twice its live rows. Smaller
// survivor sets are copied and packed into fresh partitions. Row offsets
// (RowLocation, VersionDelta) are ordinals within a partition's selected
// rows, so a materialized copy of a view (what recovery builds) has the same
// ids, offsets and encoding as the view itself.
//
// Change scans ("changes between v0 and v1") read row-level change metadata,
// not partitions: every data-changing version carries a VersionDelta that
// references exactly the rows its commit deleted and inserted. A scan walks
// the deltas of the versions in (v0, v1] and consolidates them per row id,
// so its cost is O(changes) whatever the partition size. Survivors kept by a
// view or copied on write, and reclustered rows, are never part of a delta,
// so the data-equivalent operations the paper warns about (§5.5.2) cost a
// change scan nothing; PartitionDiffRows measures what a partition diff
// would read.
//
// The in-memory representation is the documented substitution for cloud
// object storage (DESIGN.md §5): visibility and change semantics are
// identical, only byte persistence is elided.

#ifndef DVS_STORAGE_VERSIONED_TABLE_H_
#define DVS_STORAGE_VERSIONED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/hlc.h"
#include "common/ids.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "types/row.h"
#include "types/schema.h"

namespace dvs {

/// An immutable chunk of rows. Never mutated after registration. The rows
/// live in `payload`, which views share with the partition they were cut
/// from; `selection` lists the payload indices this partition holds
/// (ascending), or is empty when it holds every payload row. Read rows only
/// through size() / row() / ForEach, whose ordinals index the selected rows.
struct MicroPartition {
  PartitionId id = 0;
  std::shared_ptr<const std::vector<IdRow>> payload;
  std::vector<uint32_t> selection;

  size_t size() const {
    return selection.empty() ? payload->size() : selection.size();
  }
  const IdRow& row(size_t i) const {
    return (*payload)[selection.empty() ? i : selection[i]];
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (selection.empty()) {
      for (const IdRow& r : *payload) fn(r);
    } else {
      for (uint32_t i : selection) fn((*payload)[i]);
    }
  }
};

/// Rows of one micro-partition: the listed offsets (ascending ordinals of
/// its selected rows), or every row when `offsets` is empty.
struct PartitionRows {
  std::shared_ptr<const MicroPartition> partition;
  std::vector<uint32_t> offsets;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (offsets.empty()) {
      partition->ForEach(fn);
    } else {
      for (uint32_t o : offsets) fn(partition->row(o));
    }
  }
};

/// The logical delta of one committed version, as references to stored
/// rows: `deletes` point into partitions of the previous version, `inserts`
/// into the insert-only partitions the commit added. Immutable once
/// published, so clones share it.
struct VersionDelta {
  std::vector<PartitionRows> deletes;
  std::vector<PartitionRows> inserts;
};

/// One committed state of the table.
struct TableVersion {
  VersionId id = kInvalidVersionId;
  HlcTimestamp commit_ts;
  std::vector<PartitionId> live;     ///< Sorted live partition ids.
  std::vector<PartitionId> added;    ///< Relative to the previous version.
  std::vector<PartitionId> removed;  ///< Relative to the previous version.
  size_t row_count = 0;
  /// True for maintenance versions (reclustering/defragmentation) that
  /// rewrite partitions without changing logical contents. NO_DATA detection
  /// skips these (the paper's "data-equivalent operations", §5.5.2).
  bool data_equivalent = false;
  /// The rows this commit changed; null for versions that changed no data
  /// (no-op and data-equivalent commits) and for the oldest retained
  /// version, whose delete references would point into a pruned
  /// predecessor. Not serialized: Restore rebuilds it.
  std::shared_ptr<const VersionDelta> delta;
};

/// Latest-version location of a row: which partition holds it and its
/// ordinal among that partition's selected rows. Maintained incrementally by
/// the row-id index.
struct RowLocation {
  PartitionId partition = 0;
  uint32_t offset = 0;
};

/// Counters for storage-level effects; used by the read-amplification
/// ablation (E11) and general reporting.
///
/// The counters are obs::Counter (relaxed-atomic uint64, same hot-path cost
/// as the raw std::atomic fields they replaced) because read-side operations
/// bump them too (ScanChanges is const yet counts scan amplification), and
/// concurrent refreshes legitimately change-scan the same shared base table
/// from several worker threads. obs::EngineMetrics aggregates these
/// per-table structs into the metrics registry (`storage.*`).
struct StorageStats {
  obs::Counter partitions_created;
  obs::Counter rows_written;  ///< Rows whose values were copied into a
                              ///< new partition.
  obs::Counter rows_rewritten_copy;
                                      ///< Rows copied only because a sibling
                                      ///< in their partition was deleted
                                      ///< (copy-on-write write amplification).
  obs::Counter rows_kept_in_place;
                                      ///< Survivors of a delete carried by
                                      ///< reference into a view, not copied.
  obs::Counter change_scan_raw_rows;
                                      ///< Stored rows change scans read
                                      ///< from version deltas before
                                      ///< per-row-id consolidation.
  obs::Counter change_scan_net_rows;  ///< Rows change scans returned.

  // Row-id index maintenance cost. The index makes the ApplyChanges delete
  // path O(changes): exactly one point lookup per delete change
  // (`index_lookups`), never a scan of live partitions.
  obs::Counter index_lookups;  ///< Delete-locate point lookups.
  obs::Counter index_entries_added;
                                       ///< Entries written (insert/rewrite).
  obs::Counter index_entries_removed;
                                       ///< Entries erased by deletes.
  obs::Counter index_rebuilds;
                                       ///< Full rebuilds (overwrite/recluster).

  // Durability subsystem (persist/). versions_pruned / partitions_freed are
  // bumped per table by retention GC (PruneVersionsBefore); wal_bytes /
  // checkpoint_bytes are bumped by the persist::Manager that owns the
  // durability files (they live here so every durability counter shares one
  // reporting struct).
  obs::Counter versions_pruned;
  obs::Counter partitions_freed;
  obs::Counter wal_bytes;         ///< WAL bytes appended.
  obs::Counter checkpoint_bytes;  ///< Checkpoint bytes written.

  // Serve read path (serve/query_service.h). Snapshot pins are counted at
  // acquisition (SnapshotVersion / SnapshotAtTime); scanned rows are charged
  // by the query service as it executes over the pinned partitions.
  obs::Counter snapshot_pins;      ///< Read snapshots taken.
  obs::Counter snapshot_read_rows; ///< Rows scanned via pins.
};

/// Result of one retention-GC pruning pass over a table.
struct PruneOutcome {
  uint64_t versions_pruned = 0;
  uint64_t partitions_freed = 0;
};

/// A pinned, immutable view of one committed table version, safe to scan
/// from any thread for as long as the snapshot is held: the shared_ptr pins
/// keep every partition alive even if retention GC prunes the version
/// underneath the reader. Produced by SnapshotVersion / SnapshotAtTime.
struct ReadSnapshot {
  VersionId version = kInvalidVersionId;
  HlcTimestamp commit_ts;
  size_t row_count = 0;
  /// Live partitions of `version` in scan order (sorted ids) — the exact
  /// concatenation ScanAt would materialize.
  std::vector<std::shared_ptr<const MicroPartition>> partitions;
};

/// Thread-safety contract (concurrent refresh runtime): single-writer,
/// multi-reader. At most one thread mutates a table at a time — the refresh
/// that owns it (DT storage) or the DML driver (base tables); concurrent
/// *reads* of committed versions (ScanAt / ScanChanges / ResolveVersionAt /
/// HasDataChanges) are safe from any number of threads because committed
/// partitions and versions are immutable and readers never block. Readers of
/// a table that is being written must be ordered against the writer
/// externally — the scheduler's DAG barriers do exactly that (a downstream
/// DT scans its upstream only after the upstream's refresh finished), and
/// version publication is a vector append that readers of older versions
/// never traverse concurrently under that discipline.
///
/// Serve read path (PR 8): readers with *no* external ordering against the
/// writer — the query-service front end — must go through SnapshotVersion /
/// SnapshotAtTime instead. Version publication and pruning take `commit_mu_`
/// exclusively; snapshot acquisition takes it shared, resolves the version,
/// and pins the partition shared_ptrs in one critical section. After that the
/// reader touches only immutable state it owns, so scans never hold the lock
/// and never block (or get blocked by) a committing refresh for longer than
/// the metadata copy.
class VersionedTable {
 public:
  /// `max_partition_rows` bounds partition size; small values increase
  /// version churn (useful in tests), large values reduce it.
  explicit VersionedTable(Schema schema, size_t max_partition_rows = 4096);

  const Schema& schema() const { return schema_; }
  void set_schema(Schema schema) { schema_ = std::move(schema); }

  /// Number of *retained* versions (>= 1; retention GC may have pruned older
  /// ones). Before any pruning, version 1 is the empty table.
  size_t version_count() const { return versions_.size(); }
  VersionId latest_version() const { return versions_.back().id; }
  /// Oldest retained version id (1 until retention GC prunes).
  VersionId first_version() const { return first_version_; }
  const TableVersion& version(VersionId id) const;
  bool has_version(VersionId id) const {
    return id >= first_version_ && id <= versions_.back().id;
  }

  /// Largest version with commit_ts <= ts, or kInvalidVersionId if the table
  /// did not exist yet at ts (i.e. ts predates version 1).
  VersionId ResolveVersionAt(HlcTimestamp ts) const;

  /// Checks `changes` against the §6.1 validations without mutating
  /// anything. The TransactionManager validates every table's changes before
  /// applying any of them, making multi-table commits all-or-nothing.
  Status ValidateChanges(const ChangeSet& changes) const;

  /// Commits `changes` as a new version with the given commit timestamp.
  /// Enforces the production validations of §6.1:
  ///   - at most one change per (row_id, action) pair,
  ///   - never delete a row id that is not currently stored.
  /// Insert of an already-present row id is likewise corruption.
  /// Commit timestamps must strictly increase.
  Result<VersionId> ApplyChanges(const ChangeSet& changes, HlcTimestamp commit_ts);

  /// INSERT OVERWRITE: replaces the full contents (FULL refresh action).
  Result<VersionId> Overwrite(std::vector<IdRow> rows, HlcTimestamp commit_ts);

  /// Commits a version identical to the previous one. Used by NO_DATA
  /// refreshes, which advance the DT's data timestamp without touching data,
  /// and by clustering-style data-equivalent maintenance.
  VersionId CommitNoOp(HlcTimestamp commit_ts);

  /// Rewrites storage without changing logical contents (the paper's
  /// background clustering/defragmentation, §5.5.2): merges all live
  /// partitions into freshly packed ones. The version carries no delta, so
  /// change scans across it read nothing for it.
  VersionId Recluster(HlcTimestamp commit_ts);

  /// Observer for maintenance commits that bypass both the transaction
  /// manager and the refresh engine — today that is exactly Recluster.
  /// persist::Manager installs one per table so maintenance rewrites are
  /// journaled like every other version transition (deterministic to
  /// replay: repacking ScanLatest() is a pure function of the prior state).
  /// Fired on the mutating thread after the version is published.
  using MaintenanceHook = std::function<void(const TableVersion&)>;
  void set_maintenance_hook(MaintenanceHook hook) {
    maintenance_hook_ = std::move(hook);
  }

  /// Pins a committed version for lock-free scanning from an unordered
  /// reader thread (see the serve contract above). Fails with a retention
  /// error if the version was pruned or never existed.
  Result<ReadSnapshot> SnapshotVersion(VersionId version) const;

  /// Timestamp form: resolves "as of ts" (largest commit_ts <= ts) and pins
  /// it in the same critical section, so a concurrent commit or prune cannot
  /// slip between resolution and pinning. Fails if the table has no version
  /// at or before `ts`.
  Result<ReadSnapshot> SnapshotAtTime(HlcTimestamp ts) const;

  /// Materializes the full contents at a version.
  std::vector<IdRow> ScanAt(VersionId version) const;

  /// Visits the live partitions of a version in scan order (sorted ids) —
  /// the exact concatenation ScanAt materializes. Columnar scan adapters
  /// (storage/batch_scan.h) convert each partition once and cache the
  /// result by partition identity.
  void VisitPartitionsAt(
      VersionId version,
      const std::function<void(const MicroPartition&)>& fn) const;

  /// Rows currently stored (latest version).
  std::vector<IdRow> ScanLatest() const { return ScanAt(latest_version()); }

  size_t RowCountAt(VersionId version) const;

  /// Net logical changes between two versions (from <= to): the deltas of
  /// the versions in (from, to], consolidated per row id — a delete cancels
  /// an insert made earlier in the interval, and a remaining delete/insert
  /// pair with identical content cancels. Emits the deletes, then the
  /// inserts, each in ascending row-id order.
  Result<ChangeSet> ScanChanges(VersionId from, VersionId to) const;

  /// Rows a partition-set diff between the two versions would read: the
  /// summed sizes of the partitions live at exactly one endpoint. Metadata
  /// only — materializes nothing. Measures the read amplification a naive
  /// change scan pays for copy-on-write and reclustering (E11).
  size_t PartitionDiffRows(VersionId from, VersionId to) const;

  /// True if any version in (from, to] changed data (i.e. the interval
  /// contains a non-no-op version). Powers NO_DATA detection.
  bool HasDataChanges(VersionId from, VersionId to) const;

  /// Assigns fresh monotonically increasing row ids to bare rows, producing
  /// insert changes. Used by base-table DML.
  ChangeSet MakeInsertChanges(std::vector<Row> rows);

  /// Zero-copy clone (§3.4): the clone shares every immutable micro-
  /// partition and version delta with the original (only metadata is
  /// copied) and then diverges independently — the Snowflake cloning model.
  std::unique_ptr<VersionedTable> Clone() const;

  /// Retention GC: drops every version with id < `keep_from` and frees
  /// partitions no retained version's live set references. The latest version
  /// is always kept (`keep_from` is clamped to it). Change scans whose `from`
  /// endpoint was pruned fail has_version — the caller (persist/retention)
  /// guarantees `keep_from` never exceeds any live snapshot or downstream
  /// frontier. Single-writer, like every other mutation.
  PruneOutcome PruneVersionsBefore(VersionId keep_from);

  /// Timestamp form of the same trim: retains the newest version with
  /// commit_ts <= min_ts (so "read as of t" stays exact for every
  /// t >= min_ts) and everything after it; reads below that floor fail with
  /// a retention error at the resolution layer. persist/retention computes
  /// the watermark itself (it also honors downstream frontiers and journals
  /// the decision); this entry point serves direct storage maintenance.
  PruneOutcome TrimVersions(HlcTimestamp min_ts) {
    VersionId keep_from = ResolveVersionAt(min_ts);
    if (keep_from == kInvalidVersionId) return {};
    return PruneVersionsBefore(keep_from);
  }

  const StorageStats& stats() const { return stats_; }
  StorageStats& mutable_stats() const { return stats_; }

  // ---- Durability support (persist/) ----
  // Read-side accessors used by snapshot serialization, plus restore entry
  // points used by recovery. Restore rebuilds the row-id index from the
  // latest version's live partitions (same content the live index had) and
  // each retained version's delta from the partition diff against its
  // predecessor.

  const std::vector<TableVersion>& all_versions() const { return versions_; }
  const std::unordered_map<PartitionId, std::shared_ptr<const MicroPartition>>&
  all_partitions() const {
    return partitions_;
  }
  size_t max_partition_rows() const { return max_partition_rows_; }
  PartitionId next_partition_id() const { return next_partition_id_; }
  RowId next_row_id() const { return next_row_id_; }
  /// WAL replay: restores the row-id allocator recorded at commit time.
  /// Forward-only — never rewinds.
  void RestoreNextRowId(RowId id) {
    if (id > next_row_id_) next_row_id_ = id;
  }

  /// Recovery: rebuilds a table from checkpoint state. `versions` must be
  /// non-empty and contiguous starting at `first_version`; `partitions` must
  /// contain every partition referenced by a retained live set.
  static std::unique_ptr<VersionedTable> Restore(
      Schema schema, size_t max_partition_rows, VersionId first_version,
      std::vector<TableVersion> versions,
      std::vector<MicroPartition> partitions, PartitionId next_partition_id,
      RowId next_row_id);

  /// Latest-version location of a row id through the row-id index, or
  /// nullptr if not stored. Does not bump counters.
  const RowLocation* FindRow(RowId id) const {
    auto it = row_index_.find(id);
    return it == row_index_.end() ? nullptr : &it->second;
  }

  /// The latest version's row with this id, or nullptr if not stored: one
  /// row-id index probe, no scan. The pointer stays valid until the table's
  /// next mutation; like every other index access, callers serialize with
  /// the table's single writer.
  const IdRow* FindLatestRow(RowId id) const {
    const RowLocation* loc = FindRow(id);
    return loc == nullptr ? nullptr
                          : &partition(loc->partition).row(loc->offset);
  }

 private:
  const MicroPartition& partition(PartitionId id) const;

  /// Appends rows as new partitions (chunked), registering them in
  /// `version`; when `delta_inserts` is set, also references each new
  /// partition there as wholly inserted.
  void AddRowsAsPartitions(std::vector<IdRow> rows, TableVersion* version,
                           std::vector<PartitionRows>* delta_inserts = nullptr);

  /// Registers `part` (its id freshly allocated) as live in `version` and
  /// indexes its rows.
  void AddPartition(std::shared_ptr<MicroPartition> part,
                    TableVersion* version);

  /// Delta of `next` rebuilt from its partition diff against `prev`: rows
  /// on both sides with identical content are copies, not changes. Restore
  /// uses it, since deltas are not serialized.
  std::shared_ptr<const VersionDelta> DiffDelta(const TableVersion& prev,
                                                const TableVersion& next) const;

  /// Shared body of the two Snapshot entry points; caller holds commit_mu_.
  ReadSnapshot SnapshotLocked(VersionId vid) const;

  Schema schema_;
  size_t max_partition_rows_;
  std::unordered_map<PartitionId, std::shared_ptr<const MicroPartition>> partitions_;
  std::vector<TableVersion> versions_;
  /// row id -> (partition, ordinal), maintained incrementally for the latest
  /// version across ApplyChanges commits (a view re-indexes its survivors); rebuilt wholesale only by
  /// Overwrite/Recluster. Turns delete location and validation into
  /// O(changes) point lookups instead of partition scans.
  std::unordered_map<RowId, RowLocation> row_index_;
  /// Id of versions_.front(); grows past 1 once retention GC prunes.
  VersionId first_version_ = 1;
  PartitionId next_partition_id_ = 1;
  RowId next_row_id_ = 1;
  MaintenanceHook maintenance_hook_;
  mutable StorageStats stats_;
  /// Guards version publication/pruning against serve-side snapshot
  /// acquisition (exclusive in mutators, shared in Snapshot*). Barrier-
  /// ordered refresh readers bypass it by design — see the class comment.
  mutable std::shared_mutex commit_mu_;
};

}  // namespace dvs

#endif  // DVS_STORAGE_VERSIONED_TABLE_H_
