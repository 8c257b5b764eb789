// Checkpoint serialization: a SystemImage is a complete, deterministic
// capture of an engine (catalog, storage, warehouses, transaction clock)
// plus optional scheduler state, encodable to bytes and installable into a
// fresh engine.
//
// Determinism matters twice: the recovery gates compare the *encoded* image
// of a recovered system against the live one ("byte-identical"), so every
// unordered container is serialized in sorted order; and the crash-point
// property test uses the encoding as the system fingerprint.
//
// What is deliberately not captured:
//  - Logical plans. They are rebound from the persisted defining SQL at
//    install time; the recorded dependency list (not the fresh bind) is
//    installed so §5.4 query-evolution checks behave exactly as live.
//  - StorageStats counters (read-side counters advance on unjournaled
//    queries, so they cannot round-trip; all gated state lives elsewhere).
//  - The isolation recorder (a diagnostic, enabled per run).

#ifndef DVS_PERSIST_SNAPSHOT_H_
#define DVS_PERSIST_SNAPSHOT_H_

#include <string>
#include <utility>
#include <vector>

#include "dt/engine.h"
#include "persist/format.h"
#include "sched/scheduler.h"

namespace dvs {
namespace persist {

struct TableImage {
  Schema schema;
  uint64_t max_partition_rows = 4096;
  VersionId first_version = 1;
  std::vector<TableVersion> versions;
  std::vector<MicroPartition> partitions;  ///< Sorted by id.
  PartitionId next_partition_id = 1;
  RowId next_row_id = 1;
};

/// One table's storage image and its codec, the per-table part of a
/// checkpoint. Capture shares the partitions' row payloads; encoding writes
/// each partition's selected rows, so a view and the materialized
/// partition it decodes into encode identically.
TableImage CaptureTable(const VersionedTable& table);
void EncodeTableImage(Encoder* e, const TableImage& t);
TableImage DecodeTableImage(Decoder* d);

struct DtImage {
  DynamicTableDef def;
  bool incremental = false;
  uint8_t state = 0;  ///< DtState.
  int consecutive_failures = 0;
  int transient_failures = 0;
  bool initialized = false;
  Micros data_timestamp = -1;
  std::vector<std::pair<Micros, VersionId>> refresh_versions;  ///< Sorted.
  std::vector<std::pair<ObjectId, VersionId>> frontier;        ///< Sorted.
  std::vector<TrackedDependency> dependencies;
  bool needs_reinit = false;
};

struct ObjectImage {
  ObjectId id = kInvalidObjectId;
  std::string name;
  uint8_t kind = 0;  ///< ObjectKind.
  bool dropped = false;
  Micros min_data_retention = -1;
  bool has_storage = false;
  TableImage storage;
  std::string view_sql;
  bool has_dt = false;
  DtImage dt;
};

struct WarehouseImage {
  std::string name;
  int size = 1;
  int concurrency = 1;
  bool concurrency_pinned = false;
  Micros auto_suspend = 0;
  Micros busy_until = -1;
  Micros billed = 0;
  int resumes = 0;
};

struct GrantImage {
  ObjectId object = kInvalidObjectId;
  std::string role;
  std::vector<uint8_t> privileges;  ///< Sorted Privilege values.
};

struct SystemImage {
  HlcTimestamp hlc_last;
  Micros clock_now = 0;
  std::vector<ObjectImage> objects;  ///< In id order, dropped included.
  std::vector<DdlEvent> ddl_log;
  std::vector<GrantImage> grants;
  std::vector<WarehouseImage> warehouses;
  bool has_sched = false;
  SchedulerPersistState sched;
};

/// Captures the full persistent state of `engine` (and, when non-null, the
/// scheduler state). Must not race the execute phase: call from the
/// finalize phase or between ticks.
SystemImage CaptureSystemImage(DvsEngine& engine,
                               const SchedulerPersistState* sched);

/// Deterministic byte encoding — the recovery fingerprint.
std::string EncodeSystemImage(const SystemImage& image);
Result<SystemImage> DecodeSystemImage(std::string_view data);

/// Restores `image` into a freshly constructed engine (empty catalog).
/// Rebinds view/DT plans from their persisted SQL; a DT whose upstream was
/// replaced after its last rebind gets the current catalog's plan while its
/// recorded dependencies trigger the same REINITIALIZE the live system
/// would run (§5.4). Scheduler state, when present, is returned through
/// `sched_out`.
Status InstallSystemImage(const SystemImage& image, DvsEngine* engine,
                          SchedulerPersistState* sched_out);

/// Checkpoint file IO. A checkpoint is valid only if every frame checks out
/// and the terminator record is present.
Status WriteCheckpointFile(const std::string& path, uint64_t seq,
                           const SystemImage& image, uint64_t* bytes_out);
Result<SystemImage> ReadCheckpointFile(const std::string& path,
                                       uint64_t* seq_out);

}  // namespace persist
}  // namespace dvs

#endif  // DVS_PERSIST_SNAPSHOT_H_
