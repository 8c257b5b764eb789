// Columnar scan adapters over versioned storage.
//
// Micro-partitions are immutable, so converting one to a ColumnBatch is a
// pure function of the partition. A refresh converts each partition at most
// once (PartitionBatchCache) and — crucially — shares the cache between the
// interval's two snapshot endpoints: partitions live at both versions
// resolve to pointer-identical BatchPtrs, which the batch engine's join
// probe cache and the differentiator's restrict cache key on. That turns
// the second endpoint's execution over unchanged data into cache hits.

#ifndef DVS_STORAGE_BATCH_SCAN_H_
#define DVS_STORAGE_BATCH_SCAN_H_

#include <unordered_map>

#include "exec/column_batch.h"
#include "storage/versioned_table.h"

namespace dvs {

/// Per-refresh partition->batches conversion memo. Keys are raw partition
/// pointers: partitions are immutable and outlive the refresh (retention GC
/// never runs concurrently with a refresh that scans the table).
using PartitionBatchCache =
    std::unordered_map<const MicroPartition*, BatchVector>;

/// Converts one micro-partition's selected rows to column batches,
/// preserving row order and ids. Usually a single batch; rows of differing widths (possible in base
/// tables, which do not validate row width) split into one batch per
/// maximal uniform-width run so every batch has a well-defined width.
BatchVector PartitionToBatches(const MicroPartition& p);

/// The table's contents at `version` as column batches, in ScanAt order.
/// `cache` (optional) memoizes per-partition conversions.
BatchVector ScanBatchesAt(const VersionedTable& table, VersionId version,
                          PartitionBatchCache* cache);

}  // namespace dvs

#endif  // DVS_STORAGE_BATCH_SCAN_H_
