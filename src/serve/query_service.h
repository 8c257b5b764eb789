// QueryService: the concurrent snapshot-read front end.
//
// The paper's fleets exist to be *read*: thousands of dynamic tables are
// refreshed on schedule precisely so that point lookups and scans against
// them are fresh. This subsystem is that reader side. Many threads issue
// queries through one QueryService while the scheduler refreshes the same
// DTs; each query
//
//   1. resolves its read timestamp per the §5 rule — a DT read resolves to
//      the latest *committed refresh* at or before the timestamp
//      (DynamicTableMeta::ResolveRead), a base-table read by commit time —
//   2. pins that version's immutable micro-partitions in one critical
//      section (VersionedTable::SnapshotVersion / SnapshotAtTime), and
//   3. executes lock-free over the pinned partitions through the columnar
//      batch representation, with a shared partition->batch cache so a
//      partition is converted once across all readers.
//
// Snapshot semantics: a single-DT read is Snapshot Isolation (§4) — the
// result is byte-identical to a quiesced re-read of the same resolved
// version, which is exactly what tests/serve_test.cc and bench_e19 assert.
//
// Admission: ServeOptions::max_concurrent_readers bounds in-flight queries
// the way Warehouse::concurrency() bounds co-located refreshes; excess
// readers queue on a condition variable and the wait is charged to their
// recorded latency (it is what a client would see).
//
// Cache safety: entries key on the partition pointer but *pin* the partition
// shared_ptr, so a recycled allocation address can never alias a stale
// entry, and batches (which own their string arenas) stay valid for readers
// holding them even after eviction.

#ifndef DVS_SERVE_QUERY_SERVICE_H_
#define DVS_SERVE_QUERY_SERVICE_H_

#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "dt/engine.h"
#include "exec/column_batch.h"
#include "obs/metrics.h"
#include "storage/versioned_table.h"

namespace dvs {
namespace serve {

struct ServeOptions {
  /// Max queries executing at once; 0 = unbounded. Excess readers block.
  int max_concurrent_readers = 0;
  /// Partition->batch cache entries across all shards before a shard-level
  /// eviction (epoch clear of the full shard); 0 disables caching.
  size_t batch_cache_capacity = 1 << 16;
  /// Metrics registry for the `serve.*` scrape-time gauges and latency
  /// histograms. All wall-clock-driven (arrival order, cache luck), so none
  /// are deterministic. Must outlive the service; nullptr disables.
  obs::Registry* metrics = nullptr;
};

enum class ReadKind {
  kPointLookup,  ///< Equality match on one column; matches are materialized.
  kScan,         ///< Full scan: row count, optional column sum, digest.
};

struct ReadQuery {
  ObjectId table = kInvalidObjectId;
  /// Read timestamp: DTs resolve by refresh timestamp (§5), base tables by
  /// commit time.
  Micros read_ts = 0;
  ReadKind kind = ReadKind::kScan;
  // Point lookups:
  int key_column = 0;
  Value key;
  // Scans: column to SUM (numeric), or -1 for count/digest only.
  int sum_column = -1;
};

struct ReadResult {
  /// Storage version the read resolved to.
  VersionId version = kInvalidVersionId;
  /// For DT reads: the refresh timestamp the read resolved to (-1 for base
  /// tables). A quiesced oracle re-read at this timestamp resolves the same
  /// version even if later refreshes with ts <= the original read_ts
  /// committed after this read resolved.
  Micros resolved_refresh_ts = -1;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  /// SUM over sum_column: integers accumulate exactly, doubles separately.
  int64_t sum_i64 = 0;
  double sum_f64 = 0;
  /// Order-sensitive digest over every matched row's (id, values) — the
  /// byte-identity witness the oracle compares.
  uint64_t digest = 0;
  /// Matched rows, materialized (point lookups only).
  std::vector<Row> rows;
  /// Admission wait + execution, as the client saw it.
  Micros latency_us = 0;
};

/// Snapshot of the service's counters (all monotonic except admission_peak).
struct ServeStats {
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t rows_scanned = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  ///< Shard clears, not entries.
  int admission_peak = 0;        ///< Max queries in flight at once.
};

class QueryService {
 public:
  /// `engine` must outlive the service. The service only reads through the
  /// engine's catalog; it never mutates catalog or storage state.
  explicit QueryService(DvsEngine* engine, ServeOptions options = {});
  /// Unregisters the `serve.*` metrics (their scrape callbacks capture
  /// `this`, so they must not outlive the service).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Executes one snapshot read. Thread-safe; any number of callers.
  Result<ReadResult> Execute(const ReadQuery& query);

  /// Wall-clock latencies of successful reads, in microseconds.
  const obs::Histogram& point_latency() const { return point_latency_; }
  const obs::Histogram& scan_latency() const { return scan_latency_; }
  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const MicroPartition> pin;
    BatchVector batches;
  };
  struct CacheShard {
    std::shared_mutex mu;
    std::unordered_map<const MicroPartition*, CacheEntry> map;
  };
  static constexpr size_t kCacheShards = 16;

  Result<ReadResult> DoExecute(const ReadQuery& query);
  /// Batches for one pinned partition, through the shared cache.
  BatchVector BatchesFor(const std::shared_ptr<const MicroPartition>& part);
  void ExecuteOverBatch(const ReadQuery& query, const ColumnBatch& batch,
                        ReadResult* result) const;

  DvsEngine* engine_;
  ServeOptions options_;

  std::array<CacheShard, kCacheShards> shards_;

  // Admission gate (mutex + condvar, the runtime/dag_runner idiom).
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int active_readers_ = 0;
  int admission_peak_ = 0;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_evictions_{0};

  obs::Histogram point_latency_;
  obs::Histogram scan_latency_;
};

}  // namespace serve
}  // namespace dvs

#endif  // DVS_SERVE_QUERY_SERVICE_H_
