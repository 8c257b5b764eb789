#include "serve/query_service.h"

#include <chrono>
#include <functional>

#include "obs/trace.h"
#include "storage/batch_scan.h"

namespace dvs {
namespace serve {

namespace {

/// Order-sensitive digest fold (boost::hash_combine's mixer). Scan order of
/// a version is deterministic (sorted partition ids, row order within), so
/// the fold is a stable witness of the scanned bytes.
inline uint64_t MixDigest(uint64_t digest, uint64_t h) {
  return digest ^ (h + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2));
}

/// Per-row content hash from the columnar representation: row id plus every
/// column's tag-exact element hash (BatchColumn::HashAt is bit-exact with
/// Value::Hash, so the digest is representation-independent).
inline uint64_t HashBatchRow(const ColumnBatch& batch, size_t i) {
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(batch.ids[i]);
  for (const ColumnPtr& col : batch.cols) {
    h = (h * 0x100000001b3ULL) ^ col->HashAt(i);
  }
  return h;
}

}  // namespace

namespace {

/// Names of every metric the service registers; the dtor unregisters them.
constexpr const char* kServeMetricNames[] = {
    "serve.queries",        "serve.errors",
    "serve.rows_scanned",   "serve.cache_hits",
    "serve.cache_misses",   "serve.cache_evictions",
    "serve.admission_peak", "serve.point_latency_us",
    "serve.scan_latency_us",
};

}  // namespace

QueryService::QueryService(DvsEngine* engine, ServeOptions options)
    : engine_(engine), options_(options) {
  if (options_.metrics == nullptr) return;
  obs::Registry& reg = *options_.metrics;
  // Scrape-time callbacks over the live counters (the counters stay the
  // source of truth — ServeStats keeps working without a registry). Every
  // serve metric is wall-clock-driven, hence deterministic=false.
  auto gauge = [&reg, this](const char* name, const char* help,
                            const std::atomic<uint64_t>* v) {
    reg.RegisterGaugeFn(name, help, /*deterministic=*/false, [v] {
      return static_cast<int64_t>(v->load(std::memory_order_relaxed));
    });
  };
  gauge("serve.queries", "Read queries executed", &queries_);
  gauge("serve.errors", "Read queries that failed", &errors_);
  gauge("serve.rows_scanned", "Rows scanned by read queries", &rows_scanned_);
  gauge("serve.cache_hits", "Batch-cache hits", &cache_hits_);
  gauge("serve.cache_misses", "Batch-cache misses", &cache_misses_);
  gauge("serve.cache_evictions", "Batch-cache shard evictions",
        &cache_evictions_);
  reg.RegisterGaugeFn("serve.admission_peak",
                      "Max concurrent read queries observed",
                      /*deterministic=*/false, [this] {
                        std::lock_guard<std::mutex> lock(admission_mu_);
                        return static_cast<int64_t>(admission_peak_);
                      });
  reg.RegisterHistogramFn("serve.point_latency_us", "Point-lookup latency",
                          /*deterministic=*/false,
                          [this] { return point_latency_.Export(); });
  reg.RegisterHistogramFn("serve.scan_latency_us", "Scan latency",
                          /*deterministic=*/false,
                          [this] { return scan_latency_.Export(); });
}

QueryService::~QueryService() {
  if (options_.metrics == nullptr) return;
  for (const char* name : kServeMetricNames) options_.metrics->Unregister(name);
}

Result<ReadResult> QueryService::Execute(const ReadQuery& query) {
  const auto wall_start = std::chrono::steady_clock::now();
  obs::TraceSpan span(
      "serve", query.kind == ReadKind::kPointLookup ? "query.point" : "query.scan");

  // Admission: RAII gate so early returns release the slot. The wait (if
  // any) counts toward the recorded latency — it is what the client sees.
  struct Gate {
    QueryService* s;
    explicit Gate(QueryService* svc) : s(svc) {
      std::unique_lock<std::mutex> lock(s->admission_mu_);
      if (s->options_.max_concurrent_readers > 0) {
        s->admission_cv_.wait(lock, [&] {
          return s->active_readers_ < s->options_.max_concurrent_readers;
        });
      }
      ++s->active_readers_;
      if (s->active_readers_ > s->admission_peak_) {
        s->admission_peak_ = s->active_readers_;
      }
    }
    ~Gate() {
      {
        std::lock_guard<std::mutex> lock(s->admission_mu_);
        --s->active_readers_;
      }
      s->admission_cv_.notify_one();
    }
  } gate(this);

  queries_.fetch_add(1, std::memory_order_relaxed);
  Result<ReadResult> result = DoExecute(query);
  const Micros latency = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  if (result.ok()) {
    result.value().latency_us = latency;
    (query.kind == ReadKind::kPointLookup ? point_latency_ : scan_latency_)
        .Record(latency);
    if (span.armed()) {
      span.AddArg("rows_scanned",
                  static_cast<int64_t>(result.value().rows_scanned));
    }
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Result<ReadResult> QueryService::DoExecute(const ReadQuery& query) {
  DVS_ASSIGN_OR_RETURN(const CatalogObject* obj,
                       static_cast<const Catalog&>(engine_->catalog())
                           .FindById(query.table));
  if (obj->storage == nullptr) {
    return InvalidArgument("object '" + obj->name +
                           "' has no storage; views are not servable");
  }

  ReadResult out;
  ReadSnapshot snap;
  if (obj->kind == ObjectKind::kDynamicTable) {
    // §5 read-resolution rule: a DT read resolves to the latest *committed
    // refresh* at or before the read timestamp, never to wall-clock commit
    // order of the underlying storage.
    auto resolved = obj->dt->ResolveRead(query.read_ts);
    if (!resolved.has_value()) {
      return FailedPrecondition("dynamic table '" + obj->name +
                                "' has no committed refresh at or before t=" +
                                std::to_string(query.read_ts));
    }
    out.resolved_refresh_ts = resolved->first;
    DVS_ASSIGN_OR_RETURN(snap, obj->storage->SnapshotVersion(resolved->second));
  } else {
    // Base tables resolve by commit time, resolution and pinning in one
    // critical section.
    DVS_ASSIGN_OR_RETURN(
        snap, obj->storage->SnapshotAtTime(HlcTimestamp::AtWallTime(query.read_ts)));
  }
  out.version = snap.version;

  for (const auto& part : snap.partitions) {
    for (const BatchPtr& batch : BatchesFor(part)) {
      ExecuteOverBatch(query, *batch, &out);
    }
  }

  rows_scanned_.fetch_add(out.rows_scanned, std::memory_order_relaxed);
  obj->storage->mutable_stats().snapshot_read_rows += out.rows_scanned;
  return out;
}

void QueryService::ExecuteOverBatch(const ReadQuery& query,
                                    const ColumnBatch& batch,
                                    ReadResult* out) const {
  out->rows_scanned += batch.rows;

  if (query.kind == ReadKind::kPointLookup) {
    if (static_cast<size_t>(query.key_column) >= batch.width() ||
        query.key_column < 0) {
      return;  // ragged-width batch without the key column: nothing matches
    }
    const BatchColumn& col = *batch.cols[query.key_column];
    auto emit = [&](size_t i) {
      out->rows_matched += 1;
      out->digest = MixDigest(out->digest, HashBatchRow(batch, i));
      out->rows.push_back(MaterializeRow(batch, i));
    };
    if (col.lane() == BatchColumn::Lane::kI64 &&
        col.elem_tag() == DataType::kInt64 &&
        query.key.type() == DataType::kInt64) {
      const int64_t k = query.key.int_value();
      const std::vector<int64_t>& lane = col.i64();
      for (size_t i = 0; i < batch.rows; ++i) {
        if (!col.IsNull(i) && lane[i] == k) emit(i);
      }
    } else if (col.lane() == BatchColumn::Lane::kStr &&
               query.key.type() == DataType::kString) {
      const std::string_view k = query.key.string_value();
      const std::vector<std::string_view>& lane = col.str();
      for (size_t i = 0; i < batch.rows; ++i) {
        if (!col.IsNull(i) && lane[i] == k) emit(i);
      }
    } else {
      for (size_t i = 0; i < batch.rows; ++i) {
        if (!col.IsNull(i) && col.EqualsValueAt(i, query.key)) emit(i);
      }
    }
    return;
  }

  // kScan: digest every row (the byte-identity witness) and sum the
  // requested column.
  for (size_t i = 0; i < batch.rows; ++i) {
    out->rows_matched += 1;
    out->digest = MixDigest(out->digest, HashBatchRow(batch, i));
  }
  if (query.sum_column < 0 ||
      static_cast<size_t>(query.sum_column) >= batch.width()) {
    return;
  }
  const BatchColumn& col = *batch.cols[query.sum_column];
  switch (col.lane()) {
    case BatchColumn::Lane::kI64: {
      const std::vector<int64_t>& lane = col.i64();
      for (size_t i = 0; i < batch.rows; ++i) {
        if (!col.IsNull(i)) out->sum_i64 += lane[i];
      }
      break;
    }
    case BatchColumn::Lane::kF64: {
      const std::vector<double>& lane = col.f64();
      for (size_t i = 0; i < batch.rows; ++i) {
        if (!col.IsNull(i)) out->sum_f64 += lane[i];
      }
      break;
    }
    default: {
      for (size_t i = 0; i < batch.rows; ++i) {
        if (col.IsNull(i)) continue;
        Value v = col.GetValue(i);
        if (v.type() == DataType::kInt64) {
          out->sum_i64 += v.int_value();
        } else if (v.type() == DataType::kDouble) {
          out->sum_f64 += v.double_value();
        }
      }
      break;
    }
  }
}

BatchVector QueryService::BatchesFor(
    const std::shared_ptr<const MicroPartition>& part) {
  if (options_.batch_cache_capacity == 0) return PartitionToBatches(*part);

  CacheShard& shard =
      shards_[std::hash<const void*>{}(part.get()) % kCacheShards];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(part.get());
    if (it != shard.map.end()) {
      // No ABA: the entry's pin keeps its partition alive, so a live cached
      // address can never be a recycled allocation of a different partition.
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.batches;
    }
  }

  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  BatchVector converted = PartitionToBatches(*part);
  const size_t shard_cap = options_.batch_cache_capacity / kCacheShards + 1;
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.map.size() >= shard_cap) {
    // Epoch clear: evicted batches stay valid for readers holding them
    // (batches own their string arenas and are shared_ptrs).
    shard.map.clear();
    cache_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  auto [it, inserted] = shard.map.try_emplace(part.get());
  if (inserted) {
    it->second.pin = part;
    it->second.batches = converted;
  }
  return converted;
}

ServeStats QueryService::stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    s.admission_peak = admission_peak_;
  }
  return s;
}

}  // namespace serve
}  // namespace dvs
