#include "obs/introspect.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "obs/profile.h"

namespace dvs {
namespace obs {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

Value TimestampOrNull(Micros t) {
  return t < 0 ? Value::Null() : Value::Timestamp(t);
}

Schema RefreshHistorySchema() {
  Schema s;
  s.AddColumn("name", DataType::kString);
  s.AddColumn("state", DataType::kString);
  s.AddColumn("action", DataType::kString);
  s.AddColumn("data_timestamp", DataType::kTimestamp);
  s.AddColumn("refresh_start_time", DataType::kTimestamp);
  s.AddColumn("refresh_end_time", DataType::kTimestamp);
  s.AddColumn("rows_processed", DataType::kInt64);
  s.AddColumn("changes_applied", DataType::kInt64);
  s.AddColumn("dt_row_count", DataType::kInt64);
  s.AddColumn("attempts", DataType::kInt64);
  s.AddColumn("retry_backoff_us", DataType::kInt64);
  s.AddColumn("error_code", DataType::kString);
  s.AddColumn("error", DataType::kString);
  s.AddColumn("peak_lag_us", DataType::kInt64);
  s.AddColumn("trough_lag_us", DataType::kInt64);
  return s;
}

Result<sql::TableFunctionResult> RefreshHistory(
    DvsEngine* /*engine*/, Scheduler* scheduler,
    const std::vector<Value>& args) {
  if (args.size() > 1) {
    return UserError("refresh_history takes at most one argument (a DT name)");
  }
  std::string filter;
  bool filtered = false;
  if (args.size() == 1) {
    if (args[0].type() != DataType::kString) {
      return UserError("refresh_history argument must be a string DT name");
    }
    filter = Lower(args[0].string_value());
    filtered = true;
  }

  sql::TableFunctionResult out;
  out.schema = RefreshHistorySchema();
  if (scheduler == nullptr) return out;
  for (const RefreshRecord& rec : scheduler->log()) {
    if (filtered && rec.dt_name != filter) continue;
    const char* state =
        rec.skipped ? "SKIPPED" : (rec.failed ? "FAILED" : "SUCCEEDED");
    Row row;
    row.push_back(Value::String(rec.dt_name));
    row.push_back(Value::String(state));
    row.push_back(Value::String(RefreshActionName(rec.action)));
    row.push_back(TimestampOrNull(rec.data_timestamp));
    row.push_back(TimestampOrNull(rec.start_time));
    row.push_back(TimestampOrNull(rec.end_time));
    row.push_back(Value::Int(static_cast<int64_t>(rec.rows_processed)));
    row.push_back(Value::Int(static_cast<int64_t>(rec.changes_applied)));
    row.push_back(Value::Int(static_cast<int64_t>(rec.dt_row_count)));
    row.push_back(Value::Int(rec.attempts));
    row.push_back(Value::Int(rec.retry_backoff));
    row.push_back(Value::String(StatusCodeName(rec.error_code)));
    row.push_back(Value::String(rec.error));
    row.push_back(Value::Int(rec.peak_lag));
    row.push_back(Value::Int(rec.trough_lag));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Schema GraphHistorySchema() {
  Schema s;
  s.AddColumn("name", DataType::kString);
  s.AddColumn("id", DataType::kInt64);
  s.AddColumn("state", DataType::kString);
  s.AddColumn("refresh_mode", DataType::kString);
  s.AddColumn("target_lag", DataType::kString);
  s.AddColumn("effective_lag_us", DataType::kInt64);
  s.AddColumn("warehouse", DataType::kString);
  s.AddColumn("initialized", DataType::kBool);
  s.AddColumn("needs_reinit", DataType::kBool);
  s.AddColumn("data_timestamp", DataType::kTimestamp);
  s.AddColumn("refresh_count", DataType::kInt64);
  s.AddColumn("consecutive_failures", DataType::kInt64);
  s.AddColumn("transient_failures", DataType::kInt64);
  s.AddColumn("upstreams", DataType::kString);
  s.AddColumn("frontier", DataType::kString);
  return s;
}

Result<sql::TableFunctionResult> GraphHistory(DvsEngine* engine,
                                              Scheduler* scheduler,
                                              const std::vector<Value>& args) {
  if (args.size() > 1) {
    return UserError("graph_history takes at most one argument (a DT name)");
  }
  std::string filter;
  bool filtered = false;
  if (args.size() == 1) {
    if (args[0].type() != DataType::kString) {
      return UserError("graph_history argument must be a string DT name");
    }
    filter = Lower(args[0].string_value());
    filtered = true;
  }
  sql::TableFunctionResult out;
  out.schema = GraphHistorySchema();
  Catalog& catalog = engine->catalog();
  for (CatalogObject* obj : catalog.AllDynamicTables()) {
    if (filtered && obj->name != filter) continue;
    const DynamicTableMeta& meta = *obj->dt;
    Row row;
    row.push_back(Value::String(obj->name));
    row.push_back(Value::Int(static_cast<int64_t>(obj->id)));
    row.push_back(Value::String(meta.state == DtState::kSuspended ? "SUSPENDED"
                                                                  : "ACTIVE"));
    row.push_back(Value::String(meta.incremental ? "INCREMENTAL" : "FULL"));
    row.push_back(Value::String(meta.def.target_lag.ToString()));
    if (scheduler != nullptr) {
      std::optional<Micros> lag = scheduler->EffectiveTargetLag(obj->id);
      row.push_back(lag ? Value::Int(*lag) : Value::Null());
    } else {
      row.push_back(Value::Null());
    }
    row.push_back(Value::String(meta.def.warehouse));
    row.push_back(Value::Bool(meta.initialized));
    row.push_back(Value::Bool(meta.needs_reinit));
    row.push_back(TimestampOrNull(meta.data_timestamp));
    row.push_back(Value::Int(static_cast<int64_t>(meta.refresh_versions.size())));
    row.push_back(Value::Int(meta.consecutive_failures));
    row.push_back(Value::Int(meta.transient_failures));

    std::vector<std::string> upstreams;
    for (ObjectId up : catalog.UpstreamDynamicTables(obj->id)) {
      Result<const CatalogObject*> up_obj =
          static_cast<const Catalog&>(catalog).FindById(up);
      if (up_obj.ok()) upstreams.push_back(up_obj.value()->name);
    }
    std::sort(upstreams.begin(), upstreams.end());
    std::string joined;
    for (const std::string& u : upstreams) {
      if (!joined.empty()) joined += ",";
      joined += u;
    }
    row.push_back(Value::String(joined));

    // Frontier (§5.3): "source:version" pairs, name-sorted so the rendering
    // never depends on unordered_map iteration order.
    std::vector<std::string> frontier;
    for (const auto& [src_id, version] : meta.frontier) {
      Result<const CatalogObject*> src =
          static_cast<const Catalog&>(catalog).FindById(src_id);
      std::string src_name =
          src.ok() ? src.value()->name : "#" + std::to_string(src_id);
      frontier.push_back(src_name + ":" + std::to_string(version));
    }
    std::sort(frontier.begin(), frontier.end());
    std::string frontier_joined;
    for (const std::string& f : frontier) {
      if (!frontier_joined.empty()) frontier_joined += ",";
      frontier_joined += f;
    }
    row.push_back(Value::String(frontier_joined));

    out.rows.push_back(std::move(row));
  }
  return out;
}

Schema RefreshProfileSchema() {
  Schema s;
  s.AddColumn("name", DataType::kString);
  s.AddColumn("refresh_ts", DataType::kTimestamp);
  s.AddColumn("action", DataType::kString);
  s.AddColumn("outcome", DataType::kString);
  s.AddColumn("operator", DataType::kString);
  s.AddColumn("op_tag", DataType::kInt64);
  s.AddColumn("rows_in", DataType::kInt64);
  s.AddColumn("rows_out", DataType::kInt64);
  s.AddColumn("batches", DataType::kInt64);
  s.AddColumn("join_build_hits", DataType::kInt64);
  s.AddColumn("join_build_misses", DataType::kInt64);
  s.AddColumn("join_probe_hits", DataType::kInt64);
  s.AddColumn("join_probe_misses", DataType::kInt64);
  s.AddColumn("batch_cache_hits", DataType::kInt64);
  s.AddColumn("batch_cache_misses", DataType::kInt64);
  s.AddColumn("sel_memo_hits", DataType::kInt64);
  s.AddColumn("vector_bails", DataType::kInt64);
  s.AddColumn("row_redos", DataType::kInt64);
  s.AddColumn("state_groups", DataType::kInt64);
  s.AddColumn("recomputed_groups", DataType::kInt64);
  // Wall-clock columns come LAST so deterministic consumers (bench_e21) can
  // project them away and byte-compare the rest across worker counts.
  s.AddColumn("wall_ns", DataType::kInt64);
  return s;
}

/// REFRESH_PROFILE(name, k?): one row per (retained profile, plan operator)
/// of the named DT, oldest profile first, operators in plan pre-order. `k`
/// limits output to the k most recent retained profiles.
Result<sql::TableFunctionResult> RefreshProfileFn(
    DvsEngine* engine, const std::vector<Value>& args) {
  if (args.empty() || args.size() > 2) {
    return UserError(
        "refresh_profile takes a DT name and an optional profile count");
  }
  if (args[0].type() != DataType::kString) {
    return UserError("refresh_profile argument must be a string DT name");
  }
  size_t limit = kProfileRingCapacity;
  if (args.size() == 2) {
    if (args[1].type() != DataType::kInt64 || args[1].int_value() < 1) {
      return UserError(
          "refresh_profile count must be a positive integer literal");
    }
    limit = static_cast<size_t>(args[1].int_value());
  }
  const std::string name = Lower(args[0].string_value());
  DVS_ASSIGN_OR_RETURN(const CatalogObject* obj,
                       static_cast<const Catalog&>(engine->catalog()).Find(name));
  if (obj->kind != ObjectKind::kDynamicTable) {
    return UserError("'" + name + "' is not a dynamic table");
  }

  sql::TableFunctionResult out;
  out.schema = RefreshProfileSchema();
  std::vector<std::shared_ptr<const RefreshProfile>> profiles =
      obj->dt->ProfileSnapshot();
  const size_t first =
      profiles.size() > limit ? profiles.size() - limit : 0;
  for (size_t p = first; p < profiles.size(); ++p) {
    const RefreshProfile& prof = *profiles[p];
    const auto& ops = prof.sink.operators();
    for (size_t i = 0; i < ops.size(); ++i) {
      static const OpStats kZero;
      const OpStats* s = prof.sink.Find(ops[i].tag);
      if (s == nullptr) s = &kZero;
      Row row;
      row.push_back(Value::String(prof.dt_name));
      row.push_back(Value::Timestamp(prof.refresh_ts));
      row.push_back(Value::String(prof.action));
      row.push_back(Value::String(prof.outcome));
      row.push_back(Value::String(
          std::string(static_cast<size_t>(ops[i].depth) * 2, ' ') +
          ops[i].label));
      row.push_back(Value::Int(static_cast<int64_t>(ops[i].tag)));
      row.push_back(Value::Int(static_cast<int64_t>(prof.sink.RowsInOf(i))));
      row.push_back(Value::Int(static_cast<int64_t>(s->rows_out)));
      row.push_back(Value::Int(static_cast<int64_t>(s->batches)));
      row.push_back(Value::Int(static_cast<int64_t>(s->join_build_hits)));
      row.push_back(Value::Int(static_cast<int64_t>(s->join_build_misses)));
      row.push_back(Value::Int(static_cast<int64_t>(s->join_probe_hits)));
      row.push_back(Value::Int(static_cast<int64_t>(s->join_probe_misses)));
      row.push_back(Value::Int(static_cast<int64_t>(s->batch_cache_hits)));
      row.push_back(Value::Int(static_cast<int64_t>(s->batch_cache_misses)));
      row.push_back(Value::Int(static_cast<int64_t>(s->sel_memo_hits)));
      row.push_back(Value::Int(static_cast<int64_t>(s->vector_bails)));
      row.push_back(Value::Int(static_cast<int64_t>(s->row_redos)));
      row.push_back(Value::Int(static_cast<int64_t>(s->state_groups)));
      row.push_back(Value::Int(static_cast<int64_t>(s->recomputed_groups)));
      row.push_back(Value::Int(static_cast<int64_t>(s->wall_ns)));
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace

sql::TableFunctionProvider MakeIntrospectionProvider(DvsEngine* engine,
                                                     Scheduler* scheduler) {
  return [engine, scheduler](const std::string& name,
                             const std::vector<Value>& args)
             -> Result<sql::TableFunctionResult> {
    // The lexer lower-cases identifiers, but accept any casing defensively.
    std::string lowered = Lower(name);
    if (lowered == "refresh_history") {
      return RefreshHistory(engine, scheduler, args);
    }
    if (lowered == "graph_history") {
      return GraphHistory(engine, scheduler, args);
    }
    if (lowered == "refresh_profile") {
      return RefreshProfileFn(engine, args);
    }
    return UserError(
        "unknown table function '" + name +
        "' (available: refresh_history, graph_history, refresh_profile)");
  };
}

void InstallIntrospection(DvsEngine* engine, Scheduler* scheduler) {
  engine->set_table_function_provider(
      MakeIntrospectionProvider(engine, scheduler));
}

namespace {

/// StorageStats counters aggregated over the catalog, one metric each.
struct StorageField {
  const char* name;
  const char* help;
  bool deterministic;
  Counter StorageStats::* field;
};

constexpr StorageField kStorageFields[] = {
    {"storage.partitions_created", "Micro-partitions written", true,
     &StorageStats::partitions_created},
    {"storage.rows_written", "Rows copied into new partitions", true,
     &StorageStats::rows_written},
    {"storage.rows_rewritten_copy", "Copy-on-write amplification rows", true,
     &StorageStats::rows_rewritten_copy},
    {"storage.rows_kept_in_place",
     "Delete survivors kept by reference in a view", true,
     &StorageStats::rows_kept_in_place},
    {"storage.change_scan_raw_rows", "Change-scan rows before cancellation",
     true, &StorageStats::change_scan_raw_rows},
    {"storage.change_scan_net_rows", "Change-scan rows after cancellation",
     true, &StorageStats::change_scan_net_rows},
    {"storage.index_lookups", "Row-id index point lookups", true,
     &StorageStats::index_lookups},
    {"storage.index_entries_added", "Row-id index entries written", true,
     &StorageStats::index_entries_added},
    {"storage.index_entries_removed", "Row-id index entries erased", true,
     &StorageStats::index_entries_removed},
    {"storage.index_rebuilds", "Full row-id index rebuilds", true,
     &StorageStats::index_rebuilds},
    {"storage.versions_pruned", "Versions dropped by retention GC", true,
     &StorageStats::versions_pruned},
    {"storage.partitions_freed", "Partitions freed by retention GC", true,
     &StorageStats::partitions_freed},
    // Serve-driven: depends on wall-clock read arrival, never gated.
    {"storage.snapshot_pins", "Serve read snapshots taken", false,
     &StorageStats::snapshot_pins},
    {"storage.snapshot_read_rows", "Rows scanned via serve snapshots", false,
     &StorageStats::snapshot_read_rows},
};

int64_t SumStorageField(DvsEngine* engine, Counter StorageStats::* field) {
  uint64_t total = 0;
  Catalog& catalog = engine->catalog();
  size_t n = catalog.object_count();
  for (size_t i = 0; i < n; ++i) {
    const CatalogObject* obj = catalog.ObjectAt(i);
    if (obj->storage) total += (obj->storage->stats().*field).value();
  }
  return static_cast<int64_t>(total);
}

}  // namespace

EngineMetrics::EngineMetrics(DvsEngine* engine, Registry* registry)
    : registry_(registry) {
  for (const StorageField& f : kStorageFields) {
    registry_->RegisterGaugeFn(
        f.name, f.help, f.deterministic,
        [engine, field = f.field]() { return SumStorageField(engine, field); });
    names_.push_back(f.name);
  }

  struct DtField {
    const char* name;
    const char* help;
    int64_t (*fn)(const CatalogObject&);
  };
  static constexpr DtField kDtFields[] = {
      {"dt.count", "Dynamic tables in the catalog",
       [](const CatalogObject&) -> int64_t { return 1; }},
      {"dt.suspended", "Suspended dynamic tables",
       [](const CatalogObject& o) -> int64_t {
         return o.dt->state == DtState::kSuspended ? 1 : 0;
       }},
      {"dt.initialized", "Initialized dynamic tables",
       [](const CatalogObject& o) -> int64_t {
         return o.dt->initialized ? 1 : 0;
       }},
      {"dt.needs_reinit", "DTs pending REINITIALIZE after upstream DDL",
       [](const CatalogObject& o) -> int64_t {
         return o.dt->needs_reinit ? 1 : 0;
       }},
      {"dt.consecutive_failures", "Sum of per-DT consecutive failures",
       [](const CatalogObject& o) -> int64_t {
         return o.dt->consecutive_failures;
       }},
      {"dt.transient_failures", "Sum of per-DT transient failures",
       [](const CatalogObject& o) -> int64_t {
         return o.dt->transient_failures;
       }},
  };
  for (const DtField& f : kDtFields) {
    registry_->RegisterGaugeFn(f.name, f.help, /*deterministic=*/true,
                               [engine, fn = f.fn]() {
                                 int64_t total = 0;
                                 for (CatalogObject* obj :
                                      engine->catalog().AllDynamicTables()) {
                                   total += fn(*obj);
                                 }
                                 return total;
                               });
    names_.push_back(f.name);
  }

  // exec.* / storage.batch_cache.*: the process-global ExecCounters
  // (obs/profile.h), reported as deltas against their values at registration
  // time. The delta keeps per-run registries comparable when several runs
  // share one process (the bench determinism gates run workers=0 and
  // workers=4 sequentially and byte-compare the scrapes).
  struct ExecField {
    const char* name;
    const char* help;
    Counter ExecCounters::* field;
  };
  static constexpr ExecField kExecFields[] = {
      {"exec.join_cache.hits", "Batch join-cache hits (build + probe)",
       &ExecCounters::join_cache_hits},
      {"exec.join_cache.misses", "Batch join-cache misses (build + probe)",
       &ExecCounters::join_cache_misses},
      {"storage.batch_cache.hits", "Partition->batch cache hits",
       &ExecCounters::batch_cache_hits},
      {"storage.batch_cache.misses", "Partition->batch conversions",
       &ExecCounters::batch_cache_misses},
      {"exec.row_redos", "Row-wise redo fallbacks after vector-eval errors",
       &ExecCounters::row_redos},
  };
  for (const ExecField& f : kExecFields) {
    const uint64_t base = (ExecCounters::Instance().*f.field).value();
    registry_->RegisterGaugeFn(
        f.name, f.help, /*deterministic=*/true, [base, field = f.field]() {
          return static_cast<int64_t>(
              (ExecCounters::Instance().*field).value() - base);
        });
    names_.push_back(f.name);
  }
}

EngineMetrics::~EngineMetrics() {
  for (const std::string& name : names_) registry_->Unregister(name);
}

}  // namespace obs
}  // namespace dvs
