// DvsEngine: the embeddable "account" facade — a catalog, transaction
// manager, refresh engine, and warehouse pool behind a SQL entry point.
//
// This is the public API most users touch (see examples/): execute DDL/DML/
// queries, create dynamic tables, trigger manual refreshes, and inspect
// state. The scheduler (sched/) drives refreshes automatically on top of
// this class.

#ifndef DVS_DT_ENGINE_H_
#define DVS_DT_ENGINE_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "dt/isolation_recorder.h"
#include "dt/refresh.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "txn/transaction_manager.h"
#include "warehouse/warehouse.h"

namespace dvs {

/// Isolation guarantee surfaced for a query, per §4: a transaction reading a
/// single DT (and nothing else) gets Snapshot Isolation; reads mixing DTs
/// with other tables get Read Committed.
enum class QueryIsolation { kSnapshotIsolation, kReadCommitted };

const char* QueryIsolationName(QueryIsolation i);

struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  QueryIsolation isolation = QueryIsolation::kReadCommitted;
  /// Human-readable status for DDL/DML ("Dynamic table X created", ...).
  std::string message;
  int64_t affected_rows = 0;
};

class DvsEngine {
 public:
  /// `clock` must outlive the engine. Typically a VirtualClock driven by the
  /// caller or the scheduler.
  explicit DvsEngine(const Clock& clock,
                     RefreshEngineOptions refresh_options = {})
      : clock_(clock),
        txn_(clock),
        refresh_(&catalog_, &txn_, refresh_options) {}

  DvsEngine(const DvsEngine&) = delete;
  DvsEngine& operator=(const DvsEngine&) = delete;

  /// Executes one SQL statement (DDL, DML, SELECT, or ALTER DYNAMIC TABLE).
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes a SELECT and returns its rows (error on non-SELECT).
  Result<QueryResult> Query(const std::string& sql);

  /// Executes a SELECT with every table resolved as of data timestamp `ts`
  /// under DVS rules (base tables by commit time, DTs by exact refresh
  /// version). This is the paper's property-testing oracle (§6.1): a DT must
  /// equal its defining query evaluated this way at its data timestamp.
  Result<std::vector<Row>> QueryAsOf(const std::string& select_sql, Micros ts);

  /// Change query (the Streams heritage the paper builds on, ref [5]): the
  /// net logical changes of a table or DT between two data timestamps, as
  /// rows extended with $ACTION and $ROW_ID metadata columns. For DTs the
  /// endpoints resolve by refresh timestamp; for base tables by commit time.
  Result<QueryResult> QueryChanges(const std::string& table, Micros from_ts,
                                   Micros to_ts);

  // ---- direct access for the scheduler, benches, and tests ----

  Catalog& catalog() { return catalog_; }
  TransactionManager& txn() { return txn_; }
  RefreshEngine& refresh_engine() { return refresh_; }
  WarehousePool& warehouses() { return warehouses_; }
  const Clock& clock() const { return clock_; }

  /// Looks up an object id by name.
  Result<ObjectId> ObjectIdOf(const std::string& name) const;

  /// Starts recording the workload as a §4 transaction history: DML commits
  /// become writes, refreshes become derivations, SELECTs become reads.
  /// DetectPhenomena(recorder().history()) then audits the live pipeline.
  void EnableIsolationRecording();
  const IsolationRecorder* recorder() const { return recorder_.get(); }

  /// Installs the table-function provider for *direct* SELECTs — the
  /// paper-style introspection surfaces (REFRESH_HISTORY, GRAPH_HISTORY;
  /// see obs/introspect.h). DT/view definitions always bind without it, so
  /// scheduler-state-dependent functions cannot leak into persisted plans.
  /// State captured by the provider must outlive the engine (or install {}
  /// before it dies).
  void set_table_function_provider(sql::TableFunctionProvider provider) {
    table_fns_ = std::move(provider);
  }

 private:
  /// Records the versions a SELECT resolved (recorder enabled only).
  void RecordQueryReads(const PlanPtr& plan);
  Result<QueryResult> ExecuteStatement(const sql::Statement& stmt);
  Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt);
  Result<QueryResult> ExecuteExplain(const sql::ExplainStmt& stmt);
  Result<QueryResult> ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecuteCreateView(const sql::CreateViewStmt& stmt);
  Result<QueryResult> ExecuteCreateDt(const sql::CreateDynamicTableStmt& stmt);
  Result<QueryResult> ExecuteDrop(const sql::DropStmt& stmt);
  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt);
  Result<QueryResult> ExecuteAlterDt(const sql::AlterDtStmt& stmt);

  const Clock& clock_;
  Catalog catalog_;
  TransactionManager txn_;
  RefreshEngine refresh_;
  WarehousePool warehouses_;
  std::unique_ptr<IsolationRecorder> recorder_;
  sql::TableFunctionProvider table_fns_;
};

}  // namespace dvs

#endif  // DVS_DT_ENGINE_H_
