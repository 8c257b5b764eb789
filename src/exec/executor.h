// Full (non-incremental) plan execution at a snapshot, and the row kernels
// the batch engine and the differentiator share.
//
// Every plan runs on the batch engine (exec/batch_exec.h); ExecutePlan is
// its row-returning entry point. Scans are resolved through a
// caller-provided callback so the executor has no dependency on the
// catalog/storage wiring; the dt module supplies resolvers that read the
// correct table versions for DVS.
//
// Every output row carries its algebraic row id (exec/row_id.h); full
// execution and incremental refresh agree on identities.

#ifndef DVS_EXEC_EXECUTOR_H_
#define DVS_EXEC_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/key_hash.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "plan/logical_plan.h"
#include "types/row.h"

namespace dvs {

namespace obs {
class ProfileSink;
}  // namespace obs

struct BatchMemo;  // exec/batch_exec.h

/// Materializes the contents of a table (by object id) as column batches at
/// the snapshot the resolver was built for.
using ScanResolver = std::function<Result<BatchVector>(ObjectId table_id)>;

struct ExecContext {
  ScanResolver resolve_scan;
  EvalContext eval;
  /// Work accounting: rows produced by all operators, used by the cost
  /// model. Mutated during execution.
  mutable uint64_t rows_processed = 0;
  /// Optional cross-execution caches (differentiator refreshes).
  BatchMemo* memo = nullptr;
  /// Optional per-operator profile collector (obs/profile.h). Null when
  /// profiling is disarmed — every hook site then costs one pointer check.
  /// Hooks write straight into it, so a failed execution leaves the counts
  /// of the operators that finished before the error.
  obs::ProfileSink* profile = nullptr;
};

/// Executes the plan on the batch engine, returning all output rows with
/// ids.
Result<std::vector<IdRow>> ExecutePlan(const PlanNode& plan,
                                       const ExecContext& ctx);

/// Convenience: executes and strips ids.
Result<std::vector<Row>> ExecutePlanRows(const PlanNode& plan,
                                         const ExecContext& ctx);

/// Rows enter plan execution only through sources (scans, VALUES, change
/// scans), and every operator assumes its input has its child's schema
/// width. A source row of another width — one written past the schema
/// through the storage API — fails here instead of reaching the kernels.
Status CheckSourceWidth(const PlanNode& n, size_t width);

// ---- Helpers shared with the differentiator ----

/// Evaluates a fixed set of key expressions row after row into one reused
/// scratch buffer, computing the HashRow digest once per row. Bare
/// ColumnRef keys (the overwhelmingly common case) skip the expression
/// interpreter entirely. The scratch is invalidated by the next Extract();
/// callers that store the key materialize it with hashed_key().
class KeyExtractor {
 public:
  KeyExtractor(const std::vector<ExprPtr>& key_exprs, const EvalContext& ctx);

  /// Evaluates the key for `row` into the scratch buffer.
  Status Extract(const Row& row);

  const Row& key() const { return scratch_; }
  uint64_t digest() const { return digest_; }
  bool has_null() const { return has_null_; }
  /// Zero-copy probe handle into KeyedIndex / KeyedSet.
  HashedKeyRef ref() const { return {&scratch_, digest_}; }
  /// Owning copy of the current key, digest carried along (not re-hashed).
  HashedKey hashed_key() const { return {scratch_, digest_}; }

 private:
  const std::vector<ExprPtr>& exprs_;
  const EvalContext& ctx_;
  std::vector<int> fast_cols_;  ///< Column index per key expr, -1 = interpret.
  Row scratch_;
  uint64_t digest_ = 0;
  bool has_null_ = false;
};

/// One step of an INT64 SUM: wraps modulo 2^64, so a sum whose true value
/// fits is exact whatever the member order or intermediate overflow, and
/// every engine (and the differentiator's stored-state path) agrees.
inline int64_t SumAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Evaluates the aggregate calls in an Aggregate node over the member rows
/// of one group, producing the aggregate output columns.
Result<Row> ComputeAggregates(const std::vector<ExprPtr>& aggregates,
                              const std::vector<const Row*>& members,
                              const EvalContext& ctx);

// The differentiator (ivm/) re-runs these operator kernels over *restricted*
// inputs (affected keys / partitions); sharing the kernels with full
// execution is what guarantees identical results and row ids.

/// Join kernel: joins materialized left/right inputs per `n` (a kJoin node).
Result<std::vector<IdRow>> ComputeJoin(const PlanNode& n,
                                       const std::vector<IdRow>& left,
                                       const std::vector<IdRow>& right,
                                       const EvalContext& ctx);

/// Aggregation kernel over a materialized input (n is a kAggregate node).
/// `force_global_group` makes scalar aggregation emit its single row even on
/// empty input (true for full execution; the differentiator controls it).
Result<std::vector<IdRow>> ComputeAggregateRows(const PlanNode& n,
                                                const std::vector<IdRow>& input,
                                                const EvalContext& ctx,
                                                bool force_global_group);

/// Window kernel over a materialized input (n is a kWindow node).
Result<std::vector<IdRow>> ComputeWindowRows(const PlanNode& n,
                                             const std::vector<IdRow>& input,
                                             const EvalContext& ctx);

/// Distinct kernel over a materialized input (n is a kDistinct node).
Result<std::vector<IdRow>> ComputeDistinctRows(const PlanNode& n,
                                               const std::vector<IdRow>& input,
                                               const EvalContext& ctx);

/// Flatten kernel over a materialized input (n is a kFlatten node): one row
/// per array element; NULL inputs are dropped.
Result<std::vector<IdRow>> ComputeFlattenRows(const PlanNode& n,
                                              const std::vector<IdRow>& input,
                                              const EvalContext& ctx);

/// Order-by kernel over a materialized input (n is a kOrderBy node); ties
/// break repeatably on row id.
Result<std::vector<IdRow>> ComputeOrderByRows(const PlanNode& n,
                                              std::vector<IdRow> input,
                                              const EvalContext& ctx);

/// Values kernel (n is a kValues node): materializes the inline rows with
/// ids derived from (node_tag, index).
Result<std::vector<IdRow>> ComputeValuesRows(const PlanNode& n);

}  // namespace dvs

#endif  // DVS_EXEC_EXECUTOR_H_
