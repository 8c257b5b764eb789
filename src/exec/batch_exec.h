// Batch-at-a-time plan execution: the one engine every plan runs on (full
// refresh, ad hoc SELECT, views, EXPLAIN ANALYZE, and the differentiator's
// snapshots and recomputes).
//
// Data moves as ColumnBatches: scans adapt partitions to batches, filters
// compact selection vectors instead of copying rows, joins build/probe the
// HashedKey digest infrastructure a batch of keys at a time, and
// aggregation accumulates online over contiguous argument columns. Value
// semantics, row ids, emission order, error selection and the
// rows_processed work metric are those of the shared row kernels
// (exec/executor.h):
//
//  - all value semantics route through the shared scalar kernels
//    (ApplyBinaryOp / ApplyUnaryOp / CastValue / function registry),
//  - any vectorized evaluation error triggers a row-wise redo of the batch
//    (or node) through the scalar code path, so the surfaced error — and
//    which row "wins" — is the scalar engine's,
//  - operators with no batch kernel (distinct, window, flatten, order-by)
//    materialize, run the shared row kernel, and re-batch,
//  - each operator charges its output rows to rows_processed.
//
// Rows enter only through sources, whose width is checked against the
// node's schema (CheckSourceWidth); every kernel may then rely on it.

#ifndef DVS_EXEC_BATCH_EXEC_H_
#define DVS_EXEC_BATCH_EXEC_H_

#include <unordered_map>

#include "exec/column_batch.h"
#include "exec/executor.h"
#include "exec/vector_eval.h"

namespace dvs {

/// Cached hash-join build + probe results, reused when the same join node
/// re-executes against pointer-identical right input batches (the
/// differentiator snapshots a plan at both refresh endpoints; unchanged
/// micro-partitions resolve to shared batches, so most of the second
/// execution is a cache hit). Only populated for kInner/kLeft joins whose
/// keys and residual are immutable — kRight/kFull track right_matched state
/// across the whole probe, and non-immutable expressions may evaluate
/// differently per endpoint.
struct BatchJoinCache {
  /// Owning: pointer identity is the cache key, so the cached batches must
  /// stay alive for the cache's lifetime (a freed batch's address could be
  /// recycled by a later allocation and alias a different batch).
  std::vector<BatchPtr> right_fingerprint;
  /// digest -> (right batch index << 32 | row), in right scan order.
  std::unordered_map<uint64_t, std::vector<uint64_t>> index;
  std::vector<BatchKeys> right_keys;  // per right batch, for collision confirm
  /// Per-left-batch join output (kInner/kLeft emission is independent of
  /// other left batches). Keys own the left batches, as above.
  std::unordered_map<BatchPtr, BatchPtr> outputs;
};

/// Per-refresh batch execution caches, owned by the differentiator's
/// DeltaContext (one refresh = one memo; batches referenced here stay alive
/// for the refresh via the snapshot caches / partition cache).
struct BatchMemo {
  /// Snapshot results per plan node, per interval endpoint (0 = start,
  /// 1 = end).
  std::unordered_map<const PlanNode*, BatchVector> snapshots[2];
  std::unordered_map<const PlanNode*, BatchJoinCache> join;
  /// Memoized "all join/filter exprs immutable" verdicts per node.
  std::unordered_map<const PlanNode*, bool> immutable;
};

/// Executes the plan over column batches.
Result<BatchVector> ExecutePlanBatches(const PlanNode& plan,
                                       const ExecContext& ctx);

/// Gathers `sel` rows of `batch` into a fresh compacted batch (ids and all
/// columns), preserving row order.
BatchPtr GatherBatch(const BatchPtr& batch, const Sel& sel);

/// Aggregation kernel over prepared input batches (`n` is a kAggregate
/// node). Matches ComputeAggregateRows bit-for-bit — values, row ids,
/// sorted-group emission order, and error selection; the differentiator's
/// affected-group recompute feeds it restricted batches. Vectorized
/// evaluation failures rerun through the row kernel internally. Only
/// `ctx.eval` and `ctx.profile` are read.
Result<BatchVector> ComputeAggregateBatches(const PlanNode& n,
                                            const BatchVector& input,
                                            const ExecContext& ctx,
                                            bool force_global_group);

}  // namespace dvs

#endif  // DVS_EXEC_BATCH_EXEC_H_
