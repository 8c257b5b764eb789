// Vectorized expression evaluation over ColumnBatches.
//
// EvalColumn evaluates one expression for every (selected) row of a batch,
// looping per opcode over contiguous lanes instead of dispatching the Value
// variant per cell. Semantics are the scalar evaluator's, bit for bit:
// binary/unary opcodes delegate to the shared ApplyBinaryOp/ApplyUnaryOp
// kernels outside the typed fast paths, AND/OR keep three-valued logic with
// lhs-first narrowing (the rhs is only evaluated for rows the lhs left
// undecided, mirroring scalar short-circuit), and CASE evaluates only taken
// branches per row.
//
// Error discipline: a vector kernel may surface an error for a different row
// than the scalar engine would (it sweeps column-at-a-time). Callers in
// batch_exec therefore treat any EvalColumn error as "redo this batch
// row-wise through the scalar Eval" — errors are rare, so the redo cost is
// noise, and the surfaced error is always identical to the scalar path's.

#ifndef DVS_EXEC_VECTOR_EVAL_H_
#define DVS_EXEC_VECTOR_EVAL_H_

#include "exec/column_batch.h"
#include "exec/functions.h"
#include "plan/expr.h"

namespace dvs {

/// Evaluates `expr` over `batch`. With `sel == nullptr` the result has one
/// entry per batch row; otherwise one entry per selected index, in sel
/// order. ColumnRefs index into batch.cols (bounds errors match the scalar
/// engine's message, and are only raised when at least one row is selected,
/// mirroring scalar laziness).
Result<ColumnPtr> EvalColumn(const Expr& expr, const ColumnBatch& batch,
                             const Sel* sel, const EvalContext& ctx);

/// Join/group key columns for a batch: one column per key expression plus
/// the per-row HashRow-equivalent digest and a has-null flag.
struct BatchKeys {
  std::vector<ColumnPtr> cols;
  std::vector<uint64_t> digests;   // == HashRow(key row), bit-exact
  std::vector<uint8_t> has_null;   // 1 if any key value is NULL
};

/// Computes key columns + digests for every row of `batch`. The digest is
/// bit-exact with HashRow over the materialized key row (including the empty
/// key list, which digests like HashRow(Row{})). Errors follow the
/// EvalColumn redo contract.
Result<BatchKeys> ComputeBatchKeys(const std::vector<ExprPtr>& key_exprs,
                                   const ColumnBatch& batch,
                                   const EvalContext& ctx);

}  // namespace dvs

#endif  // DVS_EXEC_VECTOR_EVAL_H_
