// Query differentiation (§5.5): Δ_I Q — the changes in a query's result over
// a data-timestamp interval I = [I0, I1] — computed from the sources (their
// snapshots at I0 and I1, and their change sets over I) and, for the
// aggregate whose output rows are the DT's rows, from the DT's stored state:
// the paper's top future-work item (§5.5.3, "none of our derivatives so far
// reuse the state ... already stored in the DT").
//
// Per-operator rules (DESIGN.md §6):
//   Δ(Scan t)        = source change set
//   Δ(σ_p Q)         = σ_p(ΔQ)                      (action preserved)
//   Δ(π_e Q)         = π_e(ΔQ)                      (row ids preserved)
//   Δ(Q ∪all R)      = ΔQ ∪ ΔR                      (branch-tagged ids)
//   Δ(Q ⋈ R)         = ΔQ ⋈ R@I1  +  Q@I0 ⋈ ΔR     (signs multiply)
//   Δ(flatten Q)     = flatten(ΔQ)
//   Δ(outer join)    = affected-key recompute (delete old, insert new)
//   Δ(γ_k Q)         = stored row + delta adjustments per affected group
//                      (SUM/COUNT over the DT's own rows), affected-group
//                      recompute for the groups state cannot decide
//   Δ(distinct Q)    = affected-value recompute
//   Δ(ξ_k Q)         = π−(ξ_k(Q|I0 ⋉_k ΔQ)) + π+(ξ_k(Q|I1 ⋉_k ΔQ))
//                      — the paper's window rule, verbatim
//   Δ(order by / limit) — not differentiable (full refresh only)
//
// The recompute rules share the executor's operator kernels, so incremental
// and full refreshes agree bit-for-bit on values, type tags and row ids; the
// stored-state path takes a group only when its result is bit-identical to
// that recompute. A final consolidation step cancels matched (row_id,
// identical-content) insert/delete pairs and is skipped when the insert-only
// analysis proves it redundant (§5.5.2).

#ifndef DVS_IVM_DIFFERENTIATOR_H_
#define DVS_IVM_DIFFERENTIATOR_H_

#include <functional>
#include <unordered_map>

#include "exec/batch_exec.h"
#include "exec/executor.h"
#include "plan/logical_plan.h"
#include "types/row.h"

namespace dvs {

/// Resolves a source table's change set over the refresh interval.
using DeltaResolver = std::function<Result<ChangeSet>(ObjectId table_id)>;

/// Everything the differentiator needs about the interval I = [start, end].
struct DeltaContext {
  /// Source snapshots as of I0 and I1. An incremental refresh gives both
  /// one partition cache: micro-partitions unchanged over the interval
  /// resolve to pointer-identical batches at both endpoints, so the
  /// memoized join/restrict caches carry across ends.
  ScanResolver resolve_at_start;
  ScanResolver resolve_at_end;
  DeltaResolver resolve_delta;    ///< Source changes over (I0, I1].
  EvalContext eval_start;         ///< Context functions as of I0 (deletes).
  EvalContext eval_end;           ///< Context functions as of I1 (inserts).

  /// Work accounting for the cost model: rows materialized or emitted, and
  /// stored rows read.
  mutable uint64_t rows_processed = 0;

  /// Snapshot memoization plus the batch engine's caches, shared across
  /// both endpoints of this refresh — without it, a depth-d join tree would
  /// re-execute subtrees O(2^d) times.
  mutable BatchMemo memo;

  /// Optional read of the DT's stored state: the row with this id in the
  /// DT's latest version (the query's result at I0), or null if absent.
  /// When set, the grouped aggregate whose output rows are the DT's rows
  /// (the plan root, or under identity projections) builds each affected
  /// group's new row from its stored row plus the delta's adjustments.
  std::function<const Row*(RowId)> stored_row;
  /// The aggregate `stored_row` describes; Differentiate sets it.
  mutable const PlanNode* stored_aggregate = nullptr;

  /// Optional per-operator profile collector (obs/profile.h). Null when
  /// profiling is disarmed — every hook site then costs one pointer check.
  obs::ProfileSink* profile = nullptr;
};

struct DeltaResult {
  ChangeSet changes;
  /// Insert/delete counts of `changes`, computed exactly once — downstream
  /// consumers must use this instead of re-scanning with CountChanges /
  /// IsInsertOnly.
  ChangeStats stats;
  /// Raw change count before consolidation (reporting / E11).
  size_t pre_consolidation_size = 0;
  bool consolidation_skipped = false;
};

/// Computes Δ_I(plan). `sources_insert_only` enables the insert-only
/// specialization when the caller knows every source delta in the interval
/// contains no deletes.
Result<DeltaResult> Differentiate(const PlanNode& plan, const DeltaContext& ctx,
                                  bool sources_insert_only = false);

/// Cancels insert/delete pairs with equal row id and equal content; the
/// remaining set is the net change.
ChangeSet Consolidate(ChangeSet changes);

/// True if, given insert-only sources, the plan's delta is provably
/// insert-only and duplicate-free, making consolidation skippable (§5.5.2):
/// no aggregate, distinct, window, or outer join anywhere in the plan.
bool ConsolidationSkippable(const PlanNode& plan);

}  // namespace dvs

#endif  // DVS_IVM_DIFFERENTIATOR_H_
