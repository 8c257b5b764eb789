#include "ivm/differentiator.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/key_hash.h"
#include "exec/row_id.h"
#include "ivm/incrementality.h"
#include "obs/profile.h"

namespace dvs {

namespace {

/// Batch-engine snapshot of a subplan at one interval endpoint, memoized in
/// the DeltaContext's BatchMemo. Both endpoints share the memo, so unchanged
/// micro-partitions (pointer-identical batches from the partition cache)
/// turn the second endpoint's joins into probe-cache hits.
///
/// Note on cost accounting: materialization itself is *not* charged to
/// rows_processed. The work metric models a pruning engine (Snowflake
/// prunes snapshot scans via partition metadata and row-id prefixes,
/// §5.5.2); each delta rule charges the rows it actually consumes after
/// restriction, plus its output.
Result<const BatchVector*> SnapshotBatches(const PlanNode& n,
                                           const DeltaContext& ctx,
                                           bool at_end) {
  auto& cache = ctx.memo.snapshots[at_end ? 1 : 0];
  auto it = cache.find(&n);
  if (it != cache.end()) return &it->second;
  ExecContext ec;
  ec.resolve_scan = at_end ? ctx.resolve_at_end : ctx.resolve_at_start;
  ec.eval = at_end ? ctx.eval_end : ctx.eval_start;
  ec.memo = &ctx.memo;
  ec.profile = ctx.profile;
  DVS_ASSIGN_OR_RETURN(BatchVector batches, ExecutePlanBatches(n, ec));
  return &cache.emplace(&n, std::move(batches)).first->second;
}

/// A subplan's rows at one end of the interval (for the row-at-a-time
/// delta rules).
Result<std::vector<IdRow>> Snapshot(const PlanNode& n, const DeltaContext& ctx,
                                    bool at_end) {
  DVS_ASSIGN_OR_RETURN(const BatchVector* batches,
                       SnapshotBatches(n, ctx, at_end));
  return BatchesToRows(*batches);
}

const EvalContext& CtxFor(const DeltaContext& ctx, ChangeAction action) {
  return action == ChangeAction::kDelete ? ctx.eval_start : ctx.eval_end;
}

Result<ChangeSet> Delta(const PlanNode& n, const DeltaContext& ctx);
Result<ChangeSet> DeltaImpl(const PlanNode& n, const DeltaContext& ctx);

// Δ(σ_p Q): filter each change row with the predicate evaluated in the
// context matching its action (deletes see I0 context functions, inserts
// I1).
Result<ChangeSet> DeltaFilter(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  for (ChangeRow& c : in) {
    DVS_ASSIGN_OR_RETURN(
        bool pass, EvalPredicate(*n.predicate, c.values, CtxFor(ctx, c.action)));
    if (pass) out.push_back(std::move(c));
  }
  return out;
}

Result<ChangeSet> DeltaProject(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  out.reserve(in.size());
  for (const ChangeRow& c : in) {
    Row vals;
    vals.reserve(n.exprs.size());
    for (const ExprPtr& e : n.exprs) {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, c.values, CtxFor(ctx, c.action)));
      vals.push_back(std::move(v));
    }
    out.push_back({c.action, c.row_id, std::move(vals)});
  }
  return out;
}

Result<ChangeSet> DeltaFlatten(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[0], ctx));
  ChangeSet out;
  for (const ChangeRow& c : in) {
    DVS_ASSIGN_OR_RETURN(Value arr,
                         Eval(*n.flatten_expr, c.values, CtxFor(ctx, c.action)));
    if (arr.is_null()) continue;
    if (arr.type() != DataType::kArray) {
      return UserError("FLATTEN input is not an array");
    }
    const Array& elements = arr.array_value();
    for (size_t i = 0; i < elements.size(); ++i) {
      Row vals = c.values;
      vals.push_back(Value::Int(static_cast<int64_t>(i)));
      vals.push_back(elements[i]);
      out.push_back({c.action, rowid::Flatten(n.node_tag, c.row_id, i),
                     std::move(vals)});
    }
  }
  return out;
}

Result<ChangeSet> DeltaUnionAll(const PlanNode& n, const DeltaContext& ctx) {
  ChangeSet out;
  for (size_t b = 0; b < n.children.size(); ++b) {
    DVS_ASSIGN_OR_RETURN(ChangeSet in, Delta(*n.children[b], ctx));
    for (ChangeRow& c : in) {
      out.push_back({c.action, rowid::Union(n.node_tag, b, c.row_id),
                     std::move(c.values)});
    }
  }
  return out;
}

Row ConcatRows(const Row& l, const Row& r) {
  Row out;
  out.reserve(l.size() + r.size());
  out.insert(out.end(), l.begin(), l.end());
  out.insert(out.end(), r.begin(), r.end());
  return out;
}

// Builds a digest-keyed hash table over `rows` using `key_exprs`.
Result<KeyedIndex<std::vector<size_t>>> BuildKeyedTable(
    const std::vector<ExprPtr>& key_exprs, const std::vector<IdRow>& rows,
    const EvalContext& ec) {
  KeyedIndex<std::vector<size_t>> table;
  table.reserve(rows.size());
  KeyExtractor key(key_exprs, ec);
  for (size_t i = 0; i < rows.size(); ++i) {
    DVS_RETURN_IF_ERROR(key.Extract(rows[i].values));
    if (key.has_null()) continue;
    auto it = table.find(key.ref());
    if (it == table.end()) {
      it = table.emplace(key.hashed_key(), std::vector<size_t>{}).first;
    }
    it->second.push_back(i);
  }
  return table;
}

// Δ(Q ⋈inner R) = ΔQ ⋈ R@I1 + Q@I0 ⋈ ΔR, with the change action taken from
// the delta side (signed-multiset bilinearity; DESIGN.md §6).
Result<ChangeSet> DeltaInnerJoin(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet dq, Delta(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(ChangeSet dr, Delta(*n.children[1], ctx));
  ChangeSet out;

  // Term 1: ΔQ ⋈ R@I1 — skip entirely when ΔQ is empty.
  if (!dq.empty()) {
    DVS_ASSIGN_OR_RETURN(std::vector<IdRow> r1,
                         Snapshot(*n.children[1], ctx, /*at_end=*/true));
    DVS_ASSIGN_OR_RETURN(KeyedIndex<std::vector<size_t>> table,
                         BuildKeyedTable(n.right_keys, r1, ctx.eval_end));
    KeyExtractor left_del(n.left_keys, ctx.eval_start);
    KeyExtractor left_ins(n.left_keys, ctx.eval_end);
    for (const ChangeRow& c : dq) {
      KeyExtractor& key =
          c.action == ChangeAction::kDelete ? left_del : left_ins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      if (key.has_null()) continue;
      auto it = table.find(key.ref());
      if (it == table.end()) continue;
      for (size_t ri : it->second) {
        Row combined = ConcatRows(c.values, r1[ri].values);
        if (n.residual) {
          DVS_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*n.residual, combined, CtxFor(ctx, c.action)));
          if (!pass) continue;
        }
        out.push_back({c.action, rowid::Join(n.node_tag, c.row_id, r1[ri].id),
                       std::move(combined)});
      }
    }
  }

  // Term 2: Q@I0 ⋈ ΔR.
  if (!dr.empty()) {
    DVS_ASSIGN_OR_RETURN(std::vector<IdRow> q0,
                         Snapshot(*n.children[0], ctx, /*at_end=*/false));
    DVS_ASSIGN_OR_RETURN(KeyedIndex<std::vector<size_t>> table,
                         BuildKeyedTable(n.left_keys, q0, ctx.eval_start));
    KeyExtractor right_del(n.right_keys, ctx.eval_start);
    KeyExtractor right_ins(n.right_keys, ctx.eval_end);
    for (const ChangeRow& c : dr) {
      KeyExtractor& key =
          c.action == ChangeAction::kDelete ? right_del : right_ins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      if (key.has_null()) continue;
      auto it = table.find(key.ref());
      if (it == table.end()) continue;
      for (size_t li : it->second) {
        Row combined = ConcatRows(q0[li].values, c.values);
        if (n.residual) {
          DVS_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*n.residual, combined, CtxFor(ctx, c.action)));
          if (!pass) continue;
        }
        out.push_back({c.action, rowid::Join(n.node_tag, q0[li].id, c.row_id),
                       std::move(combined)});
      }
    }
  }
  ctx.rows_processed += dq.size() + dr.size();
  return out;
}

// Affected-key recompute shared by outer joins, aggregates, distinct, and
// windows: evaluate the operator over the I0 snapshot restricted to affected
// keys (emit as deletes) and over the I1 snapshot restricted the same way
// (emit as inserts); consolidation cancels the unchanged remainder.
struct KeySet {
  KeyedSet keys;                      ///< Digest-keyed affected keys.
  std::unordered_set<RowId> row_ids;  ///< Rows in the delta itself (null-key
                                      ///< rows are matched by id instead).
  bool Contains(const HashedKeyRef& key, RowId id) const {
    if (row_ids.count(id)) return true;
    return keys.find(key) != keys.end();
  }
};

std::vector<IdRow> Restrict(const std::vector<IdRow>& rows,
                            const std::vector<ExprPtr>& key_exprs,
                            const EvalContext& ec, const KeySet& ks,
                            Status* status) {
  std::vector<IdRow> out;
  KeyExtractor key(key_exprs, ec);
  for (const IdRow& r : rows) {
    Status s = key.Extract(r.values);
    if (!s.ok()) {
      *status = s;
      return out;
    }
    if (ks.Contains(key.ref(), r.id)) out.push_back(r);
  }
  return out;
}

// Δ(outer join): affected keys are the join keys touched on either side.
Result<ChangeSet> DeltaOuterJoin(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet dq, Delta(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(ChangeSet dr, Delta(*n.children[1], ctx));
  if (dq.empty() && dr.empty()) return ChangeSet{};

  KeySet left_ks, right_ks;
  {
    KeyExtractor ldel(n.left_keys, ctx.eval_start);
    KeyExtractor lins(n.left_keys, ctx.eval_end);
    for (const ChangeRow& c : dq) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? ldel : lins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      left_ks.row_ids.insert(c.row_id);
      if (!key.has_null()) {
        left_ks.keys.insert(key.hashed_key());
        right_ks.keys.insert(key.hashed_key());
      }
    }
    KeyExtractor rdel(n.right_keys, ctx.eval_start);
    KeyExtractor rins(n.right_keys, ctx.eval_end);
    for (const ChangeRow& c : dr) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? rdel : rins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      right_ks.row_ids.insert(c.row_id);
      if (!key.has_null()) {
        right_ks.keys.insert(key.hashed_key());
        left_ks.keys.insert(key.hashed_key());
      }
    }
  }

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> q0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> r0,
                       Snapshot(*n.children[1], ctx, false));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> q1,
                       Snapshot(*n.children[0], ctx, true));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> r1,
                       Snapshot(*n.children[1], ctx, true));

  Status st = OkStatus();
  std::vector<IdRow> q0r = Restrict(q0, n.left_keys, ctx.eval_start, left_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> r0r = Restrict(r0, n.right_keys, ctx.eval_start, right_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> q1r = Restrict(q1, n.left_keys, ctx.eval_end, left_ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> r1r = Restrict(r1, n.right_keys, ctx.eval_end, right_ks, &st);
  DVS_RETURN_IF_ERROR(st);

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> old_rows,
                       ComputeJoin(n, q0r, r0r, ctx.eval_start));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> new_rows,
                       ComputeJoin(n, q1r, r1r, ctx.eval_end));
  ChangeSet out;
  out.reserve(old_rows.size() + new_rows.size());
  for (IdRow& r : old_rows) {
    out.push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : new_rows) {
    out.push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed +=
      q0r.size() + r0r.size() + q1r.size() + r1r.size();
  return out;
}

bool ExprsImmutable(const std::vector<ExprPtr>& exprs) {
  for (const ExprPtr& e : exprs) {
    Result<Volatility> v = ExprVolatility(e);
    if (!v.ok() || v.value() != Volatility::kImmutable) return false;
  }
  return true;
}

/// Columnar Restrict: keeps rows whose group key is in `ks`, gathering the
/// survivors into compacted batches. The digest set prefilters so only
/// candidate rows materialize their key Row for the exact KeySet probe.
/// `sel_memo` (optional) caches per-batch selections — pointer-identical
/// snapshot batches at the other endpoint skip key evaluation entirely;
/// only sound when the key exprs are immutable. A batch whose vectorized
/// key evaluation fails is redone row-wise, so the surfaced error (if any)
/// is the scalar kernels'.
Status RestrictBatches(const BatchVector& in,
                       const std::vector<ExprPtr>& key_exprs,
                       const EvalContext& ec, const KeySet& ks,
                       const std::unordered_set<uint64_t>& digests,
                       std::unordered_map<const ColumnBatch*, Sel>* sel_memo,
                       BatchVector* out, uint64_t* member_count,
                       obs::OpStats* prof) {
  for (const BatchPtr& b : in) {
    Sel sel;
    const Sel* use = nullptr;
    if (sel_memo != nullptr) {
      auto it = sel_memo->find(b.get());
      if (it != sel_memo->end()) {
        use = &it->second;
        if (prof != nullptr) prof->sel_memo_hits += 1;
      }
    }
    if (use == nullptr) {
      Result<BatchKeys> bk = ComputeBatchKeys(key_exprs, *b, ec);
      if (bk.ok()) {
        const BatchKeys& k = bk.value();
        Row scratch;
        for (size_t r = 0; r < b->rows; ++r) {
          bool hit = !ks.row_ids.empty() && ks.row_ids.count(b->ids[r]) > 0;
          if (!hit && digests.count(k.digests[r]) > 0) {
            scratch.clear();
            for (const ColumnPtr& c : k.cols) scratch.push_back(c->GetValue(r));
            hit = ks.keys.find(HashedKeyRef{&scratch, k.digests[r]}) !=
                  ks.keys.end();
          }
          if (hit) sel.push_back(static_cast<uint32_t>(r));
        }
      } else {
        obs::ExecCounters::Instance().row_redos += 1;
        if (prof != nullptr) prof->row_redos += 1;
        KeyExtractor key(key_exprs, ec);
        for (size_t r = 0; r < b->rows; ++r) {
          DVS_RETURN_IF_ERROR(key.Extract(MaterializeRow(*b, r)));
          if (ks.Contains(key.ref(), b->ids[r])) {
            sel.push_back(static_cast<uint32_t>(r));
          }
        }
      }
      if (sel_memo != nullptr) {
        use = &sel_memo->emplace(b.get(), std::move(sel)).first->second;
      } else {
        use = &sel;
      }
    }
    *member_count += use->size();
    if (use->empty()) continue;
    if (use->size() == b->rows) {
      out->push_back(b);  // all rows survive: share the batch untouched
    } else {
      out->push_back(GatherBatch(b, *use));
    }
  }
  return OkStatus();
}

// Δ(γ), recompute form: re-aggregates the members of the groups in `ks`
// (every member when `ks` is null: scalar aggregation, whose single global
// row is affected whenever the input delta is non-empty) at both endpoints,
// emitting the old rows as deletes and the new rows as inserts.
Status RecomputeGroups(const PlanNode& n, const KeySet* ks,
                       const DeltaContext& ctx, ChangeSet* out) {
  DVS_ASSIGN_OR_RETURN(const BatchVector* b0,
                       SnapshotBatches(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(const BatchVector* b1,
                       SnapshotBatches(*n.children[0], ctx, true));
  BatchVector old_members, new_members;
  uint64_t old_count = 0, new_count = 0;
  if (ks == nullptr) {
    old_members = *b0;
    new_members = *b1;
    old_count = BatchRowCount(old_members);
    new_count = BatchRowCount(new_members);
  } else {
    std::unordered_set<uint64_t> digests;
    digests.reserve(ks->keys.size());
    for (const HashedKey& k : ks->keys) digests.insert(k.digest);
    std::unordered_map<const ColumnBatch*, Sel> sel_memo;
    std::unordered_map<const ColumnBatch*, Sel>* memo =
        ExprsImmutable(n.group_by) ? &sel_memo : nullptr;
    obs::OpStats* prof =
        ctx.profile != nullptr ? ctx.profile->Node(n.node_tag) : nullptr;
    DVS_RETURN_IF_ERROR(RestrictBatches(*b0, n.group_by, ctx.eval_start, *ks,
                                        digests, memo, &old_members,
                                        &old_count, prof));
    DVS_RETURN_IF_ERROR(RestrictBatches(*b1, n.group_by, ctx.eval_end, *ks,
                                        digests, memo, &new_members,
                                        &new_count, prof));
  }
  // Scalar aggregation always emits one row, even on empty input; for
  // grouped aggregation, groups with no surviving members disappear.
  const bool force = ks == nullptr;
  ExecContext ec0, ec1;
  ec0.eval = ctx.eval_start;
  ec1.eval = ctx.eval_end;
  ec0.profile = ctx.profile;
  ec1.profile = ctx.profile;
  DVS_ASSIGN_OR_RETURN(BatchVector old_rows,
                       ComputeAggregateBatches(n, old_members, ec0, force));
  DVS_ASSIGN_OR_RETURN(BatchVector new_rows,
                       ComputeAggregateBatches(n, new_members, ec1, force));
  for (IdRow& r : BatchesToRows(old_rows)) {
    out->push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : BatchesToRows(new_rows)) {
    out->push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed += old_count + new_count;
  return OkStatus();
}

/// The aggregate whose output rows are `plan`'s rows: `plan` itself, or the
/// aggregate under identity projections (row ids pass through those
/// unchanged). Null when there is none.
const PlanNode* OutputAggregate(const PlanNode& plan) {
  const PlanNode* n = &plan;
  while (n->kind == PlanKind::kProject) {
    const PlanNode& child = *n->children[0];
    if (n->exprs.size() != child.output_schema.size()) return nullptr;
    for (size_t i = 0; i < n->exprs.size(); ++i) {
      if (n->exprs[i]->kind != ExprKind::kColumnRef ||
          n->exprs[i]->column_index != i) {
        return nullptr;
      }
    }
    n = &child;
  }
  return n->kind == PlanKind::kAggregate ? n : nullptr;
}

/// True if a stored row of grouped aggregate `n` can be adjusted by a delta:
/// only non-DISTINCT COUNT(*), COUNT, COUNT_IF and SUM, over an input whose
/// every expression is immutable (a context function would re-evaluate the
/// unchanged members of a recomputed group, which the stored row never
/// sees).
bool StateMaintainable(const PlanNode& n) {
  if (n.group_by.empty() || !PlanImmutable(n)) return false;
  for (const ExprPtr& a : n.aggregates) {
    if (a->distinct) return false;
    switch (a->agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kCountIf:
      case AggFunc::kSum:
        break;
      default:
        return false;
    }
  }
  return true;
}

bool ValuesIdentical(const Value& a, const Value& b) {
  return a.type() == b.type() && a == b;
}

bool RowsIdentical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesIdentical(a[i], b[i])) return false;
  }
  return true;
}

/// What the input delta does to one group of a state-maintained aggregate.
/// Every count is net: the delta is an exact signed difference of the
/// group's members, so a row a join rule emits as both a delete and an
/// insert cancels here as it does in the stored result.
struct GroupDelta {
  int64_t members = 0;  ///< Net change in member count.
  /// False once an input shows the stored row plus these adjustments could
  /// differ from a recompute: a DOUBLE group key (INT and integral DOUBLE
  /// keys share a group, and which one the recompute keeps depends on
  /// member order), an aggregate argument that fails to evaluate, a
  /// non-INT64 SUM input (a DOUBLE sum depends on addition order; any other
  /// type is the kernel's error to raise), or an INT64 overflow.
  bool exact = true;
  /// Per aggregate: net count of counted inputs (non-NULL for COUNT and
  /// SUM, TRUE for COUNT_IF).
  std::vector<int64_t> counted;
  std::vector<int64_t> sum;  ///< Per INT64 SUM: net adjustment.
};

void FoldGroupDelta(const PlanNode& n, const ChangeRow& c, const Row& key,
                    const EvalContext& ec, GroupDelta* g) {
  if (!g->exact) return;
  const int sign = c.sign();
  g->members += sign;
  for (const Value& k : key) {
    if (k.type() == DataType::kDouble) {
      g->exact = false;
      return;
    }
  }
  for (size_t i = 0; i < n.aggregates.size(); ++i) {
    const Expr& agg = *n.aggregates[i];
    if (agg.agg_func == AggFunc::kCountStar) continue;
    Result<Value> arg = Eval(*agg.children[0], c.values, ec);
    if (!arg.ok()) {
      g->exact = false;
      return;
    }
    const Value& v = arg.value();
    if (v.is_null()) continue;
    if (agg.agg_func == AggFunc::kCountIf &&
        !(v.type() == DataType::kBool && v.bool_value())) {
      continue;
    }
    if (agg.agg_func == AggFunc::kSum) {
      const bool overflow =
          v.type() != DataType::kInt64 ||
          (sign > 0
               ? __builtin_add_overflow(g->sum[i], v.int_value(), &g->sum[i])
               : __builtin_sub_overflow(g->sum[i], v.int_value(), &g->sum[i]));
      if (overflow) {
        g->exact = false;
        return;
      }
    }
    g->counted[i] += sign;
  }
}

/// The group's row at I1 from its stored row at I0 (`old`, null when the DT
/// holds no such group) plus `g`, into `*row`; `*alive` turns false when
/// the group empties. Returns false when the state cannot decide the row
/// exactly, and the group is recomputed.
bool ComposeGroupRow(const PlanNode& n, const Row& key, const Row* old,
                     const GroupDelta& g, Row* row, bool* alive) {
  const size_t nk = key.size();
  if (old != nullptr) {
    if (old->size() != nk + n.aggregates.size()) return false;
    for (size_t i = 0; i < nk; ++i) {
      if (!ValuesIdentical((*old)[i], key[i])) return false;
    }
  }
  // Member count from COUNT(*) when the aggregate has one. Without it a
  // stored group's count is unknown: one that loses members may have
  // emptied.
  int64_t members = g.members;
  bool has_count_star = false;
  for (size_t i = 0; i < n.aggregates.size(); ++i) {
    if (n.aggregates[i]->agg_func != AggFunc::kCountStar) continue;
    has_count_star = true;
    if (old != nullptr) {
      if ((*old)[nk + i].type() != DataType::kInt64) return false;
      members += (*old)[nk + i].int_value();
    }
    break;
  }
  if (members < 0) return false;
  *alive = members > 0 || (!has_count_star && old != nullptr);
  if (!*alive) return true;

  row->assign(key.begin(), key.end());
  row->reserve(nk + n.aggregates.size());
  for (size_t i = 0; i < n.aggregates.size(); ++i) {
    const Value* stored = old != nullptr ? &(*old)[nk + i] : nullptr;
    switch (n.aggregates[i]->agg_func) {
      case AggFunc::kCountStar:
        row->push_back(Value::Int(members));
        break;
      case AggFunc::kCount:
      case AggFunc::kCountIf: {
        if (stored != nullptr && stored->type() != DataType::kInt64) {
          return false;
        }
        const int64_t c =
            (stored != nullptr ? stored->int_value() : 0) + g.counted[i];
        if (c < 0) return false;
        row->push_back(Value::Int(c));
        break;
      }
      case AggFunc::kSum:
        if (stored == nullptr || stored->is_null()) {
          // No non-NULL input at I0: the delta's are all there is.
          if (g.counted[i] < 0) return false;
          row->push_back(g.counted[i] > 0 ? Value::Int(g.sum[i])
                                          : Value::Null());
        } else {
          // At least one non-NULL input at I0. A net loss of non-NULL inputs
          // may leave none (the SUM turns NULL), which only a recompute
          // sees.
          int64_t s = 0;
          if (stored->type() != DataType::kInt64 || g.counted[i] < 0 ||
              __builtin_add_overflow(stored->int_value(), g.sum[i], &s)) {
            return false;
          }
          row->push_back(Value::Int(s));
        }
        break;
      default:
        return false;
    }
  }
  return true;
}

/// Δ(γ), stored-state form: each affected group's new row is its stored row
/// plus the delta's adjustments, read by row id in O(affected groups). The
/// groups state cannot decide exactly (see GroupDelta, ComposeGroupRow) go
/// into `*recompute`.
Status GroupsFromState(const PlanNode& n, const ChangeSet& din,
                       const DeltaContext& ctx, ChangeSet* out,
                       KeySet* recompute) {
  const size_t n_aggs = n.aggregates.size();
  KeyedIndex<GroupDelta> groups;
  KeyExtractor kdel(n.group_by, ctx.eval_start);
  KeyExtractor kins(n.group_by, ctx.eval_end);
  for (const ChangeRow& c : din) {
    const bool del = c.action == ChangeAction::kDelete;
    KeyExtractor& key = del ? kdel : kins;
    DVS_RETURN_IF_ERROR(key.Extract(c.values));
    auto it = groups.find(key.ref());
    if (it == groups.end()) {
      GroupDelta g;
      g.counted.assign(n_aggs, 0);
      g.sum.assign(n_aggs, 0);
      it = groups.emplace(key.hashed_key(), std::move(g)).first;
    }
    FoldGroupDelta(n, c, key.key(), del ? ctx.eval_start : ctx.eval_end,
                   &it->second);
  }

  // Sorted by key, like the recompute kernel's output.
  std::vector<const KeyedIndex<GroupDelta>::value_type*> ordered;
  ordered.reserve(groups.size());
  for (const auto& entry : groups) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return RowLess(a->first.values, b->first.values);
  });
  uint64_t from_state = 0;
  for (const auto* entry : ordered) {
    const HashedKey& key = entry->first;
    const GroupDelta& g = entry->second;
    const RowId rid = rowid::GroupFromDigest(n.node_tag, key.digest);
    const Row* old = nullptr;
    if (g.exact) {
      old = ctx.stored_row(rid);
      ctx.rows_processed += 1;
    }
    Row row;
    bool alive = false;
    if (!g.exact || !ComposeGroupRow(n, key.values, old, g, &row, &alive)) {
      recompute->keys.insert(key);
      continue;
    }
    ++from_state;
    if (old != nullptr) out->push_back({ChangeAction::kDelete, rid, *old});
    if (alive) out->push_back({ChangeAction::kInsert, rid, std::move(row)});
  }
  if (ctx.profile != nullptr) {
    ctx.profile->Node(n.node_tag)->state_groups += from_state;
  }
  return OkStatus();
}

// Δ(γ): the aggregate whose output rows are the DT's rows adjusts stored
// groups (GroupsFromState); every other group — and every group of any
// other aggregate — is recomputed from its members at both endpoints
// (RecomputeGroups). Input snapshots are taken only when some group needs
// the recompute.
Result<ChangeSet> DeltaAggregate(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};
  ChangeSet out;
  if (n.group_by.empty()) {
    DVS_RETURN_IF_ERROR(RecomputeGroups(n, nullptr, ctx, &out));
    if (ctx.profile != nullptr) {
      ctx.profile->Node(n.node_tag)->recomputed_groups += 1;
    }
    return out;
  }
  KeySet recompute;
  if (&n == ctx.stored_aggregate) {
    DVS_RETURN_IF_ERROR(GroupsFromState(n, din, ctx, &out, &recompute));
  } else {
    KeyExtractor kdel(n.group_by, ctx.eval_start);
    KeyExtractor kins(n.group_by, ctx.eval_end);
    for (const ChangeRow& c : din) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? kdel : kins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      recompute.keys.insert(key.hashed_key());
    }
  }
  if (recompute.keys.empty()) return out;
  DVS_RETURN_IF_ERROR(RecomputeGroups(n, &recompute, ctx, &out));
  if (ctx.profile != nullptr) {
    ctx.profile->Node(n.node_tag)->recomputed_groups += recompute.keys.size();
  }
  return out;
}

// Δ(distinct): affected values are exactly the changed rows' values.
Result<ChangeSet> DeltaDistinct(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};

  KeyedSet affected;
  affected.reserve(din.size());
  for (const ChangeRow& c : din) affected.insert(HashedKey(c.values));

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in1,
                       Snapshot(*n.children[0], ctx, true));

  // Presence checks are digest probes; emit sorted by value so the change
  // order stays deterministic (the std::set order this replaced).
  KeyedSet old_present, new_present;
  for (const IdRow& r : in0) {
    HashedKeyRef probe{&r.values, HashRow(r.values)};
    if (affected.find(probe) != affected.end()) {
      old_present.insert(HashedKey(r.values, probe.digest));
    }
  }
  for (const IdRow& r : in1) {
    HashedKeyRef probe{&r.values, HashRow(r.values)};
    if (affected.find(probe) != affected.end()) {
      new_present.insert(HashedKey(r.values, probe.digest));
    }
  }
  auto sorted = [](const KeyedSet& s) {
    std::vector<const HashedKey*> v;
    v.reserve(s.size());
    for (const HashedKey& k : s) v.push_back(&k);
    std::sort(v.begin(), v.end(), [](const HashedKey* a, const HashedKey* b) {
      return RowLess(a->values, b->values);
    });
    return v;
  };
  ChangeSet out;
  out.reserve(old_present.size() + new_present.size());
  for (const HashedKey* k : sorted(old_present)) {
    out.push_back({ChangeAction::kDelete,
                   rowid::DistinctFromDigest(n.node_tag, k->digest),
                   k->values});
  }
  for (const HashedKey* k : sorted(new_present)) {
    out.push_back({ChangeAction::kInsert,
                   rowid::DistinctFromDigest(n.node_tag, k->digest),
                   k->values});
  }
  return out;
}

// Δ(ξ_k Q) — the paper's window derivative, applied per affected partition.
Result<ChangeSet> DeltaWindow(const PlanNode& n, const DeltaContext& ctx) {
  DVS_ASSIGN_OR_RETURN(ChangeSet din, Delta(*n.children[0], ctx));
  if (din.empty()) return ChangeSet{};

  KeySet ks;
  {
    KeyExtractor kdel(n.partition_by, ctx.eval_start);
    KeyExtractor kins(n.partition_by, ctx.eval_end);
    for (const ChangeRow& c : din) {
      KeyExtractor& key = c.action == ChangeAction::kDelete ? kdel : kins;
      DVS_RETURN_IF_ERROR(key.Extract(c.values));
      ks.keys.insert(key.hashed_key());
    }
  }

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in0,
                       Snapshot(*n.children[0], ctx, false));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in1,
                       Snapshot(*n.children[0], ctx, true));
  Status st = OkStatus();
  std::vector<IdRow> old_members =
      Restrict(in0, n.partition_by, ctx.eval_start, ks, &st);
  DVS_RETURN_IF_ERROR(st);
  std::vector<IdRow> new_members =
      Restrict(in1, n.partition_by, ctx.eval_end, ks, &st);
  DVS_RETURN_IF_ERROR(st);

  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> old_rows,
                       ComputeWindowRows(n, old_members, ctx.eval_start));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> new_rows,
                       ComputeWindowRows(n, new_members, ctx.eval_end));
  ChangeSet out;
  for (IdRow& r : old_rows) {
    out.push_back({ChangeAction::kDelete, r.id, std::move(r.values)});
  }
  for (IdRow& r : new_rows) {
    out.push_back({ChangeAction::kInsert, r.id, std::move(r.values)});
  }
  ctx.rows_processed += old_members.size() + new_members.size();
  return out;
}

Result<ChangeSet> Delta(const PlanNode& n, const DeltaContext& ctx) {
  std::chrono::steady_clock::time_point prof_start;
  if (ctx.profile != nullptr) prof_start = std::chrono::steady_clock::now();
  Result<ChangeSet> result = DeltaImpl(n, ctx);
  if (result.ok()) {
    ctx.rows_processed += result.value().size();
    if (ctx.profile != nullptr) {
      obs::OpStats* s = ctx.profile->Node(n.node_tag);
      s->rows_out += result.value().size();
      s->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - prof_start)
              .count());
    }
  }
  return result;
}

Result<ChangeSet> DeltaImpl(const PlanNode& n, const DeltaContext& ctx) {
  switch (n.kind) {
    case PlanKind::kScan: {
      DVS_ASSIGN_OR_RETURN(ChangeSet changes, ctx.resolve_delta(n.table_id));
      for (const ChangeRow& c : changes) {
        DVS_RETURN_IF_ERROR(CheckSourceWidth(n, c.values.size()));
      }
      return changes;
    }
    case PlanKind::kFilter:
      return DeltaFilter(n, ctx);
    case PlanKind::kProject:
      return DeltaProject(n, ctx);
    case PlanKind::kJoin:
      return n.join_type == JoinType::kInner ? DeltaInnerJoin(n, ctx)
                                             : DeltaOuterJoin(n, ctx);
    case PlanKind::kUnionAll:
      return DeltaUnionAll(n, ctx);
    case PlanKind::kAggregate:
      return DeltaAggregate(n, ctx);
    case PlanKind::kDistinct:
      return DeltaDistinct(n, ctx);
    case PlanKind::kWindow:
      return DeltaWindow(n, ctx);
    case PlanKind::kFlatten:
      return DeltaFlatten(n, ctx);
    case PlanKind::kOrderBy:
    case PlanKind::kLimit:
      return Unsupported(std::string(PlanKindName(n.kind)) +
                         " is not incrementally maintainable");
    case PlanKind::kValues:
      // Unreachable in practice: table functions are rejected in DT
      // definitions at bind time (no provider installed there).
      return Unsupported("table functions are not incrementally maintainable");
  }
  return Internal("unhandled plan kind in differentiator");
}

}  // namespace

ChangeSet Consolidate(ChangeSet changes) {
  // Cancel (row_id, identical content) insert/delete pairs. Identical means
  // equal type tags too: INT 5 and DOUBLE 5.0 compare equal, but a SUM that
  // turns from one into the other is a change the DT must apply.
  std::unordered_map<RowId, std::vector<size_t>> deletes_by_id;
  for (size_t i = 0; i < changes.size(); ++i) {
    if (changes[i].action == ChangeAction::kDelete) {
      deletes_by_id[changes[i].row_id].push_back(i);
    }
  }
  std::vector<bool> drop(changes.size(), false);
  for (size_t i = 0; i < changes.size(); ++i) {
    if (changes[i].action != ChangeAction::kInsert) continue;
    auto it = deletes_by_id.find(changes[i].row_id);
    if (it == deletes_by_id.end()) continue;
    for (size_t di : it->second) {
      if (!drop[di] && RowsIdentical(changes[i].values, changes[di].values)) {
        drop[i] = true;
        drop[di] = true;
        break;
      }
    }
  }
  ChangeSet out;
  out.reserve(changes.size());
  for (size_t i = 0; i < changes.size(); ++i) {
    if (!drop[i]) out.push_back(std::move(changes[i]));
  }
  return out;
}

bool ConsolidationSkippable(const PlanNode& plan) {
  bool skippable = true;
  // Walk manually to also inspect join types.
  std::vector<const PlanNode*> stack = {&plan};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    switch (n->kind) {
      case PlanKind::kAggregate:
      case PlanKind::kDistinct:
      case PlanKind::kWindow:
        skippable = false;
        break;
      case PlanKind::kJoin:
        if (n->join_type != JoinType::kInner) skippable = false;
        break;
      default:
        break;
    }
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  return skippable;
}

Result<DeltaResult> Differentiate(const PlanNode& plan, const DeltaContext& ctx,
                                  bool sources_insert_only) {
  const PlanNode* agg = OutputAggregate(plan);
  ctx.stored_aggregate =
      ctx.stored_row && agg != nullptr && StateMaintainable(*agg) ? agg
                                                                  : nullptr;
  DVS_ASSIGN_OR_RETURN(ChangeSet raw, Delta(plan, ctx));
  DeltaResult out;
  out.pre_consolidation_size = raw.size();
  if (sources_insert_only && ConsolidationSkippable(plan)) {
    out.consolidation_skipped = true;
    out.changes = std::move(raw);
  } else {
    out.changes = Consolidate(std::move(raw));
  }
  // Count once here; consumers (refresh reporting, merge accounting) thread
  // these stats through instead of rescanning the change set.
  out.stats = CountChanges(out.changes);
  return out;
}

}  // namespace dvs
