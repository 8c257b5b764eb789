#include "exec/batch_exec.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <set>

#include "exec/row_id.h"
#include "obs/profile.h"

namespace dvs {

namespace {

Result<BatchVector> ExecB(const PlanNode& n, const ExecContext& ctx);

/// Error-driven row-wise redo accounting (vectorized evaluation failed and
/// the scalar path reruns the work so error selection matches the scalar
/// kernels).
void CountRedo(const ExecContext& ctx, const PlanNode& n) {
  obs::ExecCounters::Instance().row_redos += 1;
  if (ctx.profile != nullptr) ctx.profile->Node(n.node_tag)->row_redos += 1;
}

/// Materializes a child's batches and runs a row kernel (operators with no
/// batch implementation). The kernel's output is re-batched; charging stays
/// per-node via the ExecB wrapper.
template <typename Kernel>
Result<BatchVector> RowKernelFallback(const PlanNode& n,
                                      const ExecContext& ctx,
                                      Kernel&& kernel) {
  DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> out, kernel(BatchesToRows(in)));
  return RowsToBatches(out);
}

// ---- Filter ----

/// Row-wise redo of one batch's predicate, exactly the scalar code path.
Result<Sel> RedoFilterRowwise(const PlanNode& n, const ColumnBatch& batch,
                              const EvalContext& eval) {
  Sel sel;
  for (size_t r = 0; r < batch.rows; ++r) {
    Row row = MaterializeRow(batch, r);
    DVS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*n.predicate, row, eval));
    if (pass) sel.push_back(static_cast<uint32_t>(r));
  }
  return sel;
}

Result<BatchVector> ExecFilterB(const PlanNode& n, const ExecContext& ctx) {
  DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[0], ctx));
  BatchVector out;
  out.reserve(in.size());
  for (const BatchPtr& batch : in) {
    Sel sel;
    Result<ColumnPtr> pred = EvalColumn(*n.predicate, *batch, nullptr, ctx.eval);
    if (pred.ok()) {
      const BatchColumn& p = *pred.value();
      bool fast_bool = p.lane() == BatchColumn::Lane::kI64 &&
                       p.elem_tag() == DataType::kBool;
      for (size_t r = 0; r < batch->rows; ++r) {
        if (p.IsNull(r)) continue;
        if (fast_bool) {
          if (p.i64()[r] != 0) sel.push_back(static_cast<uint32_t>(r));
          continue;
        }
        Value v = p.GetValue(r);
        if (v.type() != DataType::kBool) {
          return UserError("predicate did not evaluate to BOOL");
        }
        if (v.bool_value()) sel.push_back(static_cast<uint32_t>(r));
      }
    } else {
      // Vector evaluation failed somewhere in this batch: redo it row-wise
      // so the surfaced error (if the scalar path errors at all) is the
      // scalar path's, for the scalar path's row.
      CountRedo(ctx, n);
      DVS_ASSIGN_OR_RETURN(sel, RedoFilterRowwise(n, *batch, ctx.eval));
    }
    if (sel.empty()) continue;
    if (sel.size() == batch->rows) {
      out.push_back(batch);  // all-pass: share the input batch untouched
    } else {
      out.push_back(GatherBatch(batch, sel));
    }
  }
  return out;
}

// ---- Project ----

Result<BatchPtr> RedoProjectRowwise(const PlanNode& n,
                                    const ColumnBatch& batch,
                                    const EvalContext& eval) {
  auto out = std::make_shared<ColumnBatch>();
  out->rows = batch.rows;
  out->ids = batch.ids;
  std::vector<std::shared_ptr<BatchColumn>> cols(n.exprs.size());
  for (auto& c : cols) c = std::make_shared<BatchColumn>();
  for (size_t r = 0; r < batch.rows; ++r) {
    Row row = MaterializeRow(batch, r);
    for (size_t e = 0; e < n.exprs.size(); ++e) {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*n.exprs[e], row, eval));
      cols[e]->AppendValue(v);
    }
  }
  out->cols.assign(cols.begin(), cols.end());
  return BatchPtr(out);
}

Result<BatchVector> ExecProjectB(const PlanNode& n, const ExecContext& ctx) {
  DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[0], ctx));
  BatchVector out;
  out.reserve(in.size());
  for (const BatchPtr& batch : in) {
    auto ob = std::make_shared<ColumnBatch>();
    ob->rows = batch->rows;
    ob->ids = batch->ids;
    ob->cols.reserve(n.exprs.size());
    bool redo = false;
    for (const ExprPtr& e : n.exprs) {
      Result<ColumnPtr> col = EvalColumn(*e, *batch, nullptr, ctx.eval);
      if (!col.ok()) {
        redo = true;
        break;
      }
      ob->cols.push_back(col.take());
    }
    if (redo) {
      CountRedo(ctx, n);
      DVS_ASSIGN_OR_RETURN(BatchPtr rb,
                           RedoProjectRowwise(n, *batch, ctx.eval));
      out.push_back(std::move(rb));
    } else {
      out.push_back(std::move(ob));
    }
  }
  return out;
}

// ---- UnionAll ----

Result<BatchVector> ExecUnionAllB(const PlanNode& n, const ExecContext& ctx) {
  BatchVector out;
  for (size_t b = 0; b < n.children.size(); ++b) {
    DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[b], ctx));
    for (const BatchPtr& batch : in) {
      auto ob = std::make_shared<ColumnBatch>();
      ob->rows = batch->rows;
      ob->cols = batch->cols;  // columns shared untouched
      ob->ids.reserve(batch->rows);
      for (RowId id : batch->ids) {
        ob->ids.push_back(rowid::Union(n.node_tag, b, id));
      }
      out.push_back(std::move(ob));
    }
  }
  return out;
}

// ---- Join ----

bool JoinExprsImmutable(const PlanNode& n, const ExecContext& ctx) {
  auto it = ctx.memo->immutable.find(&n);
  if (it != ctx.memo->immutable.end()) return it->second;
  bool ok = true;
  auto check = [&](const ExprPtr& e) {
    if (!e || !ok) return;
    Result<Volatility> v = ExprVolatility(e);
    if (!v.ok() || v.value() != Volatility::kImmutable) ok = false;
  };
  for (const ExprPtr& e : n.left_keys) check(e);
  for (const ExprPtr& e : n.right_keys) check(e);
  check(n.residual);
  ctx.memo->immutable.emplace(&n, ok);
  return ok;
}

bool KeysEqualAt(const BatchKeys& a, size_t i, const BatchKeys& b, size_t j) {
  for (size_t c = 0; c < a.cols.size(); ++c) {
    if (a.cols[c]->CompareAt(i, *b.cols[c], j) != 0) return false;
  }
  return true;
}

Result<BatchVector> RowFallbackJoin(const PlanNode& n, const BatchVector& lb,
                                    const BatchVector& rb,
                                    const ExecContext& ctx) {
  CountRedo(ctx, n);
  DVS_ASSIGN_OR_RETURN(
      std::vector<IdRow> out,
      ComputeJoin(n, BatchesToRows(lb), BatchesToRows(rb), ctx.eval));
  return RowsToBatches(out);
}

Result<BatchVector> ExecJoinB(const PlanNode& n, const ExecContext& ctx) {
  DVS_ASSIGN_OR_RETURN(BatchVector left, ExecB(*n.children[0], ctx));
  DVS_ASSIGN_OR_RETURN(BatchVector right, ExecB(*n.children[1], ctx));

  // Every batch has its child's schema width (sources are width-checked).
  const size_t lw = n.children[0]->output_schema.size();
  const size_t rw = n.children[1]->output_schema.size();

  const bool cacheable =
      ctx.memo != nullptr &&
      (n.join_type == JoinType::kInner || n.join_type == JoinType::kLeft) &&
      JoinExprsImmutable(n, ctx);
  BatchJoinCache* cache = cacheable ? &ctx.memo->join[&n] : nullptr;
  BatchJoinCache local;
  BatchJoinCache* build = cache ? cache : &local;
  obs::OpStats* prof =
      ctx.profile != nullptr ? ctx.profile->Node(n.node_tag) : nullptr;

  bool build_hit = cache && cache->right_fingerprint == right;
  if (cache != nullptr) {
    obs::ExecCounters& counters = obs::ExecCounters::Instance();
    (build_hit ? counters.join_cache_hits : counters.join_cache_misses) += 1;
    if (prof != nullptr) {
      (build_hit ? prof->join_build_hits : prof->join_build_misses) += 1;
    }
  }
  if (!build_hit) {
    build->right_fingerprint = right;
    build->index.clear();
    build->right_keys.clear();
    build->outputs.clear();
    build->right_keys.reserve(right.size());
    size_t total_right = 0;
    for (const BatchPtr& b : right) total_right += b->rows;
    build->index.reserve(total_right);
    for (size_t bi = 0; bi < right.size(); ++bi) {
      Result<BatchKeys> keys =
          ComputeBatchKeys(n.right_keys, *right[bi], ctx.eval);
      if (!keys.ok()) {
        // Key evaluation failed somewhere: rerun the whole node through the
        // row kernel, which surfaces the scalar engine's error (or result).
        return RowFallbackJoin(n, left, right, ctx);
      }
      build->right_keys.push_back(keys.take());
      const BatchKeys& bk = build->right_keys.back();
      for (size_t r = 0; r < right[bi]->rows; ++r) {
        if (bk.has_null[r]) continue;  // NULL keys never match
        build->index[bk.digests[r]].push_back(
            (static_cast<uint64_t>(bi) << 32) | r);
      }
    }
  }

  const bool track_right =
      n.join_type == JoinType::kRight || n.join_type == JoinType::kFull;
  std::vector<std::vector<uint8_t>> right_matched;
  if (track_right) {
    right_matched.resize(right.size());
    for (size_t bi = 0; bi < right.size(); ++bi) {
      right_matched[bi].assign(right[bi]->rows, 0);
    }
  }

  BatchVector out;
  for (const BatchPtr& lb : left) {
    if (cache && build_hit) {
      auto hit = cache->outputs.find(lb);
      if (hit != cache->outputs.end()) {
        obs::ExecCounters::Instance().join_cache_hits += 1;
        if (prof != nullptr) prof->join_probe_hits += 1;
        if (hit->second->rows > 0) out.push_back(hit->second);
        continue;
      }
    }
    Result<BatchKeys> lkeys = ComputeBatchKeys(n.left_keys, *lb, ctx.eval);
    if (!lkeys.ok()) return RowFallbackJoin(n, left, right, ctx);
    const BatchKeys& lk = lkeys.value();

    auto ob = std::make_shared<ColumnBatch>();
    std::vector<std::shared_ptr<BatchColumn>> cols(lw + rw);
    for (auto& c : cols) c = std::make_shared<BatchColumn>();
    // Gather lists: output row i copies left row lsel[i]; rsel[i] is the
    // packed right (batch, row), or kNullRight for a null-extension.
    constexpr uint64_t kNullRight = ~uint64_t{0};
    std::vector<uint32_t> lsel;
    std::vector<uint64_t> rsel;

    for (size_t l = 0; l < lb->rows; ++l) {
      bool matched = false;
      if (!lk.has_null[l]) {
        auto it = build->index.find(lk.digests[l]);
        if (it != build->index.end()) {
          Row left_row;      // materialized lazily for residual evaluation
          bool have_left = false;
          for (uint64_t packed : it->second) {
            const size_t bi = packed >> 32;
            const size_t r = packed & 0xffffffffu;
            if (!KeysEqualAt(lk, l, build->right_keys[bi], r)) continue;
            if (n.residual) {
              if (!have_left) {
                left_row = MaterializeRow(*lb, l);
                have_left = true;
              }
              Row combined = left_row;
              Row rrow = MaterializeRow(*right[bi], r);
              combined.insert(combined.end(), rrow.begin(), rrow.end());
              DVS_ASSIGN_OR_RETURN(
                  bool pass, EvalPredicate(*n.residual, combined, ctx.eval));
              if (!pass) continue;
            }
            matched = true;
            if (track_right) right_matched[bi][r] = 1;
            lsel.push_back(static_cast<uint32_t>(l));
            rsel.push_back(packed);
            ob->ids.push_back(
                rowid::Join(n.node_tag, lb->ids[l], right[bi]->ids[r]));
          }
        }
      }
      if (!matched && (n.join_type == JoinType::kLeft ||
                       n.join_type == JoinType::kFull)) {
        lsel.push_back(static_cast<uint32_t>(l));
        rsel.push_back(kNullRight);
        ob->ids.push_back(rowid::LeftRowNullExtended(n.node_tag, lb->ids[l]));
      }
    }

    ob->rows = lsel.size();
    for (size_t c = 0; c < lw; ++c) {
      cols[c]->Reserve(lsel.size());
      for (uint32_t l : lsel) cols[c]->AppendFrom(*lb->cols[c], l);
    }
    for (size_t c = 0; c < rw; ++c) {
      cols[lw + c]->Reserve(rsel.size());
      for (uint64_t packed : rsel) {
        if (packed == kNullRight) {
          cols[lw + c]->AppendNull();
        } else {
          cols[lw + c]->AppendFrom(*right[packed >> 32]->cols[c],
                                   packed & 0xffffffffu);
        }
      }
    }
    ob->cols.assign(cols.begin(), cols.end());
    BatchPtr frozen = ob;
    if (cache) {
      cache->outputs[lb] = frozen;
      obs::ExecCounters::Instance().join_cache_misses += 1;
      if (prof != nullptr) prof->join_probe_misses += 1;
    }
    if (frozen->rows > 0) out.push_back(std::move(frozen));
  }

  if (track_right) {
    auto ob = std::make_shared<ColumnBatch>();
    std::vector<std::shared_ptr<BatchColumn>> cols(lw + rw);
    for (auto& c : cols) c = std::make_shared<BatchColumn>();
    for (size_t bi = 0; bi < right.size(); ++bi) {
      for (size_t r = 0; r < right[bi]->rows; ++r) {
        if (right_matched[bi][r]) continue;
        ob->ids.push_back(
            rowid::RightRowNullExtended(n.node_tag, right[bi]->ids[r]));
        for (size_t c = 0; c < lw; ++c) cols[c]->AppendNull();
        for (size_t c = 0; c < rw; ++c) {
          cols[lw + c]->AppendFrom(*right[bi]->cols[c], r);
        }
        ++ob->rows;
      }
    }
    if (ob->rows > 0) {
      ob->cols.assign(cols.begin(), cols.end());
      out.push_back(std::move(ob));
    }
  }
  return out;
}

// ---- Aggregate ----

struct AggAccum {
  // kSum
  bool any = false;
  bool all_int = true;
  int64_t isum = 0;
  double dsum = 0;
  // kCount / kCountIf
  int64_t count = 0;
  // kAvg
  double avg_sum = 0;
  int64_t avg_c = 0;
  // kMin / kMax
  Value best;
  // DISTINCT state (first-occurrence order is preserved by folding online)
  std::set<Value> uniq;
  // First error the row kernel would surface for this (group, agg); held
  // back until emit time so error selection matches the sorted-group,
  // agg-index, member-order discipline of ComputeAggregates.
  Status err = OkStatus();
};

struct GroupState {
  uint64_t digest = 0;
  Row key;  // materialized group key (first occurrence)
  size_t members = 0;
  std::vector<AggAccum> accs;
};

void FoldAgg(const Expr& agg, AggAccum& a, const Value& v) {
  if (agg.agg_func == AggFunc::kCountStar) return;  // no argument
  if (agg.distinct) {
    if (v.is_null()) return;
    if (!a.uniq.insert(v).second) return;  // already folded
  }
  switch (agg.agg_func) {
    case AggFunc::kCountStar:
      break;
    case AggFunc::kCount:
      if (!v.is_null()) ++a.count;
      break;
    case AggFunc::kCountIf:
      if (!v.is_null() && v.type() == DataType::kBool && v.bool_value())
        ++a.count;
      break;
    case AggFunc::kSum:
      if (v.is_null()) break;
      if (!v.is_numeric()) {
        if (a.err.ok()) a.err = UserError("SUM over non-numeric value");
        break;
      }
      a.any = true;
      if (v.type() == DataType::kInt64) {
        a.isum = SumAdd(a.isum, v.int_value());
      } else {
        a.all_int = false;
      }
      a.dsum += v.AsDouble();
      break;
    case AggFunc::kAvg:
      if (v.is_null()) break;
      if (!v.is_numeric()) {
        if (a.err.ok()) a.err = UserError("AVG over non-numeric value");
        break;
      }
      a.avg_sum += v.AsDouble();
      ++a.avg_c;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (v.is_null()) break;
      if (a.best.is_null() || (agg.agg_func == AggFunc::kMin
                                   ? v.Compare(a.best) < 0
                                   : v.Compare(a.best) > 0)) {
        a.best = v;
      }
      break;
  }
}

Value FinalizeAgg(const Expr& agg, const AggAccum& a, size_t members) {
  switch (agg.agg_func) {
    case AggFunc::kCountStar:
      return Value::Int(static_cast<int64_t>(members));
    case AggFunc::kCount:
    case AggFunc::kCountIf:
      return Value::Int(a.count);
    case AggFunc::kSum:
      if (!a.any) return Value::Null();
      return a.all_int ? Value::Int(a.isum) : Value::Double(a.dsum);
    case AggFunc::kAvg:
      if (a.avg_c == 0) return Value::Null();
      return Value::Double(a.avg_sum / static_cast<double>(a.avg_c));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return a.best;
  }
  return Value::Null();
}

}  // namespace

Result<BatchVector> ComputeAggregateBatches(const PlanNode& n,
                                            const BatchVector& in,
                                            const ExecContext& ctx,
                                            bool force_global_group) {
  auto row_fallback = [&]() -> Result<BatchVector> {
    CountRedo(ctx, n);
    DVS_ASSIGN_OR_RETURN(std::vector<IdRow> out,
                         ComputeAggregateRows(n, BatchesToRows(in), ctx.eval,
                                              force_global_group));
    return RowsToBatches(out);
  };

  // Group keys and aggregate argument columns, one vector pass per batch.
  // Any vectorized evaluation failure reruns the whole node through the row
  // kernel so error selection matches the scalar engine.
  std::vector<BatchKeys> keys;
  keys.reserve(in.size());
  std::vector<std::vector<ColumnPtr>> args(in.size());
  for (size_t bi = 0; bi < in.size(); ++bi) {
    Result<BatchKeys> bk = ComputeBatchKeys(n.group_by, *in[bi], ctx.eval);
    if (!bk.ok()) return row_fallback();
    keys.push_back(bk.take());
    args[bi].reserve(n.aggregates.size());
    for (const ExprPtr& agg : n.aggregates) {
      assert(agg->kind == ExprKind::kAggregate);
      if (agg->children.empty()) {
        args[bi].push_back(nullptr);  // COUNT(*) takes no argument
        continue;
      }
      Result<ColumnPtr> col =
          EvalColumn(*agg->children[0], *in[bi], nullptr, ctx.eval);
      if (!col.ok()) return row_fallback();
      args[bi].push_back(col.take());
    }
  }

  std::vector<GroupState> groups;
  std::unordered_map<uint64_t, std::vector<uint32_t>> slots;
  for (size_t bi = 0; bi < in.size(); ++bi) {
    const BatchKeys& bk = keys[bi];
    for (size_t r = 0; r < in[bi]->rows; ++r) {
      const uint64_t digest = bk.digests[r];
      std::vector<uint32_t>& bucket = slots[digest];
      GroupState* g = nullptr;
      for (uint32_t s : bucket) {
        // Digest collision confirm: full key equality, like HashedKey.
        const Row& gk = groups[s].key;
        bool eq = gk.size() == bk.cols.size();
        for (size_t c = 0; eq && c < bk.cols.size(); ++c) {
          eq = bk.cols[c]->EqualsValueAt(r, gk[c]);
        }
        if (eq) {
          g = &groups[s];
          break;
        }
      }
      if (g == nullptr) {
        bucket.push_back(static_cast<uint32_t>(groups.size()));
        groups.emplace_back();
        g = &groups.back();
        g->digest = digest;
        g->key.reserve(bk.cols.size());
        for (const ColumnPtr& c : bk.cols) g->key.push_back(c->GetValue(r));
        g->accs.resize(n.aggregates.size());
      }
      ++g->members;
      for (size_t ai = 0; ai < n.aggregates.size(); ++ai) {
        if (args[bi][ai] == nullptr) continue;  // COUNT(*)
        FoldAgg(*n.aggregates[ai], g->accs[ai], args[bi][ai]->GetValue(r));
      }
    }
  }

  // Scalar aggregation (no GROUP BY) over empty input yields one row when
  // forced (full execution); the differentiator controls the flag.
  if (force_global_group && n.group_by.empty() && groups.empty()) {
    groups.emplace_back();
    groups.back().digest = HashRow(Row{});
    groups.back().accs.resize(n.aggregates.size());
  }

  std::vector<const GroupState*> ordered;
  ordered.reserve(groups.size());
  for (const GroupState& g : groups) ordered.push_back(&g);
  std::sort(ordered.begin(), ordered.end(),
            [](const GroupState* a, const GroupState* b) {
              return RowLess(a->key, b->key);
            });

  auto ob = std::make_shared<ColumnBatch>();
  ob->rows = ordered.size();
  ob->ids.reserve(ordered.size());
  const size_t kw = n.group_by.size();
  std::vector<std::shared_ptr<BatchColumn>> cols(kw + n.aggregates.size());
  for (auto& c : cols) {
    c = std::make_shared<BatchColumn>();
    c->Reserve(ordered.size());
  }
  for (const GroupState* g : ordered) {
    // Surface deferred errors in sorted-group order, agg order — exactly
    // where ComputeAggregates would fail.
    for (size_t ai = 0; ai < n.aggregates.size(); ++ai) {
      if (!g->accs[ai].err.ok()) return g->accs[ai].err;
    }
    ob->ids.push_back(rowid::GroupFromDigest(n.node_tag, g->digest));
    for (size_t c = 0; c < kw; ++c) cols[c]->AppendValue(g->key[c]);
    for (size_t ai = 0; ai < n.aggregates.size(); ++ai) {
      cols[kw + ai]->AppendValue(
          FinalizeAgg(*n.aggregates[ai], g->accs[ai], g->members));
    }
  }
  ob->cols.assign(cols.begin(), cols.end());
  BatchVector out;
  if (ob->rows > 0) out.push_back(std::move(ob));
  return out;
}

namespace {

// ---- Dispatch ----

Result<BatchVector> ExecB(const PlanNode& n, const ExecContext& ctx) {
  // Profile timing is taken only when a sink is attached; the disarmed cost
  // of the hook is this one null check.
  std::chrono::steady_clock::time_point prof_start;
  if (ctx.profile != nullptr) prof_start = std::chrono::steady_clock::now();
  Result<BatchVector> result = [&]() -> Result<BatchVector> {
    switch (n.kind) {
      case PlanKind::kValues: {
        for (const Row& r : n.values_rows) {
          DVS_RETURN_IF_ERROR(CheckSourceWidth(n, r.size()));
        }
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> rows, ComputeValuesRows(n));
        return RowsToBatches(rows);
      }
      case PlanKind::kScan: {
        // Publish this scan's profile slot so ScanBatchesAt (which has no
        // plan context) can attribute partition-cache hits per node.
        obs::ScopedScanTarget scan_attr(
            ctx.profile != nullptr ? ctx.profile->Node(n.node_tag) : nullptr);
        DVS_ASSIGN_OR_RETURN(BatchVector batches,
                             ctx.resolve_scan(n.table_id));
        for (const BatchPtr& b : batches) {
          DVS_RETURN_IF_ERROR(CheckSourceWidth(n, b->width()));
        }
        return batches;
      }
      case PlanKind::kFilter:
        return ExecFilterB(n, ctx);
      case PlanKind::kProject:
        return ExecProjectB(n, ctx);
      case PlanKind::kJoin:
        return ExecJoinB(n, ctx);
      case PlanKind::kUnionAll:
        return ExecUnionAllB(n, ctx);
      case PlanKind::kAggregate: {
        DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[0], ctx));
        // Full execution always forces the scalar-aggregation global group.
        return ComputeAggregateBatches(n, in, ctx, /*force_global_group=*/true);
      }
      case PlanKind::kDistinct:
        return RowKernelFallback(n, ctx, [&](std::vector<IdRow> rows) {
          return ComputeDistinctRows(n, rows, ctx.eval);
        });
      case PlanKind::kWindow:
        return RowKernelFallback(n, ctx, [&](std::vector<IdRow> rows) {
          return ComputeWindowRows(n, rows, ctx.eval);
        });
      case PlanKind::kFlatten:
        return RowKernelFallback(n, ctx, [&](std::vector<IdRow> rows) {
          return ComputeFlattenRows(n, rows, ctx.eval);
        });
      case PlanKind::kOrderBy:
        return RowKernelFallback(n, ctx, [&](std::vector<IdRow> rows) {
          return ComputeOrderByRows(n, std::move(rows), ctx.eval);
        });
      case PlanKind::kLimit: {
        DVS_ASSIGN_OR_RETURN(BatchVector in, ExecB(*n.children[0], ctx));
        if (n.limit < 0) return in;
        // Keep whole batches up to the limit, then a prefix of the next.
        BatchVector out;
        size_t left = static_cast<size_t>(n.limit);
        for (const BatchPtr& b : in) {
          if (left == 0) break;
          if (b->rows <= left) {
            out.push_back(b);
            left -= b->rows;
            continue;
          }
          Sel prefix(left);
          std::iota(prefix.begin(), prefix.end(), 0u);
          out.push_back(GatherBatch(b, prefix));
          left = 0;
        }
        return out;
      }
    }
    return Internal("unhandled plan kind");
  }();
  if (result.ok()) {
    const uint64_t rows = BatchRowCount(result.value());
    ctx.rows_processed += rows;
    if (ctx.profile != nullptr) {
      obs::OpStats* s = ctx.profile->Node(n.node_tag);
      s->rows_out += rows;
      s->batches += result.value().size();
      s->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - prof_start)
              .count());
    }
  }
  return result;
}

}  // namespace

Result<BatchVector> ExecutePlanBatches(const PlanNode& plan,
                                       const ExecContext& ctx) {
  return ExecB(plan, ctx);
}

BatchPtr GatherBatch(const BatchPtr& batch, const Sel& sel) {
  auto out = std::make_shared<ColumnBatch>();
  out->rows = sel.size();
  out->ids.reserve(sel.size());
  for (uint32_t i : sel) out->ids.push_back(batch->ids[i]);
  out->cols.reserve(batch->cols.size());
  for (const ColumnPtr& src : batch->cols) {
    auto col = std::make_shared<BatchColumn>();
    col->Reserve(sel.size());
    for (uint32_t i : sel) col->AppendFrom(*src, i);
    out->cols.push_back(std::move(col));
  }
  return out;
}

}  // namespace dvs
