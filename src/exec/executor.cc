#include "exec/executor.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

#include "exec/batch_exec.h"
#include "exec/row_id.h"

namespace dvs {

namespace {

Row ConcatRows(const Row& l, const Row& r) {
  Row out;
  out.reserve(l.size() + r.size());
  out.insert(out.end(), l.begin(), l.end());
  out.insert(out.end(), r.begin(), r.end());
  return out;
}

Row NullRow(size_t n) { return Row(n, Value::Null()); }

// Comparator over precomputed sort keys, with row id as the repeatable
// tie-break (the paper's "ties in ORDER BY are broken repeatably").
struct SortEntry {
  Row keys;
  RowId id;
  size_t index;
};

bool SortLess(const SortEntry& a, const SortEntry& b,
              const std::vector<SortKey>& spec) {
  for (size_t i = 0; i < spec.size(); ++i) {
    int c = a.keys[i].Compare(b.keys[i]);
    if (c != 0) return spec[i].ascending ? c < 0 : c > 0;
  }
  return a.id < b.id;
}

}  // namespace

Result<std::vector<IdRow>> ComputeFlattenRows(const PlanNode& n,
                                              const std::vector<IdRow>& in,
                                              const EvalContext& ctx) {
  std::vector<IdRow> out;
  for (const IdRow& r : in) {
    DVS_ASSIGN_OR_RETURN(Value arr, Eval(*n.flatten_expr, r.values, ctx));
    if (arr.is_null()) continue;  // FLATTEN drops NULL inputs.
    if (arr.type() != DataType::kArray) {
      return UserError("FLATTEN input is not an array");
    }
    const Array& elements = arr.array_value();
    for (size_t i = 0; i < elements.size(); ++i) {
      Row vals;
      vals.reserve(r.values.size() + 2);
      vals.insert(vals.end(), r.values.begin(), r.values.end());
      vals.push_back(Value::Int(static_cast<int64_t>(i)));
      vals.push_back(elements[i]);
      out.push_back({rowid::Flatten(n.node_tag, r.id, i), std::move(vals)});
    }
  }
  return out;
}

Result<std::vector<IdRow>> ComputeOrderByRows(const PlanNode& n,
                                              std::vector<IdRow> in,
                                              const EvalContext& ctx) {
  std::vector<SortEntry> entries;
  entries.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    Row keys;
    keys.reserve(n.sort_keys.size());
    for (const SortKey& sk : n.sort_keys) {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*sk.expr, in[i].values, ctx));
      keys.push_back(std::move(v));
    }
    entries.push_back({std::move(keys), in[i].id, i});
  }
  std::sort(entries.begin(), entries.end(),
            [&](const SortEntry& a, const SortEntry& b) {
              return SortLess(a, b, n.sort_keys);
            });
  std::vector<IdRow> out;
  out.reserve(in.size());
  for (const SortEntry& e : entries) out.push_back(std::move(in[e.index]));
  return out;
}

Result<std::vector<IdRow>> ComputeValuesRows(const PlanNode& n) {
  std::vector<IdRow> out;
  out.reserve(n.values_rows.size());
  for (size_t i = 0; i < n.values_rows.size(); ++i) {
    out.push_back({rowid::Values(n.node_tag, i), n.values_rows[i]});
  }
  return out;
}

Result<std::vector<IdRow>> ExecutePlan(const PlanNode& plan,
                                       const ExecContext& ctx) {
  DVS_ASSIGN_OR_RETURN(BatchVector batches, ExecutePlanBatches(plan, ctx));
  return BatchesToRows(batches);
}

Result<std::vector<Row>> ExecutePlanRows(const PlanNode& plan,
                                         const ExecContext& ctx) {
  DVS_ASSIGN_OR_RETURN(BatchVector batches, ExecutePlanBatches(plan, ctx));
  std::vector<Row> out;
  out.reserve(BatchRowCount(batches));
  for (const BatchPtr& b : batches) {
    for (size_t i = 0; i < b->rows; ++i) out.push_back(MaterializeRow(*b, i));
  }
  return out;
}

Status CheckSourceWidth(const PlanNode& n, size_t width) {
  if (width == n.output_schema.size()) return OkStatus();
  std::string what = PlanKindName(n.kind);
  if (!n.table_name.empty()) what += " " + n.table_name;
  return Corruption(what + ": row of width " + std::to_string(width) +
                    " does not match the schema's " +
                    std::to_string(n.output_schema.size()) + " columns");
}

Result<Row> EvalKey(const std::vector<ExprPtr>& key_exprs, const Row& row,
                    const EvalContext& ctx) {
  Row key;
  key.reserve(key_exprs.size());
  for (const ExprPtr& e : key_exprs) {
    DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, row, ctx));
    key.push_back(std::move(v));
  }
  return key;
}

KeyExtractor::KeyExtractor(const std::vector<ExprPtr>& key_exprs,
                           const EvalContext& ctx)
    : exprs_(key_exprs), ctx_(ctx), scratch_(key_exprs.size()) {
  fast_cols_.reserve(key_exprs.size());
  for (const ExprPtr& e : key_exprs) {
    fast_cols_.push_back(e->kind == ExprKind::kColumnRef
                             ? static_cast<int>(e->column_index)
                             : -1);
  }
}

Status KeyExtractor::Extract(const Row& row) {
  has_null_ = false;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    const int col = fast_cols_[i];
    if (col >= 0) {
      if (static_cast<size_t>(col) >= row.size()) {
        return Internal("key column index out of range");
      }
      scratch_[i] = row[static_cast<size_t>(col)];
    } else {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*exprs_[i], row, ctx_));
      scratch_[i] = std::move(v);
    }
    if (scratch_[i].is_null()) has_null_ = true;
  }
  digest_ = HashRow(scratch_);
  return OkStatus();
}

Result<std::vector<IdRow>> ComputeJoin(const PlanNode& n,
                                       const std::vector<IdRow>& left,
                                       const std::vector<IdRow>& right,
                                       const EvalContext& ctx) {
  const size_t lw = n.children[0]->output_schema.size();
  const size_t rw = n.children[1]->output_schema.size();

  // Hash the right side: key digests computed once and reused for probes.
  KeyedIndex<std::vector<size_t>> table;
  table.reserve(right.size());
  KeyExtractor right_key(n.right_keys, ctx);
  for (size_t i = 0; i < right.size(); ++i) {
    DVS_RETURN_IF_ERROR(right_key.Extract(right[i].values));
    if (right_key.has_null()) continue;  // NULL keys never match.
    auto it = table.find(right_key.ref());
    if (it == table.end()) {
      it = table.emplace(right_key.hashed_key(), std::vector<size_t>{}).first;
    }
    it->second.push_back(i);
  }

  std::vector<bool> right_matched(right.size(), false);
  std::vector<IdRow> out;
  out.reserve(left.size());
  KeyExtractor left_key(n.left_keys, ctx);
  for (const IdRow& l : left) {
    DVS_RETURN_IF_ERROR(left_key.Extract(l.values));
    bool matched = false;
    if (!left_key.has_null()) {
      auto it = table.find(left_key.ref());
      if (it != table.end()) {
        for (size_t ri : it->second) {
          Row combined = ConcatRows(l.values, right[ri].values);
          if (n.residual) {
            DVS_ASSIGN_OR_RETURN(bool pass,
                                 EvalPredicate(*n.residual, combined, ctx));
            if (!pass) continue;
          }
          matched = true;
          right_matched[ri] = true;
          out.push_back({rowid::Join(n.node_tag, l.id, right[ri].id),
                         std::move(combined)});
        }
      }
    }
    if (!matched &&
        (n.join_type == JoinType::kLeft || n.join_type == JoinType::kFull)) {
      out.push_back({rowid::LeftRowNullExtended(n.node_tag, l.id),
                     ConcatRows(l.values, NullRow(rw))});
    }
  }
  if (n.join_type == JoinType::kRight || n.join_type == JoinType::kFull) {
    for (size_t ri = 0; ri < right.size(); ++ri) {
      if (!right_matched[ri]) {
        out.push_back({rowid::RightRowNullExtended(n.node_tag, right[ri].id),
                       ConcatRows(NullRow(lw), right[ri].values)});
      }
    }
  }
  return out;
}

Result<std::vector<IdRow>> ComputeAggregateRows(const PlanNode& n,
                                                const std::vector<IdRow>& input,
                                                const EvalContext& ctx,
                                                bool force_global_group) {
  // Group membership, keyed by precomputed digest; sorted at emit time so
  // output order stays deterministic (the std::map order this replaced).
  KeyedIndex<std::vector<const Row*>> groups;
  KeyExtractor group_key(n.group_by, ctx);
  for (const IdRow& r : input) {
    DVS_RETURN_IF_ERROR(group_key.Extract(r.values));
    auto it = groups.find(group_key.ref());
    if (it == groups.end()) {
      it = groups.emplace(group_key.hashed_key(), std::vector<const Row*>{})
               .first;
    }
    it->second.push_back(&r.values);
  }
  // Scalar aggregation (no GROUP BY) over empty input yields one row.
  if (n.group_by.empty() && groups.empty() && force_global_group) {
    groups.emplace(HashedKey(Row{}), std::vector<const Row*>{});
  }

  std::vector<const KeyedIndex<std::vector<const Row*>>::value_type*> ordered;
  ordered.reserve(groups.size());
  for (const auto& entry : groups) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return RowLess(a->first.values, b->first.values);
  });

  std::vector<IdRow> out;
  out.reserve(groups.size());
  for (const auto* entry : ordered) {
    const Row& key = entry->first.values;
    DVS_ASSIGN_OR_RETURN(Row aggs,
                         ComputeAggregates(n.aggregates, entry->second, ctx));
    Row vals;
    vals.reserve(key.size() + aggs.size());
    vals.insert(vals.end(), key.begin(), key.end());
    vals.insert(vals.end(), std::make_move_iterator(aggs.begin()),
                std::make_move_iterator(aggs.end()));
    out.push_back({rowid::GroupFromDigest(n.node_tag, entry->first.digest),
                   std::move(vals)});
  }
  return out;
}

Result<std::vector<IdRow>> ComputeDistinctRows(const PlanNode& n,
                                               const std::vector<IdRow>& input,
                                               const EvalContext& ctx) {
  (void)ctx;
  // Membership tracked as digest -> indices of emitted rows; the row is
  // copied once (into the output) instead of into a key set as well.
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  seen.reserve(input.size());
  std::vector<IdRow> out;
  for (const IdRow& r : input) {
    const uint64_t digest = HashRow(r.values);
    std::vector<size_t>& bucket = seen[digest];
    bool duplicate = false;
    for (size_t idx : bucket) {
      if (RowsEqual(out[idx].values, r.values)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    bucket.push_back(out.size());
    out.push_back({rowid::DistinctFromDigest(n.node_tag, digest), r.values});
  }
  return out;
}

Result<std::vector<IdRow>> ComputeWindowRows(const PlanNode& n,
                                             const std::vector<IdRow>& in,
                                             const EvalContext& ctx) {
  KeyedIndex<std::vector<size_t>> partitions;
  KeyExtractor part_key(n.partition_by, ctx);
  for (size_t i = 0; i < in.size(); ++i) {
    DVS_RETURN_IF_ERROR(part_key.Extract(in[i].values));
    auto it = partitions.find(part_key.ref());
    if (it == partitions.end()) {
      it = partitions.emplace(part_key.hashed_key(), std::vector<size_t>{})
               .first;
    }
    it->second.push_back(i);
  }

  // Deterministic partition order (the std::map order this replaced).
  std::vector<KeyedIndex<std::vector<size_t>>::value_type*> ordered_parts;
  ordered_parts.reserve(partitions.size());
  for (auto& entry : partitions) ordered_parts.push_back(&entry);
  std::sort(ordered_parts.begin(), ordered_parts.end(),
            [](const auto* a, const auto* b) {
              return RowLess(a->first.values, b->first.values);
            });

  std::vector<IdRow> out;
  out.reserve(in.size());
  std::vector<Value> args;  // scratch reused across partitions and calls
  for (auto* entry : ordered_parts) {
    std::vector<size_t>& indices = entry->second;
    // Sort partition members by the window ORDER BY (row id tie-break).
    std::vector<SortEntry> entries;
    entries.reserve(indices.size());
    for (size_t idx : indices) {
      Row keys;
      keys.reserve(n.order_by.size());
      for (const SortKey& sk : n.order_by) {
        DVS_ASSIGN_OR_RETURN(Value v, Eval(*sk.expr, in[idx].values, ctx));
        keys.push_back(std::move(v));
      }
      entries.push_back({std::move(keys), in[idx].id, idx});
    }
    std::sort(entries.begin(), entries.end(),
              [&](const SortEntry& a, const SortEntry& b) {
                return SortLess(a, b, n.order_by);
              });

    const size_t m = entries.size();
    // Evaluate each window call for each position.
    std::vector<Row> call_results(m);
    for (Row& cr : call_results) cr.reserve(n.window_calls.size());
    for (const ExprPtr& call : n.window_calls) {
      assert(call->kind == ExprKind::kWindow);
      // Argument values in sorted order (scratch buffer reused — the seed
      // reallocated this vector for every call).
      args.assign(m, Value());
      if (!call->children.empty()) {
        for (size_t i = 0; i < m; ++i) {
          DVS_ASSIGN_OR_RETURN(
              Value v, Eval(*call->children[0], in[entries[i].index].values,
                            ctx));
          args[i] = std::move(v);
        }
      }
      const bool ordered = !n.order_by.empty();
      switch (call->window_func) {
        case WindowFunc::kRowNumber: {
          for (size_t i = 0; i < m; ++i)
            call_results[i].push_back(Value::Int(static_cast<int64_t>(i + 1)));
          break;
        }
        case WindowFunc::kRank:
        case WindowFunc::kDenseRank: {
          int64_t rank = 1, dense = 1;
          for (size_t i = 0; i < m; ++i) {
            if (i > 0) {
              bool peer = true;
              for (size_t k = 0; k < n.order_by.size(); ++k) {
                if (entries[i].keys[k].Compare(entries[i - 1].keys[k]) != 0) {
                  peer = false;
                  break;
                }
              }
              if (!peer) {
                rank = static_cast<int64_t>(i + 1);
                dense += 1;
              }
            }
            call_results[i].push_back(Value::Int(
                call->window_func == WindowFunc::kRank ? rank : dense));
          }
          break;
        }
        case WindowFunc::kSum:
        case WindowFunc::kAvg:
        case WindowFunc::kCount:
        case WindowFunc::kMin:
        case WindowFunc::kMax: {
          // Unordered: whole-partition aggregate. Ordered: cumulative
          // (ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW).
          double sum = 0;
          int64_t isum = 0;
          bool all_int = true;
          int64_t count = 0;
          Value minv, maxv;
          auto fold = [&](const Value& v) {
            if (v.is_null()) return;
            ++count;
            if (v.type() != DataType::kInt64) all_int = false;
            if (v.is_numeric()) {
              sum += v.AsDouble();
              if (v.type() == DataType::kInt64) {
                isum = SumAdd(isum, v.int_value());
              }
            }
            if (minv.is_null() || v.Compare(minv) < 0) minv = v;
            if (maxv.is_null() || v.Compare(maxv) > 0) maxv = v;
          };
          auto result_at = [&]() -> Value {
            switch (call->window_func) {
              case WindowFunc::kCount: return Value::Int(count);
              case WindowFunc::kSum:
                if (count == 0) return Value::Null();
                return all_int ? Value::Int(isum) : Value::Double(sum);
              case WindowFunc::kAvg:
                if (count == 0) return Value::Null();
                return Value::Double(sum / static_cast<double>(count));
              case WindowFunc::kMin: return minv;
              case WindowFunc::kMax: return maxv;
              default: return Value::Null();
            }
          };
          if (ordered) {
            for (size_t i = 0; i < m; ++i) {
              fold(args[i]);
              call_results[i].push_back(result_at());
            }
          } else {
            for (size_t i = 0; i < m; ++i) fold(args[i]);
            Value v = result_at();
            for (size_t i = 0; i < m; ++i) call_results[i].push_back(v);
          }
          break;
        }
      }
    }
    for (size_t i = 0; i < m; ++i) {
      const IdRow& src = in[entries[i].index];
      Row vals;
      vals.reserve(src.values.size() + call_results[i].size());
      vals.insert(vals.end(), src.values.begin(), src.values.end());
      for (Value& v : call_results[i]) vals.push_back(std::move(v));
      out.push_back({src.id, std::move(vals)});
    }
  }
  return out;
}

Result<Row> ComputeAggregates(const std::vector<ExprPtr>& aggregates,
                              const std::vector<const Row*>& members,
                              const EvalContext& ctx) {
  Row out;
  out.reserve(aggregates.size());
  for (const ExprPtr& agg : aggregates) {
    assert(agg->kind == ExprKind::kAggregate);
    // Gather argument values (skipping for COUNT(*)).
    std::vector<Value> args;
    if (!agg->children.empty()) {
      args.reserve(members.size());
      for (const Row* m : members) {
        DVS_ASSIGN_OR_RETURN(Value v, Eval(*agg->children[0], *m, ctx));
        args.push_back(std::move(v));
      }
    }
    if (agg->distinct) {
      std::set<Value> uniq;
      std::vector<Value> deduped;
      for (Value& v : args) {
        if (v.is_null()) continue;
        if (uniq.insert(v).second) deduped.push_back(std::move(v));
      }
      args = std::move(deduped);
    }
    switch (agg->agg_func) {
      case AggFunc::kCountStar:
        out.push_back(Value::Int(static_cast<int64_t>(members.size())));
        break;
      case AggFunc::kCount: {
        int64_t c = 0;
        for (const Value& v : args) {
          if (!v.is_null()) ++c;
        }
        out.push_back(Value::Int(c));
        break;
      }
      case AggFunc::kCountIf: {
        int64_t c = 0;
        for (const Value& v : args) {
          if (!v.is_null() && v.type() == DataType::kBool && v.bool_value())
            ++c;
        }
        out.push_back(Value::Int(c));
        break;
      }
      case AggFunc::kSum: {
        bool all_int = true, any = false;
        int64_t isum = 0;
        double dsum = 0;
        for (const Value& v : args) {
          if (v.is_null()) continue;
          if (!v.is_numeric()) return UserError("SUM over non-numeric value");
          any = true;
          if (v.type() == DataType::kInt64) {
            isum = SumAdd(isum, v.int_value());
          } else {
            all_int = false;
          }
          dsum += v.AsDouble();
        }
        out.push_back(!any ? Value::Null()
                           : (all_int ? Value::Int(isum) : Value::Double(dsum)));
        break;
      }
      case AggFunc::kAvg: {
        double sum = 0;
        int64_t c = 0;
        for (const Value& v : args) {
          if (v.is_null()) continue;
          if (!v.is_numeric()) return UserError("AVG over non-numeric value");
          sum += v.AsDouble();
          ++c;
        }
        out.push_back(c == 0 ? Value::Null()
                             : Value::Double(sum / static_cast<double>(c)));
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        Value best;
        for (const Value& v : args) {
          if (v.is_null()) continue;
          if (best.is_null() ||
              (agg->agg_func == AggFunc::kMin ? v.Compare(best) < 0
                                              : v.Compare(best) > 0)) {
            best = v;
          }
        }
        out.push_back(best);
        break;
      }
    }
  }
  return out;
}

}  // namespace dvs
