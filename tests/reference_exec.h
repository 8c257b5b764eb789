// Test-only reference executor: a row-at-a-time plan interpreter the batch
// engine (exec/batch_exec.h) is checked against. Every node materializes
// its output as one row vector; Filter, Project, UnionAll and Limit are
// written out here, the other operators call the shared row kernels
// (exec/executor.h). Each node charges its output rows to rows_processed,
// as the engine does, so results, row ids, emission order, error text and
// the work metric must all match the engine exactly.

#ifndef DVS_TESTS_REFERENCE_EXEC_H_
#define DVS_TESTS_REFERENCE_EXEC_H_

#include <functional>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/row_id.h"

namespace dvs {
namespace reference {

struct Context {
  /// The reference reads its sources as rows.
  std::function<Result<std::vector<IdRow>>(ObjectId table_id)> scan;
  EvalContext eval;
  uint64_t rows_processed = 0;
};

inline Result<std::vector<IdRow>> Execute(const PlanNode& n, Context* ctx) {
  auto child = [&](size_t i) { return Execute(*n.children[i], ctx); };
  Result<std::vector<IdRow>> result = [&]() -> Result<std::vector<IdRow>> {
    switch (n.kind) {
      case PlanKind::kScan:
        return ctx->scan(n.table_id);
      case PlanKind::kValues:
        return ComputeValuesRows(n);
      case PlanKind::kFilter: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        std::vector<IdRow> out;
        for (IdRow& r : in) {
          DVS_ASSIGN_OR_RETURN(
              bool pass, EvalPredicate(*n.predicate, r.values, ctx->eval));
          if (pass) out.push_back(std::move(r));
        }
        return out;
      }
      case PlanKind::kProject: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        std::vector<IdRow> out;
        for (const IdRow& r : in) {
          Row vals;
          for (const ExprPtr& e : n.exprs) {
            DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, r.values, ctx->eval));
            vals.push_back(std::move(v));
          }
          out.push_back({r.id, std::move(vals)});
        }
        return out;
      }
      case PlanKind::kJoin: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> left, child(0));
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> right, child(1));
        return ComputeJoin(n, left, right, ctx->eval);
      }
      case PlanKind::kUnionAll: {
        std::vector<IdRow> out;
        for (size_t b = 0; b < n.children.size(); ++b) {
          DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(b));
          for (IdRow& r : in) {
            out.push_back(
                {rowid::Union(n.node_tag, b, r.id), std::move(r.values)});
          }
        }
        return out;
      }
      case PlanKind::kAggregate: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeAggregateRows(n, in, ctx->eval,
                                    /*force_global_group=*/true);
      }
      case PlanKind::kDistinct: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeDistinctRows(n, in, ctx->eval);
      }
      case PlanKind::kWindow: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeWindowRows(n, in, ctx->eval);
      }
      case PlanKind::kFlatten: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeFlattenRows(n, in, ctx->eval);
      }
      case PlanKind::kOrderBy: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        return ComputeOrderByRows(n, std::move(in), ctx->eval);
      }
      case PlanKind::kLimit: {
        DVS_ASSIGN_OR_RETURN(std::vector<IdRow> in, child(0));
        if (n.limit >= 0 && static_cast<size_t>(n.limit) < in.size()) {
          in.resize(static_cast<size_t>(n.limit));
        }
        return in;
      }
    }
    return Internal("unhandled plan kind");
  }();
  if (result.ok()) ctx->rows_processed += result.value().size();
  return result;
}

}  // namespace reference
}  // namespace dvs

#endif  // DVS_TESTS_REFERENCE_EXEC_H_
