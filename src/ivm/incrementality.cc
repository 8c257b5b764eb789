#include "ivm/incrementality.h"

#include "exec/evaluator.h"

namespace dvs {

namespace {

Result<Volatility> NodeVolatility(const PlanNode& n) {
  Volatility strongest = Volatility::kImmutable;
  auto fold = [&strongest](const ExprPtr& e) -> Status {
    if (!e) return OkStatus();
    DVS_ASSIGN_OR_RETURN(Volatility v, ExprVolatility(e));
    if (static_cast<int>(v) > static_cast<int>(strongest)) strongest = v;
    return OkStatus();
  };
  DVS_RETURN_IF_ERROR(fold(n.predicate));
  DVS_RETURN_IF_ERROR(fold(n.residual));
  DVS_RETURN_IF_ERROR(fold(n.flatten_expr));
  for (const auto& e : n.exprs) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.left_keys) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.right_keys) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.group_by) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.aggregates) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.partition_by) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& e : n.window_calls) DVS_RETURN_IF_ERROR(fold(e));
  for (const auto& sk : n.order_by) DVS_RETURN_IF_ERROR(fold(sk.expr));
  for (const auto& sk : n.sort_keys) DVS_RETURN_IF_ERROR(fold(sk.expr));
  return strongest;
}

}  // namespace

IncrementalityAnalysis AnalyzeIncrementality(const PlanNode& plan) {
  IncrementalityAnalysis out;
  std::vector<const PlanNode*> stack = {&plan};
  while (!stack.empty() && out.incremental) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    switch (n->kind) {
      case PlanKind::kOrderBy:
        out = {false, "ORDER BY is not incrementally maintainable"};
        break;
      case PlanKind::kLimit:
        out = {false, "LIMIT is not incrementally maintainable"};
        break;
      case PlanKind::kValues:
        out = {false, "table functions are not incrementally maintainable"};
        break;
      case PlanKind::kAggregate:
        if (n->group_by.empty()) {
          out = {false,
                 "scalar aggregates (no GROUP BY) are not incrementally "
                 "maintainable"};
        }
        break;
      default:
        break;
    }
    if (!out.incremental) break;
    Result<Volatility> vol = NodeVolatility(*n);
    if (!vol.ok()) {
      out = {false, vol.status().message()};
      break;
    }
    if (vol.value() == Volatility::kVolatile) {
      out = {false,
             "defining query calls a volatile (truly nondeterministic) "
             "function; incremental refresh would corrupt results"};
      break;
    }
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  return out;
}

bool PlanImmutable(const PlanNode& plan) {
  std::vector<const PlanNode*> stack = {&plan};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    Result<Volatility> vol = NodeVolatility(*n);
    if (!vol.ok() || vol.value() != Volatility::kImmutable) return false;
    for (const PlanPtr& c : n->children) stack.push_back(c.get());
  }
  return true;
}

}  // namespace dvs
