// Incrementality analysis (§3.3.2): decides whether a DT's defining query
// can use INCREMENTAL refresh mode, mirroring the paper's supported-operator
// list. Unsupported (fall back to FULL): ORDER BY / LIMIT at any position,
// scalar aggregates (aggregation without GROUP BY), and volatile functions
// (the "truly nondeterministic" class of §3.4). Context functions like
// CURRENT_TIMESTAMP are allowed: they evaluate against the refresh's data
// timestamp, which keeps delayed view semantics exact.

#ifndef DVS_IVM_INCREMENTALITY_H_
#define DVS_IVM_INCREMENTALITY_H_

#include <string>

#include "plan/logical_plan.h"

namespace dvs {

struct IncrementalityAnalysis {
  bool incremental = true;
  std::string reason;  ///< Why not, when incremental == false.
};

IncrementalityAnalysis AnalyzeIncrementality(const PlanNode& plan);

/// True if every expression in `plan`'s subtree is immutable: no context
/// function (a row's values are the same at both interval endpoints) and no
/// volatile one. False also when the analysis fails.
bool PlanImmutable(const PlanNode& plan);

}  // namespace dvs

#endif  // DVS_IVM_INCREMENTALITY_H_
