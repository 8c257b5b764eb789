// E14 — per-operator differentiation microbenchmarks (google-benchmark):
// wall-clock of computing a small delta through each operator's derivative
// versus full recomputation of the operator, at several source sizes.
//
// The shape claim is §3.3.2's cost model: incremental work has a fixed cost
// plus a component linear in the changed data, so for small deltas
// Δ-evaluation beats recomputation by a factor that grows with source size
// — except for operators whose derivative is affected-key recompute over a
// *hot* key (window over one big partition), where the gap narrows.

#include <benchmark/benchmark.h>

#include "ivm/differentiator.h"

using namespace dvs;

namespace {

// Fixture data: a two-version table with `n` base rows and a 16-row delta.
struct Source {
  Schema schema{{{"k", DataType::kInt64},
                 {"grp", DataType::kInt64},
                 {"v", DataType::kInt64}}};
  std::vector<IdRow> start;
  std::vector<IdRow> end;
  ChangeSet delta;

  explicit Source(int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      IdRow r{static_cast<RowId>(i + 1),
              {Value::Int(i), Value::Int(i % 64), Value::Int(i % 97)}};
      start.push_back(r);
      end.push_back(std::move(r));
    }
    for (int64_t i = 0; i < 16; ++i) {
      IdRow r{static_cast<RowId>(n + i + 1),
              {Value::Int(n + i), Value::Int(i % 4), Value::Int(7)}};
      end.push_back(r);
      delta.push_back({ChangeAction::kInsert, r.id, r.values});
    }
  }
};

constexpr ObjectId kSrc = 1;

DeltaContext MakeCtx(const Source& src) {
  DeltaContext ctx;
  ctx.resolve_at_start = [&src](ObjectId) -> Result<BatchVector> {
    return RowsToBatches(src.start);
  };
  ctx.resolve_at_end = [&src](ObjectId) -> Result<BatchVector> {
    return RowsToBatches(src.end);
  };
  ctx.resolve_delta = [&src](ObjectId) -> Result<ChangeSet> {
    return src.delta;
  };
  return ctx;
}

PlanPtr ScanSrc(const Source& src) { return MakeScan(kSrc, "src", src.schema); }

PlanPtr FilterPlan(const Source& src) {
  return MakeFilter(ScanSrc(src), Binary(BinaryOp::kGt, ColRef(2), LitInt(10)));
}

PlanPtr AggPlan(const Source& src) {
  return MakeAggregate(ScanSrc(src), {ColRef(1)},
                       {Agg(AggFunc::kCountStar, {}),
                        Agg(AggFunc::kSum, {ColRef(2)})},
                       {"grp", "n", "sv"});
}

PlanPtr JoinPlan(const Source& l, const Source& r) {
  return MakeJoin(JoinType::kInner, ScanSrc(l),
                  MakeScan(kSrc, "src2", r.schema), {ColRef(1)}, {ColRef(1)});
}

PlanPtr WindowPlan(const Source& src) {
  return MakeWindow(ScanSrc(src), {ColRef(1)}, {{ColRef(2), true}},
                    {Win(WindowFunc::kRowNumber, {})}, {"rn"});
}

void FullExec(const PlanPtr& plan, const Source& src, benchmark::State& state) {
  const BatchVector batches = RowsToBatches(src.end);
  ExecContext ctx;
  ctx.resolve_scan = [&batches](ObjectId) -> Result<BatchVector> {
    return batches;
  };
  for (auto _ : state) {
    auto r = ExecutePlan(*plan, ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * src.end.size());
}

void DeltaExec(const PlanPtr& plan, const Source& src,
               benchmark::State& state) {
  for (auto _ : state) {
    DeltaContext ctx = MakeCtx(src);  // fresh caches per iteration
    auto r = Differentiate(*plan, ctx);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * src.delta.size());
}

void BM_Filter_Full(benchmark::State& state) {
  Source src(state.range(0));
  FullExec(FilterPlan(src), src, state);
}
void BM_Filter_Delta(benchmark::State& state) {
  Source src(state.range(0));
  DeltaExec(FilterPlan(src), src, state);
}
void BM_Aggregate_Full(benchmark::State& state) {
  Source src(state.range(0));
  FullExec(AggPlan(src), src, state);
}
void BM_Aggregate_Delta(benchmark::State& state) {
  Source src(state.range(0));
  DeltaExec(AggPlan(src), src, state);
}
void BM_Window_Full(benchmark::State& state) {
  Source src(state.range(0));
  FullExec(WindowPlan(src), src, state);
}
void BM_Window_Delta(benchmark::State& state) {
  Source src(state.range(0));
  DeltaExec(WindowPlan(src), src, state);
}
void BM_Join_Full(benchmark::State& state) {
  Source src(state.range(0));
  FullExec(JoinPlan(src, src), src, state);
}
void BM_Join_Delta(benchmark::State& state) {
  Source src(state.range(0));
  DeltaExec(JoinPlan(src, src), src, state);
}
void BM_Consolidate(benchmark::State& state) {
  ChangeSet cs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cs.push_back({ChangeAction::kDelete, static_cast<RowId>(i),
                  {Value::Int(i)}});
    cs.push_back({ChangeAction::kInsert, static_cast<RowId>(i),
                  {Value::Int(i % 2 ? i : i + 1)}});  // half cancel
  }
  for (auto _ : state) {
    ChangeSet copy = cs;
    benchmark::DoNotOptimize(Consolidate(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * cs.size());
}

BENCHMARK(BM_Filter_Full)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Filter_Delta)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Aggregate_Full)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Aggregate_Delta)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Window_Full)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Window_Delta)->Arg(1000)->Arg(10000);
BENCHMARK(BM_Join_Full)->Arg(1000)->Arg(4000);
BENCHMARK(BM_Join_Delta)->Arg(1000)->Arg(4000);
BENCHMARK(BM_Consolidate)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
