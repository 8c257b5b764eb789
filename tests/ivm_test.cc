// Tests for ivm/: differentiation rules against full recomputation,
// consolidation, insert-only analysis, incrementality analysis, and the
// aggregate derivative's stored-state path against its recompute.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

#include "ivm/differentiator.h"
#include "ivm/incrementality.h"
#include "obs/profile.h"

namespace dvs {
namespace {

// A two-version in-memory source: rows at I0 and rows at I1, with the delta
// derived automatically (by row id diff + content comparison).
class DeltaHarness {
 public:
  ObjectId AddTable(std::string name, Schema schema) {
    ObjectId id = next_id_++;
    tables_[id] = {std::move(name), std::move(schema), {}, {}, id * 100000};
    return id;
  }

  PlanPtr Scan(ObjectId id) const {
    const auto& t = tables_.at(id);
    return MakeScan(id, t.name, t.schema);
  }

  RowId Insert(ObjectId table, Row row, bool in_start) {
    auto& t = tables_.at(table);
    RowId rid = t.next_row_id++;
    if (in_start) t.start.push_back({rid, row});
    t.end.push_back({rid, std::move(row)});
    return rid;
  }

  void Delete(ObjectId table, RowId rid) {
    auto& t = tables_.at(table);
    t.end.erase(std::remove_if(t.end.begin(), t.end.end(),
                               [rid](const IdRow& r) { return r.id == rid; }),
                t.end.end());
  }

  void Update(ObjectId table, RowId rid, Row new_row) {
    Delete(table, rid);
    tables_.at(table).end.push_back({rid, std::move(new_row)});
  }

  DeltaContext Ctx() const {
    DeltaContext ctx;
    ctx.resolve_at_start = [this](ObjectId id) -> Result<BatchVector> {
      return RowsToBatches(tables_.at(id).start);
    };
    ctx.resolve_at_end = [this](ObjectId id) -> Result<BatchVector> {
      return RowsToBatches(tables_.at(id).end);
    };
    ctx.resolve_delta = [this](ObjectId id) -> Result<ChangeSet> {
      const auto& t = tables_.at(id);
      std::map<RowId, const Row*> start_rows, end_rows;
      for (const IdRow& r : t.start) start_rows[r.id] = &r.values;
      for (const IdRow& r : t.end) end_rows[r.id] = &r.values;
      ChangeSet cs;
      for (const auto& [rid, row] : start_rows) {
        auto it = end_rows.find(rid);
        if (it == end_rows.end() || !RowsEqual(*row, *it->second)) {
          cs.push_back({ChangeAction::kDelete, rid, *row});
        }
      }
      for (const auto& [rid, row] : end_rows) {
        auto it = start_rows.find(rid);
        if (it == start_rows.end() || !RowsEqual(*row, *it->second)) {
          cs.push_back({ChangeAction::kInsert, rid, *row});
        }
      }
      return cs;
    };
    return ctx;
  }

  /// Executes the plan at I0 or I1.
  std::vector<IdRow> Execute(const PlanPtr& plan, bool at_end) const {
    ExecContext ctx;
    DeltaContext d = Ctx();
    ctx.resolve_scan = at_end ? d.resolve_at_end : d.resolve_at_start;
    auto r = ExecutePlan(*plan, ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : std::vector<IdRow>{};
  }

  /// The golden check: applying Δ(plan) to the plan's I0 result must equal
  /// the plan's I1 result — identical row ids and contents.
  void CheckDelta(const PlanPtr& plan) {
    DeltaContext ctx = Ctx();
    auto delta = Differentiate(*plan, ctx);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();

    std::map<RowId, Row> state;
    for (IdRow& r : Execute(plan, /*at_end=*/false)) {
      ASSERT_EQ(state.count(r.id), 0u) << "duplicate row id in base result";
      state[r.id] = std::move(r.values);
    }
    for (const ChangeRow& c : delta.value().changes) {
      if (c.action == ChangeAction::kDelete) {
        auto it = state.find(c.row_id);
        ASSERT_NE(it, state.end()) << "delete of missing row id " << c.row_id;
        EXPECT_TRUE(RowsEqual(it->second, c.values));
        state.erase(it);
      } else {
        ASSERT_EQ(state.count(c.row_id), 0u)
            << "insert of duplicate row id " << c.row_id;
        state[c.row_id] = c.values;
      }
    }
    std::map<RowId, Row> expected;
    for (IdRow& r : Execute(plan, /*at_end=*/true)) {
      expected[r.id] = std::move(r.values);
    }
    ASSERT_EQ(state.size(), expected.size());
    for (const auto& [rid, row] : expected) {
      auto it = state.find(rid);
      ASSERT_NE(it, state.end()) << "missing row id " << rid;
      EXPECT_TRUE(RowsEqual(it->second, row))
          << RowToString(it->second) << " vs " << RowToString(row);
    }
  }

 private:
  struct T {
    std::string name;
    Schema schema;
    std::vector<IdRow> start;
    std::vector<IdRow> end;
    RowId next_row_id;
  };
  std::map<ObjectId, T> tables_;
  ObjectId next_id_ = 1;
};

Schema KV() { return Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}); }

Row R(int64_t k, int64_t v) { return {Value::Int(k), Value::Int(v)}; }

TEST(DifferentiatorTest, ScanDeltaPassthrough) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 10), true);
  h.Insert(t, R(2, 20), false);  // inserted in the interval
  h.CheckDelta(h.Scan(t));
}

TEST(DifferentiatorTest, FilterDelta) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(2, 3), false);   // filtered out
  h.Insert(t, R(3, 50), false);  // passes
  h.Delete(t, r1);               // delete a passing row
  auto plan = MakeFilter(h.Scan(t), Binary(BinaryOp::kGt, ColRef(1), LitInt(5)));
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, ProjectDelta) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Update(t, r1, R(1, 99));
  auto plan = MakeProject(h.Scan(t),
                          {ColRef(0), Binary(BinaryOp::kMul, ColRef(1), LitInt(3))},
                          {"k", "v3"});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, InnerJoinBothSidesChange) {
  DeltaHarness h;
  ObjectId l = h.AddTable("l", KV());
  ObjectId r = h.AddTable("r", KV());
  RowId l1 = h.Insert(l, R(1, 10), true);
  h.Insert(l, R(2, 20), true);
  h.Insert(r, R(1, 100), true);
  // Interval: new left row matching existing right; new right rows matching
  // both old and new left; update and delete on both sides.
  h.Insert(l, R(3, 30), false);
  h.Insert(r, R(2, 200), false);
  h.Insert(r, R(3, 300), false);
  h.Update(l, l1, R(1, 11));
  auto plan = MakeJoin(JoinType::kInner, h.Scan(l), h.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, InnerJoinSimultaneousDeleteBothSides) {
  DeltaHarness h;
  ObjectId l = h.AddTable("l", KV());
  ObjectId r = h.AddTable("r", KV());
  RowId l1 = h.Insert(l, R(1, 10), true);
  RowId r1 = h.Insert(r, R(1, 100), true);
  h.Delete(l, l1);
  h.Delete(r, r1);  // both sides of the joined row vanish: exactly 1 delete
  auto plan = MakeJoin(JoinType::kInner, h.Scan(l), h.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, InnerJoinDeleteLeftInsertRightSameKey) {
  // The classic consolidation case: ΔQ⋈R1 emits a delete of a row that
  // never existed, Q0⋈ΔR emits its insert; they must cancel.
  DeltaHarness h;
  ObjectId l = h.AddTable("l", KV());
  ObjectId r = h.AddTable("r", KV());
  RowId l1 = h.Insert(l, R(1, 10), true);
  h.Delete(l, l1);
  h.Insert(r, R(1, 100), false);
  auto plan = MakeJoin(JoinType::kInner, h.Scan(l), h.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta.value().changes.empty());
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, LeftOuterJoinMatchFlips) {
  DeltaHarness h;
  ObjectId l = h.AddTable("l", KV());
  ObjectId r = h.AddTable("r", KV());
  h.Insert(l, R(1, 10), true);  // unmatched at I0 -> null-extended
  h.Insert(l, R(2, 20), true);
  RowId rm = h.Insert(r, R(2, 200), true);
  h.Insert(r, R(1, 100), false);  // row 1 becomes matched
  h.Delete(r, rm);                // row 2 becomes unmatched
  auto plan = MakeJoin(JoinType::kLeft, h.Scan(l), h.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, FullOuterJoinWithNullKeys) {
  DeltaHarness h;
  ObjectId l = h.AddTable("l", KV());
  ObjectId r = h.AddTable("r", KV());
  h.Insert(l, {Value::Null(), Value::Int(1)}, true);   // never matches
  h.Insert(l, R(1, 10), true);
  h.Insert(r, {Value::Null(), Value::Int(2)}, false);  // new null-key row
  h.Insert(r, R(1, 100), false);
  auto plan = MakeJoin(JoinType::kFull, h.Scan(l), h.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, UnionAllDelta) {
  DeltaHarness h;
  ObjectId a = h.AddTable("a", KV());
  ObjectId b = h.AddTable("b", KV());
  h.Insert(a, R(1, 1), true);
  h.Insert(b, R(1, 1), true);  // same values, different branch
  h.Insert(a, R(2, 2), false);
  auto plan = MakeUnionAll(h.Scan(a), h.Scan(b));
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, GroupedAggregateDelta) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, 5), true);
  h.Insert(t, R(2, 7), true);
  h.Insert(t, R(1, 3), false);   // group 1 grows
  h.Delete(t, r1);               // and shrinks
  h.Insert(t, R(3, 100), false); // new group
  auto plan = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(1)}),
       Agg(AggFunc::kMin, {ColRef(1)})},
      {"k", "n", "sv", "mn"});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, GroupDisappearsWhenEmpty) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(2, 20), true);
  h.Delete(t, r1);  // group 1 empties out
  auto plan = MakeAggregate(h.Scan(t), {ColRef(0)},
                            {Agg(AggFunc::kCountStar, {})}, {"k", "n"});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  ChangeStats stats = CountChanges(delta.value().changes);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, RecomputeRedoesFailedRestrictKeysRowWise) {
  // A group key that fails to evaluate on an unchanged snapshot row: the
  // vectorized restrict fails, that batch is redone row-wise (one row
  // redo), and the recompute surfaces the scalar error full execution
  // raises.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 2), true);
  h.Insert(t, R(2, 0), true);  // 10 / 0 in the I0 snapshot
  h.Insert(t, R(3, 5), false);
  auto plan = CanonicalizePlanTags(MakeAggregate(
      h.Scan(t), {Binary(BinaryOp::kDiv, LitInt(10), ColRef(1))},
      {Agg(AggFunc::kCountStar, {})}, {"q", "n"}));
  obs::ProfileSink sink;
  DeltaContext ctx = h.Ctx();
  ctx.profile = &sink;
  auto delta = Differentiate(*plan, ctx);
  ASSERT_FALSE(delta.ok());
  ExecContext full_ctx;
  full_ctx.resolve_scan = ctx.resolve_at_start;
  auto full = ExecutePlan(*plan, full_ctx);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(delta.status().ToString(), full.status().ToString());
  ASSERT_NE(sink.Find(plan->node_tag), nullptr);
  EXPECT_EQ(sink.Find(plan->node_tag)->row_redos, 1u);
}

TEST(DifferentiatorTest, UnchangedGroupsProduceNoChanges) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 10), true);
  h.Insert(t, R(2, 20), true);
  h.Insert(t, R(2, 5), false);  // only group 2 changes
  auto plan = MakeAggregate(h.Scan(t), {ColRef(0)},
                            {Agg(AggFunc::kSum, {ColRef(1)})}, {"k", "sv"});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  for (const ChangeRow& c : delta.value().changes) {
    EXPECT_EQ(c.values[0].int_value(), 2) << "group 1 must not be touched";
  }
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, DistinctDelta) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 1), true);
  h.Insert(t, R(1, 1), true);  // duplicate
  h.Delete(t, r1);             // one copy remains: distinct output unchanged
  h.Insert(t, R(2, 2), false);
  auto plan = MakeDistinct(MakeProject(h.Scan(t), {ColRef(0)}, {"k"}));
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  ChangeStats stats = CountChanges(delta.value().changes);
  EXPECT_EQ(stats.deletes, 0u);  // value 1 still present
  EXPECT_EQ(stats.inserts, 1u);  // value 2 appears
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, WindowDeltaRecomputesOnlyAffectedPartitions) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", Schema({{"grp", DataType::kString},
                                       {"v", DataType::kInt64}}));
  h.Insert(t, {Value::String("a"), Value::Int(10)}, true);
  h.Insert(t, {Value::String("a"), Value::Int(20)}, true);
  h.Insert(t, {Value::String("b"), Value::Int(5)}, true);
  h.Insert(t, {Value::String("a"), Value::Int(15)}, false);  // only 'a' moves
  auto plan = MakeWindow(h.Scan(t), {ColRef(0)}, {{ColRef(1), true}},
                         {Win(WindowFunc::kRowNumber, {})}, {"rn"});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  for (const ChangeRow& c : delta.value().changes) {
    EXPECT_EQ(c.values[0].string_value(), "a");
  }
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, FlattenDelta) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", Schema({{"k", DataType::kInt64},
                                       {"tags", DataType::kArray}}));
  h.Insert(t, {Value::Int(1),
               Value::MakeArray({Value::Int(7), Value::Int(8)})}, true);
  h.Insert(t, {Value::Int(2), Value::MakeArray({Value::Int(9)})}, false);
  auto plan = MakeFlatten(h.Scan(t), ColRef(1), "tag");
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, DeepPlanJoinOfAggregates) {
  DeltaHarness h;
  ObjectId a = h.AddTable("a", KV());
  ObjectId b = h.AddTable("b", KV());
  for (int i = 0; i < 10; ++i) {
    h.Insert(a, R(i % 3, i), true);
    h.Insert(b, R(i % 3, i * 2), true);
  }
  h.Insert(a, R(0, 50), false);
  h.Insert(b, R(7, 70), false);
  auto agg_a = MakeAggregate(h.Scan(a), {ColRef(0)},
                             {Agg(AggFunc::kSum, {ColRef(1)})}, {"k", "sa"});
  auto agg_b = MakeAggregate(h.Scan(b), {ColRef(0)},
                             {Agg(AggFunc::kSum, {ColRef(1)})}, {"k", "sb"});
  auto plan = MakeJoin(JoinType::kFull, agg_a, agg_b, {ColRef(0)}, {ColRef(0)});
  h.CheckDelta(plan);
}

TEST(DifferentiatorTest, OrderByNotDifferentiable) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 1), false);
  auto plan = MakeOrderBy(h.Scan(t), {{ColRef(0), true}});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kUnsupported);
}

TEST(DifferentiatorTest, EmptyDeltaShortCircuits) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 1), true);  // unchanged over the interval
  auto plan = MakeAggregate(h.Scan(t), {ColRef(0)},
                            {Agg(AggFunc::kCountStar, {})}, {"k", "n"});
  DeltaContext ctx = h.Ctx();
  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta.value().changes.empty());
  EXPECT_EQ(ctx.rows_processed, 0u);  // no snapshots were materialized
}

// ---- Consolidation ----

TEST(ConsolidateTest, CancelsEqualPairs) {
  ChangeSet cs = {
      {ChangeAction::kDelete, 1, R(1, 10)},
      {ChangeAction::kInsert, 1, R(1, 10)},  // identical: cancels
      {ChangeAction::kDelete, 2, R(2, 20)},
      {ChangeAction::kInsert, 2, R(2, 99)},  // update: survives
      {ChangeAction::kInsert, 3, R(3, 30)},
  };
  ChangeSet net = Consolidate(std::move(cs));
  EXPECT_EQ(net.size(), 3u);
}

TEST(ConsolidateTest, PairwiseNotGreedy) {
  // Two identical deletes and one identical insert: only one pair cancels.
  ChangeSet cs = {
      {ChangeAction::kDelete, 1, R(1, 10)},
      {ChangeAction::kDelete, 1, R(1, 10)},
      {ChangeAction::kInsert, 1, R(1, 10)},
  };
  ChangeSet net = Consolidate(std::move(cs));
  EXPECT_EQ(net.size(), 1u);
  EXPECT_EQ(net[0].action, ChangeAction::kDelete);
}

TEST(ConsolidateTest, SkippabilityAnalysis) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  EXPECT_TRUE(ConsolidationSkippable(
      *MakeFilter(h.Scan(t), Binary(BinaryOp::kGt, ColRef(1), LitInt(0)))));
  EXPECT_TRUE(ConsolidationSkippable(*MakeJoin(
      JoinType::kInner, h.Scan(t), h.Scan(t), {ColRef(0)}, {ColRef(0)})));
  EXPECT_FALSE(ConsolidationSkippable(*MakeJoin(
      JoinType::kLeft, h.Scan(t), h.Scan(t), {ColRef(0)}, {ColRef(0)})));
  EXPECT_FALSE(ConsolidationSkippable(*MakeDistinct(h.Scan(t))));
  EXPECT_FALSE(ConsolidationSkippable(*MakeAggregate(
      h.Scan(t), {ColRef(0)}, {Agg(AggFunc::kCountStar, {})}, {"k", "n"})));
}

// ---- Incrementality analysis ----

TEST(IncrementalityTest, SupportedAndUnsupportedShapes) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  EXPECT_TRUE(AnalyzeIncrementality(*h.Scan(t)).incremental);
  EXPECT_TRUE(AnalyzeIncrementality(*MakeAggregate(
                  h.Scan(t), {ColRef(0)}, {Agg(AggFunc::kCountStar, {})},
                  {"k", "n"})).incremental);
  EXPECT_FALSE(AnalyzeIncrementality(*MakeAggregate(
                   h.Scan(t), {}, {Agg(AggFunc::kCountStar, {})}, {"n"}))
                   .incremental);
  EXPECT_FALSE(AnalyzeIncrementality(*MakeOrderBy(h.Scan(t), {{ColRef(0), true}}))
                   .incremental);
  EXPECT_FALSE(AnalyzeIncrementality(*MakeLimit(h.Scan(t), 5)).incremental);
  EXPECT_FALSE(AnalyzeIncrementality(*MakeProject(
                   h.Scan(t), {Func("random", {})}, {"r"})).incremental);
  EXPECT_TRUE(AnalyzeIncrementality(*MakeProject(
                  h.Scan(t), {Func("current_timestamp", {})}, {"ts"}))
                  .incremental);
}

// ---- Aggregate derivative: stored state vs recompute ----

/// Type tag + value: INT 5 and DOUBLE 5.0 differ, and so do two DOUBLEs
/// that RowToString renders alike.
bool Identical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || !(a[i] == b[i])) return false;
  }
  return true;
}

std::vector<const ChangeRow*> SortedChanges(const ChangeSet& cs) {
  std::vector<const ChangeRow*> out;
  for (const ChangeRow& c : cs) out.push_back(&c);
  std::sort(out.begin(), out.end(), [](const ChangeRow* a, const ChangeRow* b) {
    if (a->action != b->action) return a->action < b->action;
    if (a->row_id != b->row_id) return a->row_id < b->row_id;
    return RowLess(a->values, b->values);
  });
  return out;
}

/// The plan's result at I0 by row id, and a context reading it as the
/// stored state, as a refresh reads its DT.
std::map<RowId, Row> StoredState(const DeltaHarness& h, const PlanPtr& plan) {
  std::map<RowId, Row> stored;
  for (IdRow& r : h.Execute(plan, /*at_end=*/false)) {
    stored[r.id] = std::move(r.values);
  }
  return stored;
}

DeltaContext CtxWithState(const DeltaHarness& h,
                          const std::map<RowId, Row>* stored) {
  DeltaContext ctx = h.Ctx();
  ctx.stored_row = [stored](RowId id) -> const Row* {
    auto it = stored->find(id);
    return it == stored->end() ? nullptr : &it->second;
  };
  return ctx;
}

/// Runs Δ(plan) twice on the same interval — once reading the stored result
/// at I0 by row id (the refresh's setup), once with no stored state (every
/// group recomputed) — and expects identical change sets, or the identical
/// error. Returns the stored-state run's aggregate profile counters.
obs::OpStats ExpectStateMatchesRecompute(const DeltaHarness& h,
                                         const PlanPtr& plan,
                                         const PlanNode& agg) {
  const std::map<RowId, Row> stored = StoredState(h, plan);
  obs::ProfileSink sink;
  DeltaContext with_state = CtxWithState(h, &stored);
  with_state.profile = &sink;
  auto got = Differentiate(*plan, with_state);
  DeltaContext without = h.Ctx();
  auto want = Differentiate(*plan, without);
  EXPECT_EQ(got.ok(), want.ok());
  if (!got.ok() || !want.ok()) {
    if (!got.ok() && !want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
    }
    return {};
  }
  auto g = SortedChanges(got.value().changes);
  auto w = SortedChanges(want.value().changes);
  EXPECT_EQ(g.size(), w.size());
  for (size_t i = 0; i < std::min(g.size(), w.size()); ++i) {
    EXPECT_EQ(g[i]->action, w[i]->action);
    EXPECT_EQ(g[i]->row_id, w[i]->row_id);
    EXPECT_TRUE(Identical(g[i]->values, w[i]->values))
        << RowToString(g[i]->values) << " vs " << RowToString(w[i]->values);
  }
  const obs::OpStats* s = sink.Find(agg.node_tag);
  return s == nullptr ? obs::OpStats{} : *s;
}

/// Δ(plan) with the stored state, consolidated.
ChangeSet StateDelta(const DeltaHarness& h, const PlanPtr& plan) {
  const std::map<RowId, Row> stored = StoredState(h, plan);
  DeltaContext ctx = CtxWithState(h, &stored);
  auto r = Differentiate(*plan, ctx);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value().changes : ChangeSet{};
}

PlanPtr CountSumAgg(const DeltaHarness& h, ObjectId t) {
  return MakeAggregate(h.Scan(t), {ColRef(0)},
                       {Agg(AggFunc::kCountStar, {}),
                        Agg(AggFunc::kSum, {ColRef(1)})},
                       {"k", "n", "sv"});
}

TEST(AggregateStateTest, MatchesRecompute) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, 5), true);
  h.Insert(t, R(2, 7), true);
  h.Insert(t, R(3, 100), false);  // new group
  h.Insert(t, R(1, 2), false);
  h.Delete(t, r1);
  auto plan = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(1)}),
       Agg(AggFunc::kCountIf,
           {Binary(BinaryOp::kGt, ColRef(1), LitInt(4))})},
      {"k", "n", "sv", "big"});
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.state_groups, 2u);
  EXPECT_EQ(s.recomputed_groups, 0u);
}

TEST(AggregateStateTest, IdentityProjectionUnwraps) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, 5), false);
  PlanPtr agg = CountSumAgg(h, t);
  auto plan = MakeProject(agg, {ColRef(0), ColRef(1), ColRef(2)},
                          {"k", "n", "sv"});
  EXPECT_EQ(ExpectStateMatchesRecompute(h, plan, *agg).state_groups, 1u);
  // A reordering projection hides the aggregate's rows: recompute.
  auto reordered = MakeProject(agg, {ColRef(1), ColRef(0), ColRef(2)},
                               {"n", "k", "sv"});
  obs::OpStats s = ExpectStateMatchesRecompute(h, reordered, *agg);
  EXPECT_EQ(s.state_groups, 0u);
  EXPECT_EQ(s.recomputed_groups, 1u);
}

TEST(AggregateStateTest, RemainingNullSumIsRecomputed) {
  // {5, NULL} loses its 5: the SUM turns NULL, which the stored 5 cannot
  // tell apart from a group with other non-NULL inputs left.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId five = h.Insert(t, R(1, 5), true);
  h.Insert(t, {Value::Int(1), Value::Null()}, true);
  h.Delete(t, five);
  auto plan = CountSumAgg(h, t);
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.recomputed_groups, 1u);
  ChangeSet cs = StateDelta(h, plan);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[1].action, ChangeAction::kInsert);
  EXPECT_TRUE(cs[1].values[2].is_null());
}

TEST(AggregateStateTest, NullSumGainsInput) {
  // A group whose SUM is NULL (all inputs NULL) gains a non-NULL input,
  // and a NULL-only group gains another NULL.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, {Value::Int(1), Value::Null()}, true);
  h.Insert(t, {Value::Int(2), Value::Null()}, true);
  h.Insert(t, R(1, 4), false);
  h.Insert(t, {Value::Int(2), Value::Null()}, false);
  auto plan = CountSumAgg(h, t);
  EXPECT_EQ(ExpectStateMatchesRecompute(h, plan, *plan).state_groups, 2u);
}

TEST(AggregateStateTest, DoubleSumIsRecomputed) {
  // Deleting 0.1 from {0.1, 0.2, 0.3}: the stored sum minus 0.1 is
  // 0.50000000000000011, the recompute 0.5.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId a = h.Insert(t, {Value::Int(1), Value::Double(0.1)}, true);
  h.Insert(t, {Value::Int(1), Value::Double(0.2)}, true);
  h.Insert(t, {Value::Int(1), Value::Double(0.3)}, true);
  h.Delete(t, a);
  auto plan = CountSumAgg(h, t);
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.recomputed_groups, 1u);
  ChangeSet cs = StateDelta(h, plan);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[1].values[2].type(), DataType::kDouble);
  EXPECT_EQ(cs[1].values[2].double_value(), 0.2 + 0.3);
}

TEST(AggregateStateTest, IntSumTurningDoubleIsApplied) {
  // INT 5 and DOUBLE 5.0 compare equal; the change must survive
  // consolidation all the same.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 5), true);
  h.Insert(t, {Value::Int(1), Value::Double(0.0)}, false);
  auto plan = MakeAggregate(h.Scan(t), {ColRef(0)},
                            {Agg(AggFunc::kSum, {ColRef(1)})}, {"k", "sv"});
  ExpectStateMatchesRecompute(h, plan, *plan);
  ChangeSet cs = StateDelta(h, plan);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[1].values[1].type(), DataType::kDouble);
}

TEST(AggregateStateTest, GroupDiesAndGroupIsBorn) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId r1 = h.Insert(t, R(1, 10), true);
  h.Delete(t, r1);               // group 1 dies
  h.Insert(t, R(9, 90), false);  // group 9 born
  auto plan = CountSumAgg(h, t);
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.state_groups, 2u);
  ChangeStats stats = CountChanges(StateDelta(h, plan));
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(AggregateStateTest, Int64OverflowIsRecomputed) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  const int64_t big = std::numeric_limits<int64_t>::max() - 1;
  h.Insert(t, R(1, big), true);
  h.Insert(t, R(1, 5), false);    // stored + 5 overflows
  h.Insert(t, R(2, big), false);  // the delta alone overflows
  h.Insert(t, R(2, big), false);
  h.Insert(t, R(3, big), true);  // the stored SUM wrapped; stored + delta
  h.Insert(t, R(3, 5), true);    // fits, so it equals the kernel's wrap
  h.Insert(t, R(3, -3), false);
  auto plan = CountSumAgg(h, t);
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.recomputed_groups, 2u);
  EXPECT_EQ(s.state_groups, 1u);
}

TEST(AggregateStateTest, NonNumericSumFailsLikeTheKernel) {
  DeltaHarness h;
  ObjectId t = h.AddTable(
      "t", Schema({{"k", DataType::kInt64}, {"s", DataType::kString}}));
  h.Insert(t, {Value::Int(1), Value::String("x")}, false);
  auto plan = CountSumAgg(h, t);
  ExpectStateMatchesRecompute(h, plan, *plan);
  DeltaContext ctx = h.Ctx();
  auto r = Differentiate(*plan, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("SUM over non-numeric value"),
            std::string::npos);
}

TEST(AggregateStateTest, WithoutCountStar) {
  // No COUNT(*): an update (net zero members) keeps the stored row; a group
  // that loses members may have emptied and is recomputed.
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId a = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, 3), true);
  RowId b = h.Insert(t, R(2, 7), true);
  RowId c = h.Insert(t, R(3, 8), true);
  h.Update(t, a, R(1, 11));
  h.Delete(t, b);  // group 2 empties
  h.Delete(t, c);
  h.Insert(t, R(3, 1), false);
  h.Insert(t, R(3, 2), false);
  h.Insert(t, R(4, 4), false);  // born
  auto plan = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kSum, {ColRef(1)}), Agg(AggFunc::kCount, {ColRef(1)})},
      {"k", "sv", "c"});
  obs::OpStats s = ExpectStateMatchesRecompute(h, plan, *plan);
  EXPECT_EQ(s.state_groups, 3u);
  EXPECT_EQ(s.recomputed_groups, 1u);
}

TEST(AggregateStateTest, CountIf) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  RowId a = h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, -1), true);
  h.Insert(t, {Value::Int(1), Value::Null()}, false);
  h.Update(t, a, R(1, -10));
  h.Insert(t, R(2, 3), false);
  auto plan = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}),
       Agg(AggFunc::kCountIf, {Binary(BinaryOp::kGt, ColRef(1), LitInt(0))}),
       Agg(AggFunc::kCount, {ColRef(1)})},
      {"k", "n", "pos", "c"});
  EXPECT_EQ(ExpectStateMatchesRecompute(h, plan, *plan).state_groups, 2u);
}

TEST(AggregateStateTest, ContextFunctionsAndOtherAggregatesRecompute) {
  DeltaHarness h;
  ObjectId t = h.AddTable("t", KV());
  h.Insert(t, R(1, 10), true);
  h.Insert(t, R(1, 5), false);
  auto with_min = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kMin, {ColRef(1)})},
      {"k", "n", "mn"});
  EXPECT_EQ(ExpectStateMatchesRecompute(h, with_min, *with_min).state_groups,
            0u);
  auto with_now = MakeAggregate(
      h.Scan(t), {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}),
       Agg(AggFunc::kCount, {Func("current_timestamp", {})})},
      {"k", "n", "c"});
  EXPECT_EQ(ExpectStateMatchesRecompute(h, with_now, *with_now).state_groups,
            0u);
}

}  // namespace
}  // namespace dvs
