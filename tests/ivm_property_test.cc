// Property-based differentiator sweep (TEST_P): random plan shapes over
// randomly mutated two-version sources. The invariant is the fundamental
// theorem of the differentiation framework:
//
//     result@I0 + Δ_I(plan)  ==  result@I1
//
// applied by row id, with the §6.1 merge validations enforced along the way
// (no delete-of-missing, no duplicate ids). Each run reads the I0 result as
// the stored state, as a refresh reads its DT. This exercises the IVM layer
// directly — below SQL and below the refresh engine — so failures localize
// to the delta rules themselves.
//
// A second sweep pits the aggregate derivative's stored-state path against
// its recompute on sources mixing INT, DOUBLE and NULL inputs, with deletes
// that empty groups: the change sets must be identical, type tags and
// DOUBLE bits included.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "common/rng.h"
#include "ivm/differentiator.h"
#include "obs/profile.h"

namespace dvs {
namespace {

// Mirror of the harness in ivm_test.cc, self-contained for this sweep.
class RandomSource {
 public:
  /// `mixed`: v mixes small INTs, INTs near INT64_MAX, DOUBLEs and NULLs
  /// over 4 keys, instead of small INTs over 9.
  RandomSource(ObjectId id, Schema schema, Rng* rng, int base_rows,
               bool mixed = false)
      : id_(id), schema_(std::move(schema)), mixed_(mixed) {
    for (int i = 0; i < base_rows; ++i) {
      IdRow r{next_id_++, MakeRow(rng)};
      start_.push_back(r);
      end_.push_back(std::move(r));
    }
  }

  void Mutate(Rng* rng, int ops) {
    for (int i = 0; i < ops; ++i) {
      double p = rng->NextDouble();
      if (p < 0.5 || end_.empty()) {
        end_.push_back({next_id_++, MakeRow(rng)});
      } else if (p < 0.75) {
        size_t at = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(end_.size()) - 1));
        end_.erase(end_.begin() + static_cast<int64_t>(at));
      } else {
        size_t at = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(end_.size()) - 1));
        end_[at].values = MakeRow(rng);
      }
    }
  }

  ObjectId id() const { return id_; }
  const Schema& schema() const { return schema_; }
  const std::vector<IdRow>& start() const { return start_; }
  const std::vector<IdRow>& end() const { return end_; }

  ChangeSet Delta() const {
    std::map<RowId, const Row*> s, e;
    for (const IdRow& r : start_) s[r.id] = &r.values;
    for (const IdRow& r : end_) e[r.id] = &r.values;
    ChangeSet out;
    for (const auto& [rid, row] : s) {
      auto it = e.find(rid);
      if (it == e.end() || !RowsEqual(*row, *it->second)) {
        out.push_back({ChangeAction::kDelete, rid, *row});
      }
    }
    for (const auto& [rid, row] : e) {
      auto it = s.find(rid);
      if (it == s.end() || !RowsEqual(*row, *it->second)) {
        out.push_back({ChangeAction::kInsert, rid, *row});
      }
    }
    return out;
  }

 private:
  Row MakeRow(Rng* rng) {
    // (k INT small-domain, v INT, s STRING small-domain)
    if (!mixed_) {
      return {Value::Int(rng->Uniform(0, 8)),
              Value::Int(rng->Uniform(-50, 50)),
              Value::String("s" + std::to_string(rng->Uniform(0, 4)))};
    }
    Value v;
    const double p = rng->NextDouble();
    if (p < 0.2) {
      v = Value::Null();
    } else if (p < 0.4) {
      v = Value::Double(static_cast<double>(rng->Uniform(-9, 9)) / 10.0);
    } else if (p < 0.45) {
      v = Value::Int(std::numeric_limits<int64_t>::max() - rng->Uniform(0, 3));
    } else {
      v = Value::Int(rng->Uniform(-50, 50));
    }
    return {Value::Int(rng->Uniform(0, 3)), std::move(v),
            Value::String("s" + std::to_string(rng->Uniform(0, 4)))};
  }

  ObjectId id_;
  Schema schema_;
  std::vector<IdRow> start_;
  std::vector<IdRow> end_;
  bool mixed_;
  RowId next_id_ = 1;
};

/// Resolvers over sources 1 (`a`) and 2 (`b`); both must outlive the context.
DeltaContext SourceContext(const RandomSource& a, const RandomSource& b) {
  const RandomSource* pa = &a;
  const RandomSource* pb = &b;
  DeltaContext ctx;
  ctx.resolve_at_start = [pa, pb](ObjectId id) -> Result<BatchVector> {
    return RowsToBatches(id == 1 ? pa->start() : pb->start());
  };
  ctx.resolve_at_end = [pa, pb](ObjectId id) -> Result<BatchVector> {
    return RowsToBatches(id == 1 ? pa->end() : pb->end());
  };
  ctx.resolve_delta = [pa, pb](ObjectId id) -> Result<ChangeSet> {
    return id == 1 ? pa->Delta() : pb->Delta();
  };
  return ctx;
}

std::vector<IdRow> ExecuteAt(const PlanNode& plan, const DeltaContext& ctx,
                             bool at_end) {
  ExecContext ec;
  ec.resolve_scan = at_end ? ctx.resolve_at_end : ctx.resolve_at_start;
  auto r = ExecutePlan(plan, ec);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.take() : std::vector<IdRow>{};
}

/// Stored-state lookup over a result kept by row id.
std::function<const Row*(RowId)> StoredRows(
    const std::map<RowId, Row>* rows) {
  return [rows](RowId id) -> const Row* {
    auto it = rows->find(id);
    return it == rows->end() ? nullptr : &it->second;
  };
}

/// Equal values with equal type tags (INT 5 vs DOUBLE 5.0 differ).
bool Identical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || !(a[i] == b[i])) return false;
  }
  return true;
}

Schema SrcSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"s", DataType::kString}});
}

enum class Shape {
  kFilterProject,
  kInnerJoin,
  kLeftJoin,
  kFullJoinOfFilters,
  kGroupedAgg,
  kAggOverJoin,
  kDistinctProject,
  kWindow,
  kUnionAll,
  kFilterOverAgg,
};

PlanPtr BuildPlan(Shape shape, const RandomSource& a, const RandomSource& b) {
  PlanPtr sa = MakeScan(a.id(), "a", a.schema());
  PlanPtr sb = MakeScan(b.id(), "b", b.schema());
  switch (shape) {
    case Shape::kFilterProject:
      return MakeProject(
          MakeFilter(sa, Binary(BinaryOp::kGt, ColRef(1), LitInt(0))),
          {ColRef(0), Binary(BinaryOp::kMul, ColRef(1), LitInt(2)), ColRef(2)},
          {"k", "v2", "s"});
    case Shape::kInnerJoin:
      return MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)});
    case Shape::kLeftJoin:
      return MakeJoin(JoinType::kLeft, sa, sb, {ColRef(0)}, {ColRef(0)});
    case Shape::kFullJoinOfFilters:
      return MakeJoin(
          JoinType::kFull,
          MakeFilter(sa, Binary(BinaryOp::kGe, ColRef(1), LitInt(-10))),
          MakeFilter(sb, Binary(BinaryOp::kLe, ColRef(1), LitInt(10))),
          {ColRef(0)}, {ColRef(0)});
    case Shape::kGroupedAgg:
      return MakeAggregate(sa, {ColRef(0)},
                           {Agg(AggFunc::kCountStar, {}),
                            Agg(AggFunc::kSum, {ColRef(1)}),
                            Agg(AggFunc::kMax, {ColRef(1)})},
                           {"k", "n", "sv", "mx"});
    case Shape::kAggOverJoin:
      return MakeAggregate(
          MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)}),
          {ColRef(2)}, {Agg(AggFunc::kCountStar, {}),
                        Agg(AggFunc::kSum, {ColRef(4)})},
          {"s", "n", "sv"});
    case Shape::kDistinctProject:
      return MakeDistinct(MakeProject(sa, {ColRef(0), ColRef(2)}, {"k", "s"}));
    case Shape::kWindow:
      return MakeWindow(sa, {ColRef(2)}, {{ColRef(1), true}},
                        {Win(WindowFunc::kRowNumber, {}),
                         Win(WindowFunc::kSum, {ColRef(1)})},
                        {"rn", "running"});
    case Shape::kUnionAll:
      return MakeUnionAll(
          MakeProject(sa, {ColRef(0), ColRef(1)}, {"k", "v"}),
          MakeProject(sb, {ColRef(0), ColRef(1)}, {"k", "v"}));
    case Shape::kFilterOverAgg:
      return MakeFilter(
          MakeAggregate(sa, {ColRef(0)},
                        {Agg(AggFunc::kCountStar, {}),
                         Agg(AggFunc::kSum, {ColRef(1)})},
                        {"k", "n", "sv"}),
          Binary(BinaryOp::kGt, ColRef(1), LitInt(1)));
  }
  return nullptr;
}

struct SweepParams {
  uint64_t seed;
  Shape shape;
};

class DifferentiatorSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(DifferentiatorSweep, DeltaEqualsStateDifference) {
  const SweepParams params = GetParam();
  Rng rng(params.seed * 7919 + static_cast<uint64_t>(params.shape));

  RandomSource a(1, SrcSchema(), &rng, static_cast<int>(rng.Uniform(0, 25)));
  RandomSource b(2, SrcSchema(), &rng, static_cast<int>(rng.Uniform(0, 25)));
  a.Mutate(&rng, static_cast<int>(rng.Uniform(0, 12)));
  b.Mutate(&rng, static_cast<int>(rng.Uniform(0, 12)));

  PlanPtr plan = BuildPlan(params.shape, a, b);
  ASSERT_NE(plan, nullptr);

  DeltaContext ctx = SourceContext(a, b);
  std::map<RowId, Row> state;
  for (IdRow& r : ExecuteAt(*plan, ctx, false)) {
    ASSERT_TRUE(state.emplace(r.id, std::move(r.values)).second)
        << "duplicate id in I0 result";
  }
  const std::map<RowId, Row> stored = state;
  ctx.stored_row = StoredRows(&stored);

  auto delta = Differentiate(*plan, ctx);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  // Apply the delta with merge-validation semantics.
  for (const ChangeRow& c : delta.value().changes) {
    if (c.action == ChangeAction::kDelete) {
      auto it = state.find(c.row_id);
      ASSERT_NE(it, state.end())
          << "delete of missing row id (validation 3 of §6.1)";
      ASSERT_TRUE(RowsEqual(it->second, c.values));
      state.erase(it);
    } else {
      ASSERT_TRUE(state.emplace(c.row_id, c.values).second)
          << "insert of duplicate row id (validation 2 of §6.1)";
    }
  }
  std::map<RowId, Row> expected;
  for (IdRow& r : ExecuteAt(*plan, ctx, true)) {
    expected[r.id] = std::move(r.values);
  }

  ASSERT_EQ(state.size(), expected.size());
  for (const auto& [rid, row] : expected) {
    auto it = state.find(rid);
    ASSERT_NE(it, state.end());
    EXPECT_TRUE(Identical(it->second, row))
        << RowToString(it->second) << " vs " << RowToString(row);
  }
}

std::vector<SweepParams> MakeSweep() {
  std::vector<SweepParams> out;
  const Shape shapes[] = {
      Shape::kFilterProject,    Shape::kInnerJoin,   Shape::kLeftJoin,
      Shape::kFullJoinOfFilters, Shape::kGroupedAgg, Shape::kAggOverJoin,
      Shape::kDistinctProject,  Shape::kWindow,      Shape::kUnionAll,
      Shape::kFilterOverAgg,
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (Shape s : shapes) out.push_back({seed, s});
  }
  return out;
}

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kFilterProject: return "FilterProject";
    case Shape::kInnerJoin: return "InnerJoin";
    case Shape::kLeftJoin: return "LeftJoin";
    case Shape::kFullJoinOfFilters: return "FullJoinOfFilters";
    case Shape::kGroupedAgg: return "GroupedAgg";
    case Shape::kAggOverJoin: return "AggOverJoin";
    case Shape::kDistinctProject: return "DistinctProject";
    case Shape::kWindow: return "Window";
    case Shape::kUnionAll: return "UnionAll";
    case Shape::kFilterOverAgg: return "FilterOverAgg";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DifferentiatorSweep, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return std::string(ShapeName(info.param.shape)) + "_seed" +
             std::to_string(info.param.seed);
    });

// ---- Aggregate derivative: stored state vs recompute ----

std::vector<PlanPtr> StateSweepPlans(const RandomSource& a,
                                     const RandomSource& b) {
  PlanPtr sa = MakeScan(a.id(), "a", a.schema());
  PlanPtr sb = MakeScan(b.id(), "b", b.schema());
  ExprPtr positive = Binary(BinaryOp::kGt, ColRef(1), LitInt(0));
  PlanPtr full = MakeAggregate(
      sa, {ColRef(0)},
      {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(1)}),
       Agg(AggFunc::kCount, {ColRef(1)}), Agg(AggFunc::kCountIf, {positive})},
      {"k", "n", "sv", "c", "pos"});
  return {
      full,
      // Under an identity projection, as the binder emits it.
      MakeProject(full, {ColRef(0), ColRef(1), ColRef(2), ColRef(3), ColRef(4)},
                  {"k", "n", "sv", "c", "pos"}),
      // No COUNT(*): emptiness is not visible in the stored row.
      MakeAggregate(sa, {ColRef(0)},
                    {Agg(AggFunc::kSum, {ColRef(1)}),
                     Agg(AggFunc::kCountIf, {positive})},
                    {"k", "sv", "pos"}),
      // Over a join, whose delta carries insert/delete pairs that cancel.
      MakeAggregate(
          MakeJoin(JoinType::kInner, sa, sb, {ColRef(2)}, {ColRef(2)}),
          {ColRef(0)},
          {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(4)})},
          {"k", "n", "sv"}),
  };
}

/// One seed of the sweep; adds the stored-state run's aggregate profile
/// counters to `*totals`.
void CheckStateAgainstRecompute(uint64_t seed, obs::OpStats* totals) {
  Rng rng(seed * 104729);
  RandomSource a(1, SrcSchema(), &rng, static_cast<int>(rng.Uniform(0, 16)),
                 /*mixed=*/true);
  RandomSource b(2, SrcSchema(), &rng, static_cast<int>(rng.Uniform(0, 16)),
                 /*mixed=*/true);
  a.Mutate(&rng, static_cast<int>(rng.Uniform(0, 16)));
  b.Mutate(&rng, static_cast<int>(rng.Uniform(0, 8)));

  for (const PlanPtr& plan : StateSweepPlans(a, b)) {
    DeltaContext plain = SourceContext(a, b);
    auto want = Differentiate(*plan, plain);

    std::map<RowId, Row> stored;
    for (IdRow& r : ExecuteAt(*plan, plain, false)) {
      stored.emplace(r.id, std::move(r.values));
    }
    obs::ProfileSink sink;
    sink.DeclarePlan(*plan);
    DeltaContext with_state = SourceContext(a, b);
    with_state.stored_row = StoredRows(&stored);
    with_state.profile = &sink;
    auto got = Differentiate(*plan, with_state);
    for (const auto& op : sink.operators()) {
      if (const obs::OpStats* st = sink.Find(op.tag)) {
        totals->state_groups += st->state_groups;
        totals->recomputed_groups += st->recomputed_groups;
      }
    }

    ASSERT_EQ(got.ok(), want.ok()) << plan->ToString();
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    auto key = [](const ChangeRow& c) {
      return std::make_pair(c.action == ChangeAction::kInsert, c.row_id);
    };
    std::map<std::pair<bool, RowId>, const Row*> g, w;
    for (const ChangeRow& c : got.value().changes) {
      ASSERT_TRUE(g.emplace(key(c), &c.values).second);
    }
    for (const ChangeRow& c : want.value().changes) {
      ASSERT_TRUE(w.emplace(key(c), &c.values).second);
    }
    ASSERT_EQ(g.size(), w.size()) << plan->ToString();
    for (const auto& [k, row] : w) {
      auto it = g.find(k);
      ASSERT_NE(it, g.end()) << "missing change for row id " << k.second;
      EXPECT_TRUE(Identical(*it->second, *row))
          << RowToString(*it->second) << " vs " << RowToString(*row);
    }
  }
}

TEST(StateSweep, StoredStateMatchesRecompute) {
  obs::OpStats totals;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckStateAgainstRecompute(seed, &totals);
  }
  // Both paths ran: groups kept from state and groups recomputed.
  EXPECT_GT(totals.state_groups, 0u);
  EXPECT_GT(totals.recomputed_groups, 0u);
}

}  // namespace
}  // namespace dvs
