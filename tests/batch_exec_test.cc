// Columnar batch engine tests: ColumnBatch invariants (null bitmap, lane
// demotion, string interning), vectorized-vs-scalar evaluation parity, key
// digest compatibility with HashRow, and randomized whole-plan equivalence
// against the row-at-a-time reference (reference_exec.h) as the oracle —
// results, row ids, emission order, error text and the rows_processed work
// metric must all match.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/batch_exec.h"
#include "exec/vector_eval.h"
#include "plan/logical_plan.h"
#include "reference_exec.h"

namespace dvs {
namespace {

std::vector<IdRow> MakeIdRows(std::vector<Row> rows) {
  std::vector<IdRow> out;
  RowId id = 1;
  for (Row& r : rows) out.push_back({id++, std::move(r)});
  return out;
}

/// Runs `plan` on the batch engine and on the reference over the same
/// sources, and checks they agree exactly: status text, rows, row ids and
/// rows_processed.
void ExpectMatchesReference(
    const PlanNode& plan,
    const std::function<const std::vector<IdRow>&(ObjectId)>& source,
    const std::string& label) {
  ExecContext ctx;
  ctx.resolve_scan = [&](ObjectId id) -> Result<BatchVector> {
    return RowsToBatches(source(id));
  };
  reference::Context ref;
  ref.scan = [&](ObjectId id) -> Result<std::vector<IdRow>> {
    return source(id);
  };
  auto b = ExecutePlan(plan, ctx);
  auto r = reference::Execute(plan, &ref);
  ASSERT_EQ(b.ok(), r.ok()) << label;
  if (!b.ok()) {
    EXPECT_EQ(b.status().ToString(), r.status().ToString()) << label;
    return;
  }
  ASSERT_EQ(b.value().size(), r.value().size()) << label;
  for (size_t i = 0; i < b.value().size(); ++i) {
    EXPECT_EQ(b.value()[i].id, r.value()[i].id) << label << " row " << i;
    EXPECT_TRUE(RowsEqual(b.value()[i].values, r.value()[i].values))
        << label << " row " << i;
  }
  EXPECT_EQ(ctx.rows_processed, ref.rows_processed) << label;
}

// ---- Null bitmap ----

TEST(ColumnBatchTest, NullBitmapRoundTrip) {
  BatchColumn col;
  col.AppendValue(Value::Int(1));
  col.AppendValue(Value::Null());
  col.AppendValue(Value::Int(3));
  col.AppendValue(Value::Null());
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.IsNull(3));
  EXPECT_EQ(col.null_count(), 2u);
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).int_value(), 3);
}

TEST(ColumnBatchTest, NullPropagatesThroughVectorEval) {
  // v + 1 over [10, NULL, 30]: the null row stays null, exactly like the
  // scalar engine's null propagation.
  std::vector<IdRow> rows =
      MakeIdRows({{Value::Int(10)}, {Value::Null()}, {Value::Int(30)}});
  BatchVector batches = RowsToBatches(rows);
  ASSERT_EQ(batches.size(), 1u);
  ExprPtr e = Binary(BinaryOp::kAdd, ColRef(0), LitInt(1));
  EvalContext ec;
  Result<ColumnPtr> out = EvalColumn(*e, *batches[0], nullptr, ec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value()->GetValue(0).int_value(), 11);
  EXPECT_TRUE(out.value()->IsNull(1));
  EXPECT_EQ(out.value()->GetValue(2).int_value(), 31);
}

// ---- Lane discipline ----

TEST(ColumnBatchTest, MixedTagsDemoteWithoutPromotion) {
  // Int then double then string: the lane demotes to boxed values but every
  // element keeps its exact original tag (SUM's all-int accumulation and
  // Value::Hash are tag-sensitive).
  BatchColumn col;
  col.AppendValue(Value::Int(7));
  col.AppendValue(Value::Double(2.5));
  col.AppendValue(Value::String("x"));
  EXPECT_EQ(col.lane(), BatchColumn::Lane::kVal);
  EXPECT_EQ(col.GetValue(0).type(), DataType::kInt64);
  EXPECT_EQ(col.GetValue(1).type(), DataType::kDouble);
  EXPECT_EQ(col.GetValue(2).type(), DataType::kString);
  EXPECT_EQ(col.GetValue(0).int_value(), 7);
  EXPECT_EQ(col.GetValue(1).double_value(), 2.5);
  EXPECT_EQ(col.GetValue(2).string_value(), "x");
}

TEST(ColumnBatchTest, BoolAndTimestampShareLaneButKeepTags) {
  // BOOL / INT64 / TIMESTAMP all ride the i64 lane; mixing them within one
  // column must still round-trip exact tags (via demotion).
  BatchColumn col;
  col.AppendValue(Value::Bool(true));
  col.AppendValue(Value::Timestamp(12345));
  col.AppendValue(Value::Int(9));
  EXPECT_EQ(col.GetValue(0).type(), DataType::kBool);
  EXPECT_TRUE(col.GetValue(0).bool_value());
  EXPECT_EQ(col.GetValue(1).type(), DataType::kTimestamp);
  EXPECT_EQ(col.GetValue(2).type(), DataType::kInt64);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(col.HashAt(i), col.GetValue(i).Hash()) << i;
  }
}

// ---- String lifetime ----

TEST(ColumnBatchTest, GatherInternsStringsIntoDestinationArena) {
  // Strings gathered into a new batch must not reference the source arena:
  // the source batch (and its arena) is freed while the gathered batch is
  // still live — exactly what filter compaction and join gathers do across
  // batch boundaries.
  auto src = std::make_shared<ColumnBatch>();
  {
    auto col = std::make_shared<BatchColumn>();
    col->AppendValue(Value::String("alpha-0123456789"));
    col->AppendValue(Value::String("beta-0123456789"));
    col->AppendValue(Value::String("gamma-0123456789"));
    src->cols.push_back(std::move(col));
    src->ids = {1, 2, 3};
    src->rows = 3;
  }
  BatchPtr gathered = GatherBatch(src, Sel{0, 2});
  src.reset();  // free the source batch and its string arena
  ASSERT_EQ(gathered->rows, 2u);
  EXPECT_EQ(gathered->ids, (std::vector<RowId>{1, 3}));
  EXPECT_EQ(gathered->cols[0]->GetValue(0).string_value(), "alpha-0123456789");
  EXPECT_EQ(gathered->cols[0]->GetValue(1).string_value(), "gamma-0123456789");
}

// ---- Selection-vector compaction ----

TEST(BatchExecTest, FilterCompactsAcrossBatchBoundaries) {
  // 2.5 batches worth of rows; keep every third row via IN. Compaction must
  // keep ids aligned with values across batch boundaries, and the batch
  // engine's work accounting must equal the reference's.
  const size_t n = 2 * kBatchSize + kBatchSize / 2;
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::String("r" + std::to_string(i % 7))});
  }
  std::vector<IdRow> input = MakeIdRows(std::move(rows));

  std::vector<ExprPtr> in_children;
  in_children.push_back(ColRef(0));
  for (size_t i = 0; i < n; i += 3) {
    in_children.push_back(LitInt(static_cast<int64_t>(i)));
  }
  PlanPtr plan = MakeFilter(
      MakeScan(1, "t",
               Schema({{"i", DataType::kInt64}, {"s", DataType::kString}})),
      InList(std::move(in_children)));

  ExecContext ctx;
  ctx.resolve_scan = [&](ObjectId) -> Result<BatchVector> {
    return RowsToBatches(input);
  };
  auto b = ExecutePlan(*plan, ctx);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(b.value().size(), (n + 2) / 3);
  ExpectMatchesReference(
      *plan, [&](ObjectId) -> const std::vector<IdRow>& { return input; },
      "filter");
}

// ---- Digest compatibility ----

TEST(BatchKeysTest, DigestsMatchHashRowExactly) {
  // ComputeBatchKeys digests feed the same KeyedIndex/KeyedSet tables as
  // KeyExtractor; they must equal HashRow of the materialized key bit for
  // bit, across every value tag (including the integral-double case, where
  // HashRow's numeric folding is tag-sensitive).
  std::vector<Row> rows = {
      {Value::Int(42), Value::String("a")},
      {Value::Null(), Value::String("b")},
      {Value::Bool(true), Value::Null()},
      {Value::Double(3.0), Value::String("c")},   // integral double
      {Value::Double(3.25), Value::String("d")},  // non-integral
      {Value::Timestamp(99), Value::String("e")},
  };
  BatchVector batches = RowsToBatches(MakeIdRows(std::move(rows)));
  ASSERT_EQ(batches.size(), 1u);
  std::vector<ExprPtr> keys;
  keys.push_back(ColRef(0));
  keys.push_back(ColRef(1));
  EvalContext ec;
  Result<BatchKeys> bk = ComputeBatchKeys(keys, *batches[0], ec);
  ASSERT_TRUE(bk.ok()) << bk.status().ToString();
  for (size_t r = 0; r < batches[0]->rows; ++r) {
    Row key = {batches[0]->cols[0]->GetValue(r),
               batches[0]->cols[1]->GetValue(r)};
    EXPECT_EQ(bk.value().digests[r], HashRow(key)) << "row " << r;
    bool has_null = key[0].is_null() || key[1].is_null();
    EXPECT_EQ(bk.value().has_null[r] != 0, has_null) << "row " << r;
  }
}

// ---- Randomized whole-plan equivalence (row reference as oracle) ----

Row RandomRow(Rng* rng) {
  // k: small-domain int (join/group key), occasionally null; v: mixed
  // int/double/null (SUM/AVG folds are tag-sensitive); s: small-domain
  // string, occasionally null.
  Value k = rng->Bernoulli(0.1) ? Value::Null()
                                : Value::Int(rng->Uniform(0, 6));
  Value v;
  switch (rng->Uniform(0, 2)) {
    case 0:
      v = Value::Null();
      break;
    case 1:
      v = Value::Int(rng->Uniform(-5, 5));
      break;
    default:
      v = Value::Double(static_cast<double>(rng->Uniform(-8, 8)) / 2.0);
      break;
  }
  Value s = rng->Bernoulli(0.1)
                ? Value::Null()
                : Value::String("s" + std::to_string(rng->Uniform(0, 3)));
  return {std::move(k), std::move(v), std::move(s)};
}

PlanPtr EquivalenceShape(int which, const Schema& schema) {
  PlanPtr sa = MakeScan(1, "a", schema);
  PlanPtr sb = MakeScan(2, "b", schema);
  switch (which) {
    case 0:  // filter + project with arithmetic
      return MakeProject(
          MakeFilter(sa, Binary(BinaryOp::kGt, ColRef(1), LitInt(0))),
          {ColRef(0), Binary(BinaryOp::kAdd, ColRef(1), ColRef(1)), ColRef(2)},
          {"k", "v2", "s"});
    case 1:  // inner equi-join
      return MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)});
    case 2:  // left join with residual over the concatenated row
      return MakeJoin(JoinType::kLeft, sa, sb, {ColRef(0)}, {ColRef(0)},
                      Binary(BinaryOp::kNe, ColRef(2), ColRef(5)));
    case 3:  // full outer join
      return MakeJoin(JoinType::kFull, sa, sb, {ColRef(0)}, {ColRef(0)});
    case 4:  // grouped aggregation, all fold kinds
      return MakeAggregate(sa, {ColRef(0)},
                           {Agg(AggFunc::kCountStar, {}),
                            Agg(AggFunc::kSum, {ColRef(1)}),
                            Agg(AggFunc::kMin, {ColRef(2)}),
                            Agg(AggFunc::kAvg, {ColRef(1)})},
                           {"k", "n", "sv", "mn", "av"});
    case 5:  // aggregation over a join (the E15 hot-path shape)
      return MakeAggregate(
          MakeJoin(JoinType::kInner, sa, sb, {ColRef(0)}, {ColRef(0)}),
          {ColRef(2)},
          {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(4)})},
          {"s", "n", "sv"});
    case 6:  // distinct over a projection
      return MakeDistinct(MakeProject(sa, {ColRef(0), ColRef(2)}, {"k", "s"}));
    case 7:  // union all
      return MakeUnionAll(MakeProject(sa, {ColRef(0), ColRef(1)}, {"k", "v"}),
                          MakeProject(sb, {ColRef(0), ColRef(1)}, {"k", "v"}));
    case 8:  // window over partitions (row-kernel shim under batching)
      return MakeWindow(sa, {ColRef(2)}, {{ColRef(1), true}},
                        {Win(WindowFunc::kRowNumber, {}),
                         Win(WindowFunc::kSum, {ColRef(1)})},
                        {"rn", "running"});
    default:  // scalar aggregation (forced global group)
      return MakeAggregate(sa, {},
                           {Agg(AggFunc::kCountStar, {}),
                            Agg(AggFunc::kSum, {ColRef(1)})},
                           {"n", "sv"});
  }
}

TEST(BatchExecTest, RandomPlansMatchRowEngineExactly) {
  const Schema schema({{"k", DataType::kInt64},
                       {"v", DataType::kInt64},
                       {"s", DataType::kString}});
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int shape = 0; shape <= 9; ++shape) {
      Rng rng(seed * 104729 + static_cast<uint64_t>(shape));
      std::vector<Row> ra, rb;
      const int64_t na = rng.Uniform(0, 60);
      const int64_t nb = rng.Uniform(0, 60);
      for (int64_t i = 0; i < na; ++i) ra.push_back(RandomRow(&rng));
      for (int64_t i = 0; i < nb; ++i) rb.push_back(RandomRow(&rng));
      std::vector<IdRow> ia = MakeIdRows(std::move(ra));
      std::vector<IdRow> ib = MakeIdRows(std::move(rb));

      PlanPtr plan = CanonicalizePlanTags(EquivalenceShape(shape, schema));
      ASSERT_NE(plan, nullptr);
      ExpectMatchesReference(
          *plan,
          [&](ObjectId id) -> const std::vector<IdRow>& {
            return id == 1 ? ia : ib;
          },
          "seed " + std::to_string(seed) + " shape " + std::to_string(shape));
    }
  }
}

TEST(BatchExecTest, PresentationOperatorsMatchReference) {
  // ORDER BY, LIMIT and FLATTEN run as row kernels (LIMIT directly on
  // batches) inside the batch dispatch; a limit that ends inside the second
  // of three input batches cuts one batch short.
  const size_t n = 2 * kBatchSize + 100;
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = static_cast<int64_t>((i * 7919) % 101);
    rows.push_back({Value::Int(k),
                    i % 5 == 0 ? Value::Null()
                               : Value::MakeArray({Value::Int(k),
                                                   Value::String("e")})});
  }
  std::vector<IdRow> input = MakeIdRows(std::move(rows));
  const Schema schema({{"k", DataType::kInt64}, {"a", DataType::kArray}});
  auto source = [&](ObjectId) -> const std::vector<IdRow>& { return input; };
  for (int64_t limit : {int64_t{0}, int64_t{5},
                        static_cast<int64_t>(kBatchSize) + 7,
                        static_cast<int64_t>(n) + 1, int64_t{-1}}) {
    PlanPtr plan = CanonicalizePlanTags(
        MakeLimit(MakeOrderBy(MakeScan(1, "t", schema), {{ColRef(0), false}}),
                  limit));
    ExpectMatchesReference(*plan, source,
                           "order by + limit " + std::to_string(limit));
    PlanPtr unsorted =
        CanonicalizePlanTags(MakeLimit(MakeScan(1, "t", schema), limit));
    ExpectMatchesReference(*unsorted, source,
                           "limit " + std::to_string(limit));
  }
  PlanPtr flatten =
      CanonicalizePlanTags(MakeFlatten(MakeScan(1, "t", schema), ColRef(1)));
  ExpectMatchesReference(*flatten, source, "flatten");
  // FLATTEN over a non-array value fails the same way in both.
  PlanPtr bad =
      CanonicalizePlanTags(MakeFlatten(MakeScan(1, "t", schema), ColRef(0)));
  ExpectMatchesReference(*bad, source, "flatten error");
}

TEST(BatchExecTest, VolatileFunctionsFailWithoutEntropy) {
  // No execution context carries an entropy source, so RANDOM() fails: the
  // vectorized evaluation errors, the row-wise redo surfaces the scalar
  // error, exactly as the reference does. Over no rows nothing evaluates.
  const Schema schema({{"k", DataType::kInt64}});
  PlanPtr plan = CanonicalizePlanTags(MakeProject(
      MakeScan(1, "t", schema), {ColRef(0), Func("random", {})}, {"k", "r"}));
  std::vector<IdRow> rows = MakeIdRows({{Value::Int(1)}, {Value::Int(2)}});
  ExecContext ctx;
  ctx.resolve_scan = [&](ObjectId) -> Result<BatchVector> {
    return RowsToBatches(rows);
  };
  auto out = ExecutePlan(*plan, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUserError);
  EXPECT_NE(out.status().message().find("no entropy source"),
            std::string::npos)
      << out.status().ToString();
  ExpectMatchesReference(
      *plan, [&](ObjectId) -> const std::vector<IdRow>& { return rows; },
      "random()");
  const std::vector<IdRow> empty;
  ExpectMatchesReference(
      *plan, [&](ObjectId) -> const std::vector<IdRow>& { return empty; },
      "random() over no rows");
}

TEST(BatchExecTest, SourceRowsOfTheWrongWidthFail) {
  // A scan batch (or VALUES row) whose width is not the node's schema width
  // fails with a Status before any kernel reads it.
  const Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  PlanPtr plan = CanonicalizePlanTags(MakeJoin(
      JoinType::kInner, MakeScan(1, "a", schema), MakeScan(2, "b", schema),
      {ColRef(0)}, {ColRef(0)}));
  std::vector<IdRow> good = MakeIdRows({{Value::Int(1), Value::Int(2)}});
  for (Row ragged : {Row{Value::Int(1)},
                     Row{Value::Int(1), Value::Int(2), Value::Int(3)}}) {
    ExecContext ctx;
    ctx.resolve_scan = [&](ObjectId id) -> Result<BatchVector> {
      BatchVector out = RowsToBatches(good);
      if (id == 2) out.push_back(RowsToBatches({IdRow{99, ragged}})[0]);
      return out;
    };
    auto out = ExecutePlan(*plan, ctx);
    ASSERT_FALSE(out.ok()) << ragged.size();
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
    EXPECT_NE(out.status().message().find("Scan b"), std::string::npos)
        << out.status().ToString();
  }
  PlanPtr values = MakeValues(schema, {{Value::Int(1), Value::Int(2)},
                                       {Value::Int(3)}});
  ExecContext ctx;
  auto out = ExecutePlan(*values, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dvs
