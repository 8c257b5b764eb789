// Tests for exec/: evaluator semantics and full plan execution.

#include <gtest/gtest.h>

#include <map>

#include "exec/executor.h"
#include "exec/row_id.h"

namespace dvs {
namespace {

// A tiny in-memory "database" for executor tests.
class TestDb {
 public:
  ObjectId AddTable(std::string name, Schema schema,
                    std::vector<Row> rows) {
    ObjectId id = next_id_++;
    std::vector<IdRow> idrows;
    RowId rid = id * 1000;
    for (Row& r : rows) idrows.push_back({rid++, std::move(r)});
    tables_[id] = {std::move(name), std::move(schema), std::move(idrows)};
    return id;
  }

  PlanPtr Scan(ObjectId id) const {
    const auto& t = tables_.at(id);
    return MakeScan(id, t.name, t.schema);
  }

  ExecContext Ctx() const {
    ExecContext ctx;
    ctx.resolve_scan = [this](ObjectId id) -> Result<BatchVector> {
      auto it = tables_.find(id);
      if (it == tables_.end()) return NotFound("no table");
      return RowsToBatches(it->second.rows);
    };
    return ctx;
  }

 private:
  struct T {
    std::string name;
    Schema schema;
    std::vector<IdRow> rows;
  };
  std::map<ObjectId, T> tables_;
  ObjectId next_id_ = 1;
};

Schema OrdersSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"customer", DataType::kString},
                 {"amount", DataType::kInt64}});
}

TestDb MakeOrdersDb(ObjectId* orders_out) {
  TestDb db;
  *orders_out = db.AddTable("orders", OrdersSchema(),
                            {
                                {Value::Int(1), Value::String("alice"), Value::Int(10)},
                                {Value::Int(2), Value::String("bob"), Value::Int(20)},
                                {Value::Int(3), Value::String("alice"), Value::Int(30)},
                                {Value::Int(4), Value::String("cara"), Value::Int(5)},
                            });
  return db;
}

// ---- Evaluator ----

TEST(EvaluatorTest, ArithmeticIntAndDouble) {
  EvalContext ctx;
  Row row;
  EXPECT_EQ(Eval(*Binary(BinaryOp::kAdd, LitInt(2), LitInt(3)), row, ctx)
                .value().int_value(), 5);
  EXPECT_EQ(Eval(*Binary(BinaryOp::kMul, LitInt(2), LitDouble(1.5)), row, ctx)
                .value().double_value(), 3.0);
  EXPECT_EQ(Eval(*Binary(BinaryOp::kDiv, LitInt(7), LitInt(2)), row, ctx)
                .value().int_value(), 3);
}

TEST(EvaluatorTest, DivisionByZeroIsUserError) {
  EvalContext ctx;
  Row row;
  auto r = Eval(*Binary(BinaryOp::kDiv, LitInt(1), LitInt(0)), row, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUserError);
}

TEST(EvaluatorTest, NullPropagation) {
  EvalContext ctx;
  Row row;
  EXPECT_TRUE(Eval(*Binary(BinaryOp::kAdd, LitNull(), LitInt(3)), row, ctx)
                  .value().is_null());
  EXPECT_TRUE(Eval(*Binary(BinaryOp::kEq, LitNull(), LitNull()), row, ctx)
                  .value().is_null());
}

TEST(EvaluatorTest, ThreeValuedLogic) {
  EvalContext ctx;
  Row row;
  // FALSE AND NULL = FALSE (short circuit), TRUE OR NULL = TRUE.
  EXPECT_EQ(Eval(*Binary(BinaryOp::kAnd, LitBool(false), LitNull()), row, ctx)
                .value().bool_value(), false);
  EXPECT_EQ(Eval(*Binary(BinaryOp::kOr, LitBool(true), LitNull()), row, ctx)
                .value().bool_value(), true);
  // TRUE AND NULL = NULL.
  EXPECT_TRUE(Eval(*Binary(BinaryOp::kAnd, LitBool(true), LitNull()), row, ctx)
                  .value().is_null());
}

TEST(EvaluatorTest, IsNullOperators) {
  EvalContext ctx;
  Row row;
  EXPECT_TRUE(Eval(*Unary(UnaryOp::kIsNull, LitNull()), row, ctx)
                  .value().bool_value());
  EXPECT_TRUE(Eval(*Unary(UnaryOp::kIsNotNull, LitInt(1)), row, ctx)
                  .value().bool_value());
}

TEST(EvaluatorTest, TimestampArithmetic) {
  EvalContext ctx;
  Row row;
  Value v = Eval(*Binary(BinaryOp::kSub, Lit(Value::Timestamp(1000)),
                         Lit(Value::Timestamp(400))), row, ctx).value();
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.int_value(), 600);
  Value v2 = Eval(*Binary(BinaryOp::kAdd, Lit(Value::Timestamp(1000)),
                          LitInt(500)), row, ctx).value();
  EXPECT_EQ(v2.type(), DataType::kTimestamp);
  EXPECT_EQ(v2.timestamp_value(), 1500);
}

TEST(EvaluatorTest, CaseWhen) {
  EvalContext ctx;
  Row row = {Value::Int(7)};
  auto expr = CaseWhen({Binary(BinaryOp::kLt, ColRef(0), LitInt(5)),
                        LitString("small"),
                        Binary(BinaryOp::kLt, ColRef(0), LitInt(10)),
                        LitString("medium"), LitString("large")});
  EXPECT_EQ(Eval(*expr, row, ctx).value().string_value(), "medium");
}

TEST(EvaluatorTest, InList) {
  EvalContext ctx;
  Row row;
  EXPECT_TRUE(Eval(*InList({LitInt(2), LitInt(1), LitInt(2)}), row, ctx)
                  .value().bool_value());
  EXPECT_FALSE(Eval(*InList({LitInt(9), LitInt(1), LitInt(2)}), row, ctx)
                   .value().bool_value());
  // No match but a NULL candidate -> NULL.
  EXPECT_TRUE(Eval(*InList({LitInt(9), LitInt(1), LitNull()}), row, ctx)
                  .value().is_null());
}

TEST(EvaluatorTest, FunctionsAndVolatility) {
  EvalContext ctx;
  ctx.current_time = 777;
  Row row;
  EXPECT_EQ(Eval(*Func("abs", {LitInt(-5)}), row, ctx).value().int_value(), 5);
  EXPECT_EQ(Eval(*Func("upper", {LitString("abc")}), row, ctx)
                .value().string_value(), "ABC");
  EXPECT_EQ(Eval(*Func("current_timestamp", {}), row, ctx)
                .value().timestamp_value(), 777);
  EXPECT_EQ(ExprVolatility(Func("abs", {LitInt(1)})).value(),
            Volatility::kImmutable);
  EXPECT_EQ(ExprVolatility(Func("current_timestamp", {})).value(),
            Volatility::kContext);
  EXPECT_EQ(ExprVolatility(Func("random", {})).value(), Volatility::kVolatile);
  EXPECT_FALSE(ExprVolatility(Func("no_such_fn", {})).ok());
}

TEST(EvaluatorTest, DateTrunc) {
  EvalContext ctx;
  Row row;
  Micros t = 3 * kMicrosPerHour + 25 * kMicrosPerMinute + 9 * kMicrosPerSecond;
  Value v = Eval(*Func("date_trunc", {LitString("hour"), Lit(Value::Timestamp(t))}),
                 row, ctx).value();
  EXPECT_EQ(v.timestamp_value(), 3 * kMicrosPerHour);
}

TEST(EvaluatorTest, CastSemantics) {
  EXPECT_EQ(CastValue(Value::String("42"), DataType::kInt64).value().int_value(), 42);
  EXPECT_EQ(CastValue(Value::Int(3), DataType::kDouble).value().double_value(), 3.0);
  EXPECT_FALSE(CastValue(Value::String("xyz"), DataType::kInt64).ok());
  EXPECT_TRUE(CastValue(Value::Null(), DataType::kInt64).value().is_null());
}

// ---- Executor ----

TEST(ExecutorTest, ScanProducesAllRows) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto out = ExecutePlan(*db.Scan(orders), db.Ctx());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 4u);
}

TEST(ExecutorTest, FilterDropsNonMatching) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeFilter(db.Scan(orders),
                         Binary(BinaryOp::kGt, ColRef(2), LitInt(15)));
  auto out = ExecutePlan(*plan, db.Ctx());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
}

TEST(ExecutorTest, FilterPreservesRowIds) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto all = ExecutePlan(*db.Scan(orders), db.Ctx()).value();
  auto plan = MakeFilter(db.Scan(orders),
                         Binary(BinaryOp::kEq, ColRef(1), LitString("bob")));
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, all[1].id);
}

TEST(ExecutorTest, ProjectComputesExpressions) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeProject(
      db.Scan(orders),
      {ColRef(1), Binary(BinaryOp::kMul, ColRef(2), LitInt(2))},
      {"customer", "double_amount"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].values[1].int_value(), 20);
  EXPECT_EQ(plan->output_schema.column(1).name, "double_amount");
}

TEST(ExecutorTest, InnerJoinMatchesKeys) {
  TestDb db;
  ObjectId customers = db.AddTable(
      "customers", Schema({{"name", DataType::kString}, {"tier", DataType::kString}}),
      {{Value::String("alice"), Value::String("gold")},
       {Value::String("bob"), Value::String("silver")}});
  ObjectId orders;
  TestDb db2 = MakeOrdersDb(&orders);
  // Rebuild both tables in one db.
  TestDb both;
  ObjectId o = both.AddTable("orders", OrdersSchema(),
                             {{Value::Int(1), Value::String("alice"), Value::Int(10)},
                              {Value::Int(2), Value::String("bob"), Value::Int(20)},
                              {Value::Int(3), Value::String("alice"), Value::Int(30)},
                              {Value::Int(4), Value::String("cara"), Value::Int(5)}});
  ObjectId c = both.AddTable(
      "customers", Schema({{"name", DataType::kString}, {"tier", DataType::kString}}),
      {{Value::String("alice"), Value::String("gold")},
       {Value::String("bob"), Value::String("silver")}});
  (void)customers; (void)db2;
  auto plan = MakeJoin(JoinType::kInner, both.Scan(o), both.Scan(c),
                       {ColRef(1)}, {ColRef(0)});
  auto out = ExecutePlan(*plan, both.Ctx()).value();
  EXPECT_EQ(out.size(), 3u);  // cara has no match
  EXPECT_EQ(plan->output_schema.size(), 5u);
}

TEST(ExecutorTest, LeftJoinNullExtendsUnmatched) {
  TestDb db;
  ObjectId o = db.AddTable("orders", OrdersSchema(),
                           {{Value::Int(1), Value::String("alice"), Value::Int(10)},
                            {Value::Int(4), Value::String("cara"), Value::Int(5)}});
  ObjectId c = db.AddTable(
      "customers", Schema({{"name", DataType::kString}, {"tier", DataType::kString}}),
      {{Value::String("alice"), Value::String("gold")}});
  auto plan = MakeJoin(JoinType::kLeft, db.Scan(o), db.Scan(c),
                       {ColRef(1)}, {ColRef(0)});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 2u);
  int nulls = 0;
  for (const IdRow& r : out) {
    if (r.values[3].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 1);
}

TEST(ExecutorTest, FullJoinExtendsBothSides) {
  TestDb db;
  ObjectId l = db.AddTable("l", Schema({{"k", DataType::kInt64}}),
                           {{Value::Int(1)}, {Value::Int(2)}});
  ObjectId r = db.AddTable("r", Schema({{"k", DataType::kInt64}}),
                           {{Value::Int(2)}, {Value::Int(3)}});
  auto plan = MakeJoin(JoinType::kFull, db.Scan(l), db.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  EXPECT_EQ(out.size(), 3u);  // (1,null), (2,2), (null,3)
}

TEST(ExecutorTest, NullKeysNeverJoin) {
  TestDb db;
  ObjectId l = db.AddTable("l", Schema({{"k", DataType::kInt64}}),
                           {{Value::Null()}});
  ObjectId r = db.AddTable("r", Schema({{"k", DataType::kInt64}}),
                           {{Value::Null()}});
  auto inner = MakeJoin(JoinType::kInner, db.Scan(l), db.Scan(r),
                        {ColRef(0)}, {ColRef(0)});
  EXPECT_EQ(ExecutePlan(*inner, db.Ctx()).value().size(), 0u);
  auto full = MakeJoin(JoinType::kFull, db.Scan(l), db.Scan(r),
                       {ColRef(0)}, {ColRef(0)});
  EXPECT_EQ(ExecutePlan(*full, db.Ctx()).value().size(), 2u);
}

TEST(ExecutorTest, JoinResidualPredicate) {
  TestDb db;
  ObjectId l = db.AddTable("l", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}),
                           {{Value::Int(1), Value::Int(10)},
                            {Value::Int(1), Value::Int(99)}});
  ObjectId r = db.AddTable("r", Schema({{"k", DataType::kInt64}, {"w", DataType::kInt64}}),
                           {{Value::Int(1), Value::Int(50)}});
  // Join on k with residual v < w.
  auto plan = MakeJoin(JoinType::kInner, db.Scan(l), db.Scan(r),
                       {ColRef(0)}, {ColRef(0)},
                       Binary(BinaryOp::kLt, ColRef(1), ColRef(3)));
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values[1].int_value(), 10);
}

TEST(ExecutorTest, UnionAllTagsBranches) {
  TestDb db;
  ObjectId t = db.AddTable("t", Schema({{"k", DataType::kInt64}}),
                           {{Value::Int(1)}});
  auto plan = MakeUnionAll(db.Scan(t), db.Scan(t));
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].id, out[1].id);  // same source row, distinct identities
}

TEST(ExecutorTest, GroupedAggregation) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeAggregate(
      db.Scan(orders), {ColRef(1)},
      {Agg(AggFunc::kCountStar, {}), Agg(AggFunc::kSum, {ColRef(2)})},
      {"customer", "n", "total"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 3u);
  // std::map ordering: alice, bob, cara.
  EXPECT_EQ(out[0].values[0].string_value(), "alice");
  EXPECT_EQ(out[0].values[1].int_value(), 2);
  EXPECT_EQ(out[0].values[2].int_value(), 40);
}

TEST(ExecutorTest, ScalarAggregateOnEmptyInput) {
  TestDb db;
  ObjectId t = db.AddTable("t", Schema({{"v", DataType::kInt64}}), {});
  auto plan = MakeAggregate(db.Scan(t), {},
                            {Agg(AggFunc::kCountStar, {}),
                             Agg(AggFunc::kSum, {ColRef(0)})},
                            {"n", "total"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values[0].int_value(), 0);
  EXPECT_TRUE(out[0].values[1].is_null());
}

TEST(ExecutorTest, AggregateFunctions) {
  TestDb db;
  ObjectId t = db.AddTable("t", Schema({{"v", DataType::kInt64}, {"b", DataType::kBool}}),
                           {{Value::Int(1), Value::Bool(true)},
                            {Value::Int(2), Value::Bool(false)},
                            {Value::Int(2), Value::Bool(true)},
                            {Value::Null(), Value::Bool(true)}});
  auto plan = MakeAggregate(
      db.Scan(t), {},
      {Agg(AggFunc::kCount, {ColRef(0)}), Agg(AggFunc::kMin, {ColRef(0)}),
       Agg(AggFunc::kMax, {ColRef(0)}), Agg(AggFunc::kAvg, {ColRef(0)}),
       Agg(AggFunc::kCountIf, {ColRef(1)}),
       Agg(AggFunc::kCount, {ColRef(0)}, /*distinct=*/true)},
      {"c", "mn", "mx", "avg", "cif", "cd"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 1u);
  const Row& r = out[0].values;
  EXPECT_EQ(r[0].int_value(), 3);       // count skips null
  EXPECT_EQ(r[1].int_value(), 1);       // min
  EXPECT_EQ(r[2].int_value(), 2);       // max
  EXPECT_DOUBLE_EQ(r[3].double_value(), 5.0 / 3.0);
  EXPECT_EQ(r[4].int_value(), 3);       // count_if trues
  EXPECT_EQ(r[5].int_value(), 2);       // distinct {1,2}
}

TEST(ExecutorTest, DistinctRemovesDuplicates) {
  TestDb db;
  ObjectId t = db.AddTable("t", Schema({{"v", DataType::kInt64}}),
                           {{Value::Int(1)}, {Value::Int(1)}, {Value::Int(2)}});
  auto plan = MakeDistinct(db.Scan(t));
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  EXPECT_EQ(out.size(), 2u);
}

TEST(ExecutorTest, WindowRowNumberAndRunningSum) {
  TestDb db;
  ObjectId t = db.AddTable(
      "t", Schema({{"grp", DataType::kString}, {"v", DataType::kInt64}}),
      {{Value::String("a"), Value::Int(10)},
       {Value::String("a"), Value::Int(20)},
       {Value::String("b"), Value::Int(5)}});
  auto plan = MakeWindow(
      db.Scan(t), {ColRef(0)}, {{ColRef(1), true}},
      {Win(WindowFunc::kRowNumber, {}), Win(WindowFunc::kSum, {ColRef(1)})},
      {"rn", "running"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 3u);
  // Partition "a" sorted by v: (10, rn=1, run=10), (20, rn=2, run=30).
  EXPECT_EQ(out[0].values[2].int_value(), 1);
  EXPECT_EQ(out[0].values[3].int_value(), 10);
  EXPECT_EQ(out[1].values[2].int_value(), 2);
  EXPECT_EQ(out[1].values[3].int_value(), 30);
  EXPECT_EQ(out[2].values[3].int_value(), 5);
}

TEST(ExecutorTest, WindowUnorderedIsWholePartition) {
  TestDb db;
  ObjectId t = db.AddTable(
      "t", Schema({{"grp", DataType::kString}, {"v", DataType::kInt64}}),
      {{Value::String("a"), Value::Int(10)},
       {Value::String("a"), Value::Int(20)}});
  auto plan = MakeWindow(db.Scan(t), {ColRef(0)}, {},
                         {Win(WindowFunc::kSum, {ColRef(1)})}, {"total"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].values[2].int_value(), 30);
  EXPECT_EQ(out[1].values[2].int_value(), 30);
}

TEST(ExecutorTest, WindowRankHandlesTies) {
  TestDb db;
  ObjectId t = db.AddTable("t", Schema({{"v", DataType::kInt64}}),
                           {{Value::Int(10)}, {Value::Int(10)}, {Value::Int(20)}});
  auto plan = MakeWindow(db.Scan(t), {}, {{ColRef(0), true}},
                         {Win(WindowFunc::kRank, {}),
                          Win(WindowFunc::kDenseRank, {})},
                         {"r", "dr"});
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].values[1].int_value(), 1);
  EXPECT_EQ(out[1].values[1].int_value(), 1);
  EXPECT_EQ(out[2].values[1].int_value(), 3);   // rank skips
  EXPECT_EQ(out[2].values[2].int_value(), 2);   // dense_rank does not
}

TEST(ExecutorTest, FlattenExpandsArrays) {
  TestDb db;
  ObjectId t = db.AddTable(
      "t", Schema({{"id", DataType::kInt64}, {"tags", DataType::kArray}}),
      {{Value::Int(1), Value::MakeArray({Value::String("x"), Value::String("y")})},
       {Value::Int(2), Value::Null()},
       {Value::Int(3), Value::MakeArray({Value::String("z")})}});
  auto plan = MakeFlatten(db.Scan(t), ColRef(1), "tag");
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 3u);  // 2 + 0 (null dropped) + 1
  EXPECT_EQ(out[0].values[3].string_value(), "x");
  EXPECT_EQ(out[1].values[2].int_value(), 1);  // index column
}

TEST(ExecutorTest, OrderByAndLimit) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeLimit(
      MakeOrderBy(db.Scan(orders), {{ColRef(2), /*ascending=*/false}}), 2);
  auto out = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].values[2].int_value(), 30);
  EXPECT_EQ(out[1].values[2].int_value(), 20);
}

TEST(ExecutorTest, RowIdsAreDeterministicAcrossRuns) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeAggregate(db.Scan(orders), {ColRef(1)},
                            {Agg(AggFunc::kSum, {ColRef(2)})}, {"c", "t"});
  auto a = ExecutePlan(*plan, db.Ctx()).value();
  auto b = ExecutePlan(*plan, db.Ctx()).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(ExecutorTest, UserErrorSurfacesFromDeepInPlan) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  auto plan = MakeProject(db.Scan(orders),
                          {Binary(BinaryOp::kDiv, ColRef(2), LitInt(0))},
                          {"boom"});
  auto out = ExecutePlan(*plan, db.Ctx());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUserError);
}

TEST(ExecutorTest, RowsProcessedAccounting) {
  ObjectId orders;
  TestDb db = MakeOrdersDb(&orders);
  ExecContext ctx = db.Ctx();
  auto plan = MakeFilter(db.Scan(orders),
                         Binary(BinaryOp::kGt, ColRef(2), LitInt(15)));
  ASSERT_TRUE(ExecutePlan(*plan, ctx).ok());
  EXPECT_EQ(ctx.rows_processed, 4u + 2u);  // scan output + filter output
}

}  // namespace
}  // namespace dvs
