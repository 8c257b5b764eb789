// Tests for the precomputed-hash key infrastructure (common/key_hash.h) and
// the HashRow digest it builds on.

#include <gtest/gtest.h>

#include "common/key_hash.h"
#include "exec/evaluator.h"
#include "exec/executor.h"
#include "plan/logical_plan.h"
#include "types/row.h"

namespace dvs {
namespace {

// ---- HashRow digest properties ----

TEST(HashRowTest, TypeTagsDisambiguateStructurallyDistinctRows) {
  // Int(1) and Timestamp(1) carry the same payload bits but are structurally
  // different rows; the digest must separate them.
  EXPECT_NE(HashRow({Value::Int(1)}), HashRow({Value::Timestamp(1)}));
  EXPECT_NE(HashRow({Value::Int(1)}), HashRow({Value::Bool(true)}));
  EXPECT_NE(HashRow({Value::Int(0)}), HashRow({Value::Bool(false)}));
  EXPECT_NE(HashRow({Value::Int(0)}), HashRow({Value::Null()}));
  EXPECT_NE(HashRow({Value::String("1")}), HashRow({Value::Int(1)}));
}

TEST(HashRowTest, ConsistentWithStructuralEquality) {
  // Int(1) and Double(1.0) compare equal (cross-numeric), so their digests
  // must agree — hash maps would otherwise split equal keys.
  Row a = {Value::Int(1)};
  Row b = {Value::Double(1.0)};
  ASSERT_TRUE(RowsEqual(a, b));
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(HashRowTest, LengthAndOrderSensitive) {
  EXPECT_NE(HashRow({Value::Int(1), Value::Int(2)}),
            HashRow({Value::Int(2), Value::Int(1)}));
  EXPECT_NE(HashRow({Value::Int(1)}), HashRow({Value::Int(1), Value::Null()}));
  EXPECT_NE(HashRow({}), HashRow({Value::Null()}));
}

TEST(RowLessTest, MatchesValueCompareLexicographically) {
  EXPECT_TRUE(RowLess({Value::Int(1)}, {Value::Int(2)}));
  EXPECT_FALSE(RowLess({Value::Int(2)}, {Value::Int(1)}));
  EXPECT_FALSE(RowLess({Value::Int(1)}, {Value::Int(1)}));
  EXPECT_TRUE(RowLess({Value::Int(1)}, {Value::Int(1), Value::Int(0)}));
  EXPECT_TRUE(RowLess({Value::Null()}, {Value::Int(0)}));  // NULL sorts first
}

// ---- HashedKey / KeyedIndex ----

TEST(KeyedIndexTest, HashedKeyComputesDigestOnce) {
  Row key = {Value::Int(7), Value::String("x")};
  HashedKey hk(key);
  EXPECT_EQ(hk.digest, HashRow(key));
  EXPECT_TRUE(RowsEqual(hk.values, key));
}

TEST(KeyedIndexTest, ForcedCollisionKeysStayDistinct) {
  // Two different keys forced onto the SAME digest must still behave as two
  // keys: equality falls back to RowsEqual on digest ties.
  Row k1 = {Value::Int(1)};
  Row k2 = {Value::Int(2)};
  constexpr uint64_t kDigest = 42;

  KeyedIndex<int> index;
  index.emplace(HashedKey(k1, kDigest), 100);
  index.emplace(HashedKey(k2, kDigest), 200);
  ASSERT_EQ(index.size(), 2u);

  auto it1 = index.find(HashedKeyRef{&k1, kDigest});
  auto it2 = index.find(HashedKeyRef{&k2, kDigest});
  ASSERT_NE(it1, index.end());
  ASSERT_NE(it2, index.end());
  EXPECT_EQ(it1->second, 100);
  EXPECT_EQ(it2->second, 200);

  // A third key on the same digest is absent.
  Row k3 = {Value::Int(3)};
  EXPECT_EQ(index.find(HashedKeyRef{&k3, kDigest}), index.end());
}

TEST(KeyedIndexTest, TotalCollisionGroupingStillSeparatesKeys) {
  // Degenerate digest function (everything collides): grouping through the
  // index must still distinguish all keys.
  KeyedIndex<std::vector<int>> groups;
  for (int i = 0; i < 100; ++i) {
    Row key = {Value::Int(i % 10)};
    auto it = groups.find(HashedKeyRef{&key, 0});
    if (it == groups.end()) {
      it = groups.emplace(HashedKey(std::move(key), 0), std::vector<int>{})
               .first;
    }
    it->second.push_back(i);
  }
  ASSERT_EQ(groups.size(), 10u);
  for (const auto& [key, members] : groups) {
    ASSERT_EQ(members.size(), 10u);
    for (int m : members) {
      EXPECT_EQ(m % 10, static_cast<int>(key.values[0].int_value()));
    }
  }
}

TEST(KeyedIndexTest, MixedDigestAndRefProbes) {
  KeyedSet set;
  Row a = {Value::String("alpha"), Value::Int(1)};
  Row b = {Value::String("beta"), Value::Int(2)};
  set.insert(HashedKey(a));
  EXPECT_NE(set.find(HashedKeyRef{&a, HashRow(a)}), set.end());
  EXPECT_EQ(set.find(HashedKeyRef{&b, HashRow(b)}), set.end());
  // Wrong digest for the right row must miss: digests are part of identity.
  EXPECT_EQ(set.find(HashedKeyRef{&a, HashRow(a) + 1}), set.end());
}

// ---- KeyExtractor over real expressions ----

TEST(KeyExtractorTest, ColumnRefFastPathMatchesEval) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(ColRef(1, "name", DataType::kString));
  exprs.push_back(ColRef(0, "id", DataType::kInt64));

  EvalContext ctx;
  KeyExtractor ex(exprs, ctx);
  Row row = {Value::Int(5), Value::String("s")};

  ASSERT_TRUE(ex.Extract(row).ok());
  Row via_eval;
  for (const ExprPtr& e : exprs) {
    auto v = Eval(*e, row, ctx);
    ASSERT_TRUE(v.ok());
    via_eval.push_back(v.take());
  }
  EXPECT_TRUE(RowsEqual(ex.key(), via_eval));
  EXPECT_EQ(ex.digest(), HashRow(via_eval));
  EXPECT_FALSE(ex.has_null());

  // Scratch reuse across rows: a second extraction fully replaces the first.
  Row row2 = {Value::Int(9), Value::Null()};
  ASSERT_TRUE(ex.Extract(row2).ok());
  EXPECT_TRUE(ex.has_null());
  EXPECT_EQ(ex.digest(), HashRow({Value::Null(), Value::Int(9)}));
}

}  // namespace
}  // namespace dvs
