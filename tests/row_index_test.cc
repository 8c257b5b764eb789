// Tests for the persistent row-id index of VersionedTable: build,
// incremental maintenance across versions, FULL-overwrite rebuild,
// unaffected time travel, and the O(changes) delete path (verified through
// StorageStats: lookup count == delete change count).

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/versioned_table.h"

namespace dvs {
namespace {

Schema TwoCol() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

Row R(int64_t id, const char* name) {
  return {Value::Int(id), Value::String(name)};
}

std::vector<Row> ManyRows(int n, int start = 0) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = start; i < start + n; ++i) {
    rows.push_back(R(i, ("r" + std::to_string(i)).c_str()));
  }
  return rows;
}

TEST(RowIndexTest, BuildOnInsert) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet cs = t.MakeInsertChanges(ManyRows(10));
  ASSERT_TRUE(t.ApplyChanges(cs, {10, 0}).ok());

  for (const ChangeRow& c : cs) {
    const RowLocation* loc = t.FindRow(c.row_id);
    ASSERT_NE(loc, nullptr);
    EXPECT_GE(loc->partition, 1u);
    EXPECT_LT(loc->offset, 4u);  // partitions hold at most 4 rows
  }
  EXPECT_EQ(t.FindRow(9999), nullptr);
  EXPECT_EQ(t.stats().index_entries_added, 10u);
}

TEST(RowIndexTest, DeleteLookupsEqualDeleteChangeCount) {
  // The acceptance criterion for the O(changes) delete path: ApplyChanges
  // locates deletes purely through the index — exactly one point lookup per
  // delete change, independent of table size or partition count.
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet inserts = t.MakeInsertChanges(ManyRows(100));
  ASSERT_TRUE(t.ApplyChanges(inserts, {10, 0}).ok());
  ASSERT_EQ(t.stats().index_lookups, 0u);  // inserts never look up

  ChangeSet deletes;
  for (size_t i = 0; i < inserts.size(); i += 10) {
    deletes.push_back(
        {ChangeAction::kDelete, inserts[i].row_id, inserts[i].values});
  }
  const uint64_t before = t.stats().index_lookups;
  ASSERT_TRUE(t.ApplyChanges(deletes, {20, 0}).ok());
  EXPECT_EQ(t.stats().index_lookups - before, deletes.size());
  EXPECT_EQ(t.stats().index_entries_removed, deletes.size());

  // Deleted ids are gone from the index; survivors remain.
  for (const ChangeRow& d : deletes) EXPECT_EQ(t.FindRow(d.row_id), nullptr);
  EXPECT_NE(t.FindRow(inserts[1].row_id), nullptr);
  EXPECT_EQ(t.RowCountAt(t.latest_version()), 90u);
}

TEST(RowIndexTest, LocationsAreExact) {
  // Deleting one row must replace only its own partition: with 8 rows in
  // 4-row partitions, exactly 3 survivors are kept (by reference, in a view:
  // 3 of 4 is at least half a partition) and the other partition stays
  // live — which is only possible if the index pointed at the right one.
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet inserts = t.MakeInsertChanges(ManyRows(8));
  ASSERT_TRUE(t.ApplyChanges(inserts, {10, 0}).ok());
  const PartitionId untouched = t.FindRow(inserts[0].row_id)->partition;

  ChangeSet del = {{ChangeAction::kDelete, inserts[5].row_id,
                    inserts[5].values}};
  const uint64_t written_before = t.stats().rows_written;
  ASSERT_TRUE(t.ApplyChanges(del, {20, 0}).ok());
  EXPECT_EQ(t.stats().rows_kept_in_place, 3u);
  EXPECT_EQ(t.stats().rows_rewritten_copy, 0u);
  EXPECT_EQ(t.stats().rows_written, written_before);
  const std::vector<PartitionId>& live = t.version(t.latest_version()).live;
  EXPECT_TRUE(std::count(live.begin(), live.end(), untouched));
  EXPECT_EQ(t.FindRow(inserts[0].row_id)->partition, untouched);
}

TEST(RowIndexTest, IncrementalMaintenanceAcrossVersions) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet v2 = t.MakeInsertChanges(ManyRows(6));
  ASSERT_TRUE(t.ApplyChanges(v2, {10, 0}).ok());

  // Update: delete + reinsert the same row id with new content.
  ChangeSet update;
  update.push_back({ChangeAction::kDelete, v2[0].row_id, v2[0].values});
  update.push_back({ChangeAction::kInsert, v2[0].row_id, R(1000, "updated")});
  ASSERT_TRUE(t.ApplyChanges(update, {20, 0}).ok());
  const RowLocation* loc = t.FindRow(v2[0].row_id);
  ASSERT_NE(loc, nullptr);

  // More inserts on top; every live id stays resolvable.
  ChangeSet v4 = t.MakeInsertChanges(ManyRows(6, 100));
  ASSERT_TRUE(t.ApplyChanges(v4, {30, 0}).ok());
  for (const ChangeRow& c : v4) EXPECT_NE(t.FindRow(c.row_id), nullptr);
  EXPECT_NE(t.FindRow(v2[5].row_id), nullptr);

  // The index reflects the *latest* version; time travel still reads the
  // old contents from immutable partitions.
  auto old_rows = t.ScanAt(2);
  EXPECT_EQ(old_rows.size(), 6u);
  bool found_original = false;
  for (const IdRow& r : old_rows) {
    if (r.id == v2[0].row_id) {
      found_original = RowsEqual(r.values, v2[0].values);
    }
  }
  EXPECT_TRUE(found_original);
  EXPECT_EQ(t.ScanLatest().size(), 12u);
}

TEST(RowIndexTest, OverwriteRebuildsIndex) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet old_rows = t.MakeInsertChanges(ManyRows(6));
  ASSERT_TRUE(t.ApplyChanges(old_rows, {10, 0}).ok());
  ASSERT_EQ(t.stats().index_rebuilds, 0u);

  std::vector<IdRow> fresh;
  for (int i = 0; i < 3; ++i) {
    fresh.push_back({static_cast<RowId>(500 + i), R(500 + i, "f")});
  }
  ASSERT_TRUE(t.Overwrite(fresh, {20, 0}).ok());
  EXPECT_EQ(t.stats().index_rebuilds, 1u);

  for (const ChangeRow& c : old_rows) EXPECT_EQ(t.FindRow(c.row_id), nullptr);
  for (const IdRow& r : fresh) EXPECT_NE(t.FindRow(r.id), nullptr);

  // Time travel to the pre-overwrite version is unaffected by the rebuild.
  EXPECT_EQ(t.ScanAt(2).size(), 6u);
}

TEST(RowIndexTest, ReclusterRebuildsWithoutLogicalChange) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet cs = t.MakeInsertChanges(ManyRows(10));
  ASSERT_TRUE(t.ApplyChanges(cs, {10, 0}).ok());
  t.Recluster({20, 0});
  EXPECT_EQ(t.stats().index_rebuilds, 1u);
  for (const ChangeRow& c : cs) EXPECT_NE(t.FindRow(c.row_id), nullptr);
  // Deletes still resolve through the rebuilt index.
  ChangeSet del = {{ChangeAction::kDelete, cs[3].row_id, cs[3].values}};
  ASSERT_TRUE(t.ApplyChanges(del, {30, 0}).ok());
  EXPECT_EQ(t.FindRow(cs[3].row_id), nullptr);
  EXPECT_EQ(t.ScanLatest().size(), 9u);
}

TEST(RowIndexTest, CloneCarriesIndexAndDiverges) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet cs = t.MakeInsertChanges(ManyRows(6));
  ASSERT_TRUE(t.ApplyChanges(cs, {10, 0}).ok());

  auto clone = t.Clone();
  ASSERT_NE(clone->FindRow(cs[0].row_id), nullptr);

  ChangeSet del = {{ChangeAction::kDelete, cs[0].row_id, cs[0].values}};
  ASSERT_TRUE(clone->ApplyChanges(del, {20, 0}).ok());
  EXPECT_EQ(clone->FindRow(cs[0].row_id), nullptr);
  EXPECT_NE(t.FindRow(cs[0].row_id), nullptr);  // original untouched
}

TEST(RowIndexTest, ValidationStillRejectsBadDeletes) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/4);
  ChangeSet cs = t.MakeInsertChanges(ManyRows(3));
  ASSERT_TRUE(t.ApplyChanges(cs, {10, 0}).ok());

  ChangeSet bogus = {{ChangeAction::kDelete, 424242, R(0, "x")}};
  auto r = t.ApplyChanges(bogus, {20, 0});
  EXPECT_FALSE(r.ok());
  // Failed validation must not mutate the index.
  for (const ChangeRow& c : cs) EXPECT_NE(t.FindRow(c.row_id), nullptr);
}

}  // namespace
}  // namespace dvs
