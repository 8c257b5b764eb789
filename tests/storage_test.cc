// Tests for storage/: versioning, time travel, change scans, validations.

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

std::vector<IdRow> Sorted(std::vector<IdRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const IdRow& a, const IdRow& b) { return a.id < b.id; });
  return rows;
}

TEST(VersionedTableTest, StartsEmptyAtVersionOne) {
  VersionedTable t(TwoCol());
  EXPECT_EQ(t.latest_version(), 1u);
  EXPECT_TRUE(t.ScanLatest().empty());
  EXPECT_EQ(t.RowCountAt(1), 0u);
}

TEST(VersionedTableTest, InsertCreatesNewVersion) {
  VersionedTable t(TwoCol());
  ChangeSet cs = t.MakeInsertChanges({R(1, "a"), R(2, "b")});
  auto v = t.ApplyChanges(cs, {10, 0});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 2u);
  EXPECT_EQ(t.RowCountAt(2), 2u);
  EXPECT_EQ(t.ScanAt(1).size(), 0u);  // time travel: old version unchanged
  EXPECT_EQ(t.ScanAt(2).size(), 2u);
}

TEST(VersionedTableTest, MakeInsertChangesAssignsDistinctIds) {
  VersionedTable t(TwoCol());
  ChangeSet a = t.MakeInsertChanges({R(1, "a")});
  ChangeSet b = t.MakeInsertChanges({R(2, "b")});
  EXPECT_NE(a[0].row_id, b[0].row_id);
}

TEST(VersionedTableTest, ResolveVersionAtCommitBoundaries) {
  VersionedTable t(TwoCol());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(1, "a")}), {10, 0}).ok());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(2, "b")}), {20, 0}).ok());
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp{5, 0}), 1u);
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp{10, 0}), 2u);
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp{15, 0}), 2u);
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp{20, 0}), 3u);
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp::AtWallTime(1000)), 3u);
}

TEST(VersionedTableTest, DeleteRewritesPartitionCopyOnWrite) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/10);
  ChangeSet ins = t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  ChangeSet del = {{ChangeAction::kDelete, ins[1].row_id, ins[1].values}};
  ASSERT_TRUE(t.ApplyChanges(del, {20, 0}).ok());
  auto rows = t.ScanLatest();
  ASSERT_EQ(rows.size(), 2u);
  // Copy-on-write kept survivors with identical row ids.
  auto sorted = Sorted(rows);
  EXPECT_EQ(sorted[0].id, ins[0].row_id);
  EXPECT_EQ(sorted[1].id, ins[2].row_id);
  EXPECT_EQ(t.stats().rows_rewritten_copy, 2u);
}

TEST(VersionedTableTest, UpdateIsDeletePlusInsertWithSameId) {
  VersionedTable t(TwoCol());
  ChangeSet ins = t.MakeInsertChanges({R(1, "old")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  ChangeSet upd = {
      {ChangeAction::kDelete, ins[0].row_id, ins[0].values},
      {ChangeAction::kInsert, ins[0].row_id, R(1, "new")},
  };
  ASSERT_TRUE(t.ApplyChanges(upd, {20, 0}).ok());
  auto rows = t.ScanLatest();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, ins[0].row_id);
  EXPECT_EQ(rows[0].values[1].string_value(), "new");
}

TEST(VersionedTableTest, RejectsDuplicateRowIdActionPair) {
  VersionedTable t(TwoCol());
  ChangeSet cs = {
      {ChangeAction::kInsert, 42, R(1, "a")},
      {ChangeAction::kInsert, 42, R(2, "b")},
  };
  auto v = t.ApplyChanges(cs, {10, 0});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(VersionedTableTest, RejectsDeleteOfMissingRow) {
  VersionedTable t(TwoCol());
  ChangeSet cs = {{ChangeAction::kDelete, 999, R(9, "x")}};
  auto v = t.ApplyChanges(cs, {10, 0});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(VersionedTableTest, RejectsInsertOfDuplicateRowId) {
  VersionedTable t(TwoCol());
  ChangeSet ins = t.MakeInsertChanges({R(1, "a")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  ChangeSet dup = {{ChangeAction::kInsert, ins[0].row_id, R(5, "z")}};
  auto v = t.ApplyChanges(dup, {20, 0});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(VersionedTableTest, RejectsNonMonotonicCommitTimestamp) {
  VersionedTable t(TwoCol());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(1, "a")}), {10, 0}).ok());
  auto v = t.ApplyChanges(t.MakeInsertChanges({R(2, "b")}), {10, 0});
  EXPECT_FALSE(v.ok());
}

TEST(VersionedTableTest, ChangeScanReportsNetChanges) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/2);
  ChangeSet ins = t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  VersionId v_before = t.latest_version();
  ChangeSet del = {{ChangeAction::kDelete, ins[0].row_id, ins[0].values}};
  ASSERT_TRUE(t.ApplyChanges(del, {20, 0}).ok());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(4, "d")}), {30, 0}).ok());

  auto changes = t.ScanChanges(v_before, t.latest_version());
  ASSERT_TRUE(changes.ok());
  ChangeStats stats = CountChanges(changes.value());
  // Net effect: -row1, +row4; the copy-on-write survivor (row2) cancels.
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(VersionedTableTest, ChangeScanWithoutCancellationShowsAmplification) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/10);
  ChangeSet ins = t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  VersionId v_before = t.latest_version();
  ChangeSet del = {{ChangeAction::kDelete, ins[0].row_id, ins[0].values}};
  ASSERT_TRUE(t.ApplyChanges(del, {20, 0}).ok());

  // Partition diff: 3 rows (whole partition removed) + 2 (survivors).
  EXPECT_EQ(t.PartitionDiffRows(v_before, t.latest_version()), 5u);
  const uint64_t raw_before = t.stats().change_scan_raw_rows;
  auto net = t.ScanChanges(v_before, t.latest_version());
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().size(), 1u);
  // The change scan itself reads only the deleted row.
  EXPECT_EQ(t.stats().change_scan_raw_rows - raw_before, 1u);
}

TEST(VersionedTableTest, ChangeScanOfUpdateKeepsBothActions) {
  VersionedTable t(TwoCol());
  ChangeSet ins = t.MakeInsertChanges({R(1, "old")});
  ASSERT_TRUE(t.ApplyChanges(ins, {10, 0}).ok());
  VersionId v1 = t.latest_version();
  ChangeSet upd = {
      {ChangeAction::kDelete, ins[0].row_id, ins[0].values},
      {ChangeAction::kInsert, ins[0].row_id, R(1, "new")},
  };
  ASSERT_TRUE(t.ApplyChanges(upd, {20, 0}).ok());
  auto changes = t.ScanChanges(v1, t.latest_version());
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(changes.value().size(), 2u);  // content differs: no cancellation
}

TEST(VersionedTableTest, OverwriteReplacesContents) {
  VersionedTable t(TwoCol());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(1, "a"), R(2, "b")}),
                             {10, 0}).ok());
  std::vector<IdRow> next = {{100, R(7, "x")}, {101, R(8, "y")}, {102, R(9, "z")}};
  ASSERT_TRUE(t.Overwrite(next, {20, 0}).ok());
  EXPECT_EQ(t.ScanLatest().size(), 3u);
  EXPECT_EQ(t.RowCountAt(t.latest_version()), 3u);
}

TEST(VersionedTableTest, OverwriteRejectsDuplicateIds) {
  VersionedTable t(TwoCol());
  std::vector<IdRow> rows = {{100, R(7, "x")}, {100, R(8, "y")}};
  auto v = t.Overwrite(rows, {20, 0});
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(VersionedTableTest, NoOpVersionHasNoDataChanges) {
  VersionedTable t(TwoCol());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(1, "a")}), {10, 0}).ok());
  VersionId v2 = t.latest_version();
  VersionId v3 = t.CommitNoOp({20, 0});
  EXPECT_FALSE(t.HasDataChanges(v2, v3));
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(2, "b")}), {30, 0}).ok());
  EXPECT_TRUE(t.HasDataChanges(v2, t.latest_version()));
}

TEST(VersionedTableTest, ReclusterIsDataEquivalent) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/1);
  ASSERT_TRUE(t.ApplyChanges(
      t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c")}), {10, 0}).ok());
  VersionId before = t.latest_version();
  t.Recluster({20, 0});
  VersionId after = t.latest_version();
  // NO_DATA detection skips the data-equivalent version...
  EXPECT_FALSE(t.HasDataChanges(before, after));
  // ...and a change scan across it cancels to empty.
  auto changes = t.ScanChanges(before, after);
  ASSERT_TRUE(changes.ok());
  EXPECT_TRUE(changes.value().empty());
  // But a partition diff shows the read amplification the paper warns about.
  EXPECT_EQ(t.PartitionDiffRows(before, after), 6u);
  // Contents identical.
  EXPECT_EQ(Sorted(t.ScanAt(before)).size(), Sorted(t.ScanAt(after)).size());
}

TEST(VersionedTableTest, PartitionChunking) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/2);
  ASSERT_TRUE(t.ApplyChanges(
      t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c"), R(4, "d"), R(5, "e")}),
      {10, 0}).ok());
  // 5 rows at <=2 rows per partition -> 3 partitions.
  EXPECT_EQ(t.stats().partitions_created, 3u);
  EXPECT_EQ(t.ScanLatest().size(), 5u);
}

TEST(VersionedTableTest, PruneVersionsBeforeDropsHistoryAndFreesPartitions) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/1);
  ASSERT_TRUE(
      t.ApplyChanges(t.MakeInsertChanges({R(1, "a"), R(2, "b")}), {10, 0})
          .ok());
  // Delete row 1: its partition is rewritten, so the old one becomes
  // unreachable once versions referencing it are pruned.
  ASSERT_TRUE(t.ApplyChanges({{ChangeAction::kDelete, 1, R(1, "a")}}, {20, 0})
                  .ok());
  ASSERT_TRUE(
      t.ApplyChanges(t.MakeInsertChanges({R(3, "c")}), {30, 0}).ok());
  ASSERT_EQ(t.version_count(), 4u);
  const size_t partitions_before = t.all_partitions().size();

  PruneOutcome out = t.PruneVersionsBefore(3);
  EXPECT_EQ(out.versions_pruned, 2u);
  EXPECT_GT(out.partitions_freed, 0u);
  EXPECT_EQ(t.first_version(), 3u);
  EXPECT_EQ(t.version_count(), 2u);
  EXPECT_LT(t.all_partitions().size(), partitions_before);
  EXPECT_EQ(t.stats().versions_pruned, 2u);

  // Pruned history is gone; retained history still scans and change-scans.
  EXPECT_FALSE(t.has_version(2));
  EXPECT_EQ(t.ResolveVersionAt({15, 0}), kInvalidVersionId);
  EXPECT_EQ(t.ScanAt(3).size(), 1u);
  EXPECT_EQ(t.ScanAt(4).size(), 2u);
  auto changes = t.ScanChanges(3, 4);
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(changes.value().size(), 1u);
  EXPECT_FALSE(t.ScanChanges(2, 4).ok());

  // The latest version is always kept, and re-pruning is a no-op.
  PruneOutcome again = t.PruneVersionsBefore(99);
  EXPECT_EQ(again.versions_pruned, 1u);  // clamped to latest (version 4)
  EXPECT_EQ(t.latest_version(), 4u);
  EXPECT_EQ(t.PruneVersionsBefore(4).versions_pruned, 0u);

  // Writes continue normally after pruning.
  ASSERT_TRUE(
      t.ApplyChanges(t.MakeInsertChanges({R(4, "d")}), {40, 0}).ok());
  EXPECT_EQ(t.ScanLatest().size(), 3u);
}

TEST(VersionedTableTest, PruneKeepsRowIdIndexIntact) {
  VersionedTable t(TwoCol(), /*max_partition_rows=*/2);
  ASSERT_TRUE(
      t.ApplyChanges(t.MakeInsertChanges({R(1, "a"), R(2, "b"), R(3, "c")}),
                     {10, 0})
          .ok());
  ASSERT_TRUE(t.ApplyChanges({{ChangeAction::kDelete, 2, R(2, "b")}}, {20, 0})
                  .ok());
  t.PruneVersionsBefore(t.latest_version());
  for (const IdRow& row : t.ScanLatest()) {
    const RowLocation* loc = t.FindRow(row.id);
    ASSERT_NE(loc, nullptr);
    EXPECT_TRUE(t.has_version(t.latest_version()));
  }
  EXPECT_EQ(t.FindRow(2), nullptr);
}

TEST(VersionedTableTest, TrimVersionsKeepsWindowEdgeExact) {
  // The timestamp form of the trim: reads at any t >= min_ts stay exact,
  // reads below the floor stop resolving.
  VersionedTable t(TwoCol(), /*max_partition_rows=*/1);
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(1, "a")}), {10, 0}).ok());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(2, "b")}), {20, 0}).ok());
  ASSERT_TRUE(t.ApplyChanges(t.MakeInsertChanges({R(3, "c")}), {30, 0}).ok());

  // min_ts between commits: the newest version at or below it is retained,
  // so "as of 25" still resolves exactly (to the {20,0} version).
  PruneOutcome out = t.TrimVersions(HlcTimestamp::AtWallTime(25));
  EXPECT_EQ(out.versions_pruned, 2u);  // empty v1 and the {10,0} version
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp::AtWallTime(25)),
            t.first_version());
  EXPECT_EQ(t.ScanAt(t.first_version()).size(), 2u);
  EXPECT_EQ(t.ResolveVersionAt(HlcTimestamp::AtWallTime(15)),
            kInvalidVersionId);

  // A min_ts before every retained commit trims nothing.
  EXPECT_EQ(t.TrimVersions(HlcTimestamp::AtWallTime(5)).versions_pruned, 0u);
}

TEST(VersionedTableTest, HistoryIsFullyTimeTravelable) {
  VersionedTable t(TwoCol());
  std::vector<size_t> expected_counts = {0};
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(
        t.ApplyChanges(t.MakeInsertChanges({R(i, "r")}), {i * 10, 0}).ok());
    expected_counts.push_back(static_cast<size_t>(i));
  }
  for (VersionId v = 1; v <= t.latest_version(); ++v) {
    EXPECT_EQ(t.ScanAt(v).size(), expected_counts[v - 1]);
  }
}

}  // namespace
}  // namespace dvs
