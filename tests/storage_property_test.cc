// Property-based storage tests (TEST_P sweeps): for random operation
// sequences across partition-size configurations, the versioned table must
// (a) reproduce exactly the model's contents at every historical version,
// and (b) produce change scans equal to the brute-force diff of the two
// model states — for every version pair, not just adjacent ones — while
// (c) reading no more stored rows than the interval's logical change
// records, across overwrite, recluster, no-op, prune, clone and restore.
// A third sweep drives deletes across the half-partition threshold in both
// directions, so survivors are kept by reference in copy-on-write views or
// copied, and checks views through clones, pruning and a checkpoint round
// trip.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "persist/snapshot.h"
#include "storage/batch_scan.h"
#include "storage/versioned_table.h"

namespace dvs {
namespace {

struct StorageParams {
  uint64_t seed;
  size_t max_partition_rows;
};

class StoragePropertyTest : public ::testing::TestWithParam<StorageParams> {};

Row R(int64_t a, int64_t b) { return {Value::Int(a), Value::Int(b)}; }

// Reference model of one version's contents: row id -> row.
using Model = std::map<RowId, Row>;

// Applying `scan` to the `from` model must yield the `to` model, and every
// delete must carry the content the row had at `from`.
void ExpectScanMatchesModel(const ChangeSet& scan, const Model& from,
                            const Model& to) {
  Model state = from;
  for (const ChangeRow& c : scan) {
    if (c.action == ChangeAction::kDelete) {
      auto it = state.find(c.row_id);
      ASSERT_NE(it, state.end());
      ASSERT_TRUE(RowsEqual(it->second, c.values));
      state.erase(it);
    } else {
      ASSERT_EQ(state.count(c.row_id), 0u);
      state[c.row_id] = c.values;
    }
  }
  ASSERT_EQ(state.size(), to.size());
  for (const auto& [rid, row] : to) {
    ASSERT_TRUE(state.count(rid));
    EXPECT_TRUE(RowsEqual(state[rid], row));
  }
}

TEST_P(StoragePropertyTest, MatchesReferenceModel) {
  const StorageParams params = GetParam();
  Rng rng(params.seed);
  VersionedTable table(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}),
                       params.max_partition_rows);

  // Reference model: version -> contents.
  std::vector<Model> history = {{}};  // version 1 = empty
  Model model;
  Micros ts = 10;

  for (int step = 0; step < 40; ++step) {
    ChangeSet changes;
    double p = rng.NextDouble();
    if (p < 0.45 || model.empty()) {
      // Insert batch.
      int n = static_cast<int>(rng.Uniform(1, 6));
      std::vector<Row> rows;
      for (int i = 0; i < n; ++i) {
        rows.push_back(R(rng.Uniform(0, 50), rng.Uniform(0, 1000)));
      }
      changes = table.MakeInsertChanges(std::move(rows));
    } else if (p < 0.65) {
      // Delete a few random existing rows.
      int n = static_cast<int>(rng.Uniform(1, 3));
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      for (int i = 0; i < n && it != model.end(); ++i, ++it) {
        changes.push_back({ChangeAction::kDelete, it->first, it->second});
      }
    } else if (p < 0.85) {
      // Update one row (delete + insert, same id).
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      changes.push_back({ChangeAction::kDelete, it->first, it->second});
      changes.push_back({ChangeAction::kInsert, it->first,
                         R(it->second[0].int_value(), rng.Uniform(0, 1000))});
    } else if (p < 0.95) {
      // Maintenance: recluster (data-equivalent).
      table.Recluster({ts += 10, 0});
      history.push_back(model);
      continue;
    } else {
      table.CommitNoOp({ts += 10, 0});
      history.push_back(model);
      continue;
    }

    ASSERT_TRUE(table.ApplyChanges(changes, {ts += 10, 0}).ok());
    for (const ChangeRow& c : changes) {
      if (c.action == ChangeAction::kDelete) {
        model.erase(c.row_id);
      } else {
        model[c.row_id] = c.values;
      }
    }
    history.push_back(model);
  }

  // (a) Every historical version matches the model.
  ASSERT_EQ(table.version_count(), history.size());
  for (VersionId v = 1; v <= history.size(); ++v) {
    const Model& expected = history[v - 1];
    Model actual;
    for (const IdRow& r : table.ScanAt(v)) actual[r.id] = r.values;
    ASSERT_EQ(actual.size(), expected.size()) << "version " << v;
    for (const auto& [rid, row] : expected) {
      auto it = actual.find(rid);
      ASSERT_NE(it, actual.end()) << "version " << v << " row " << rid;
      EXPECT_TRUE(RowsEqual(it->second, row));
    }
    EXPECT_EQ(table.RowCountAt(v), expected.size());
  }

  // (b) Change scans between sampled version pairs equal the model diff.
  for (int trial = 0; trial < 30; ++trial) {
    VersionId from = static_cast<VersionId>(
        rng.Uniform(1, static_cast<int64_t>(history.size())));
    VersionId to = static_cast<VersionId>(
        rng.Uniform(static_cast<int64_t>(from),
                    static_cast<int64_t>(history.size())));
    auto scan = table.ScanChanges(from, to);
    ASSERT_TRUE(scan.ok());
    SCOPED_TRACE("scan " + std::to_string(from) + " -> " + std::to_string(to));
    ExpectScanMatchesModel(scan.value(), history[from - 1], history[to - 1]);
  }
}

// One independently evolving table (a clone diverges into its own side) and
// its model: contents and logical change records per retained version.
struct Side {
  std::unique_ptr<VersionedTable> table;
  std::map<VersionId, Model> history;
  std::map<VersionId, uint64_t> records;  ///< Change rows the commit made.
  Model model;
  Micros ts = 10;

  void Committed(VersionId v, uint64_t change_records) {
    history[v] = model;
    records[v] = change_records;
  }
};

// The checkpoint bytes of one table: capture, then encode.
std::string EncodeTable(const VersionedTable& t) {
  persist::Encoder e;
  persist::EncodeTableImage(&e, persist::CaptureTable(t));
  return e.Take();
}

// Checkpoint round trip: encode, decode, restore (a materialized copy).
std::unique_ptr<VersionedTable> RecoverTable(const VersionedTable& t) {
  const std::string bytes = EncodeTable(t);
  persist::Decoder d(bytes);
  persist::TableImage img = persist::DecodeTableImage(&d);
  EXPECT_TRUE(d.ok());
  return VersionedTable::Restore(
      img.schema, img.max_partition_rows, img.first_version,
      std::move(img.versions), std::move(img.partitions),
      img.next_partition_id, img.next_row_id);
}

TEST_P(StoragePropertyTest, DeltaScansReadOnlyLogicalChanges) {
  const StorageParams params = GetParam();
  Rng rng(params.seed * 7919 + 1);
  std::vector<Side> sides(1);
  sides[0].table = std::make_unique<VersionedTable>(
      Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}),
      params.max_partition_rows);
  sides[0].Committed(1, 0);

  auto random_row = [&](const Model& m) {
    auto it = m.begin();
    std::advance(it, rng.Uniform(0, static_cast<int64_t>(m.size()) - 1));
    return it;
  };

  // Every sampled scan over a side's retained versions must equal the model
  // diff and read at most the interval's change records.
  auto check_scans = [&](Side& side, int trials) {
    VersionedTable& t = *side.table;
    for (int trial = 0; trial < trials; ++trial) {
      const VersionId from = static_cast<VersionId>(
          rng.Uniform(static_cast<int64_t>(t.first_version()),
                      static_cast<int64_t>(t.latest_version())));
      const VersionId to = static_cast<VersionId>(rng.Uniform(
          static_cast<int64_t>(from), static_cast<int64_t>(t.latest_version())));
      SCOPED_TRACE("scan " + std::to_string(from) + " -> " +
                   std::to_string(to));
      const uint64_t read_before = t.stats().change_scan_raw_rows;
      auto scan = t.ScanChanges(from, to);
      ASSERT_TRUE(scan.ok());
      const uint64_t read = t.stats().change_scan_raw_rows - read_before;
      uint64_t records = 0;
      for (VersionId v = from + 1; v <= to; ++v) records += side.records.at(v);
      EXPECT_LE(read, records);
      ExpectScanMatchesModel(scan.value(), side.history.at(from),
                             side.history.at(to));
    }
  };

  for (int step = 0; step < 80; ++step) {
    Side& side = sides[rng.Uniform(0, static_cast<int64_t>(sides.size()) - 1)];
    VersionedTable& t = *side.table;
    const HlcTimestamp ts{side.ts += 10, 0};
    const double p = rng.NextDouble();
    ChangeSet changes;
    if (p < 0.30 || side.model.empty()) {
      std::vector<Row> rows;
      for (int i = rng.Uniform(1, 6); i > 0; --i) {
        rows.push_back(R(rng.Uniform(0, 50), rng.Uniform(0, 1000)));
      }
      changes = t.MakeInsertChanges(std::move(rows));
    } else if (p < 0.45) {
      auto it = random_row(side.model);
      for (int i = rng.Uniform(1, 3); i > 0 && it != side.model.end();
           --i, ++it) {
        changes.push_back({ChangeAction::kDelete, it->first, it->second});
      }
    } else if (p < 0.58) {
      // Update; now and then to identical content (cancels in scans).
      auto it = random_row(side.model);
      Row next = rng.Bernoulli(0.2) ? it->second
                                    : R(it->second[0].int_value(),
                                        rng.Uniform(0, 1000));
      changes.push_back({ChangeAction::kDelete, it->first, it->second});
      changes.push_back({ChangeAction::kInsert, it->first, std::move(next)});
    } else if (p < 0.66) {
      // FULL-refresh style overwrite: keeps, changes and drops old rows
      // under their ids and adds fresh ones.
      std::vector<IdRow> rows;
      Model next;
      for (const auto& [rid, row] : side.model) {
        const double q = rng.NextDouble();
        if (q < 0.2) continue;
        next[rid] = q < 0.75 ? row : R(row[0].int_value(), rng.Uniform(0, 1000));
      }
      for (ChangeRow& c : t.MakeInsertChanges({R(rng.Uniform(0, 50), 7)})) {
        next[c.row_id] = std::move(c.values);
      }
      for (const auto& [rid, row] : next) rows.push_back({rid, row});
      const uint64_t records = side.model.size() + next.size();
      auto v = t.Overwrite(std::move(rows), ts);
      ASSERT_TRUE(v.ok());
      side.model = std::move(next);
      side.Committed(v.value(), records);
      continue;
    } else if (p < 0.72) {
      side.Committed(t.Recluster(ts), 0);
      continue;
    } else if (p < 0.78) {
      side.Committed(t.CommitNoOp(ts), 0);
      continue;
    } else if (p < 0.86) {
      const VersionId keep_from = static_cast<VersionId>(
          rng.Uniform(static_cast<int64_t>(t.first_version()),
                      static_cast<int64_t>(t.latest_version())));
      t.PruneVersionsBefore(keep_from);
      side.history.erase(side.history.begin(),
                         side.history.lower_bound(t.first_version()));
      check_scans(side, 3);
      continue;
    } else if (p < 0.93) {
      if (sides.size() < 3) {
        Side copy;
        copy.table = t.Clone();
        copy.history = side.history;
        copy.records = side.records;
        copy.model = side.model;
        copy.ts = side.ts;
        sides.push_back(std::move(copy));  // `side` may dangle past here
      }
      continue;
    } else {
      side.table = RecoverTable(t);
      check_scans(side, 3);
      continue;
    }

    ASSERT_TRUE(t.ApplyChanges(changes, ts).ok());
    for (const ChangeRow& c : changes) {
      if (c.action == ChangeAction::kDelete) {
        side.model.erase(c.row_id);
      } else {
        side.model[c.row_id] = c.values;
      }
    }
    side.Committed(t.latest_version(), changes.size());
  }

  for (Side& side : sides) {
    for (const auto& [v, expected] : side.history) {
      Model actual;
      for (const IdRow& r : side.table->ScanAt(v)) actual[r.id] = r.values;
      ASSERT_EQ(actual.size(), expected.size()) << "version " << v;
    }
    check_scans(side, 30);
  }
}

class StorageViewTest : public ::testing::TestWithParam<StorageParams> {};

void ApplyToModel(const ChangeSet& changes, Model* model) {
  for (const ChangeRow& c : changes) {
    if (c.action == ChangeAction::kDelete) {
      model->erase(c.row_id);
    } else {
      (*model)[c.row_id] = c.values;
    }
  }
}


// A random commit on `t` over contents `model`: a bulk insert, or deletes
// or updates of a random number of the rows of one live partition, so the
// partition's survivors land on either side of the view threshold.
ChangeSet RandomViewCommit(VersionedTable& t, const Model& model, Rng& rng) {
  const int64_t cap = static_cast<int64_t>(t.max_partition_rows());
  const double p = rng.NextDouble();
  if (p < 0.3 || static_cast<int64_t>(model.size()) < cap) {
    std::vector<Row> rows;
    for (int64_t i = rng.Uniform(1, 2 * cap); i > 0; --i) {
      rows.push_back(R(rng.Uniform(0, 50), rng.Uniform(0, 1000)));
    }
    return t.MakeInsertChanges(std::move(rows));
  }
  auto pick = model.begin();
  std::advance(pick, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
  const PartitionId pid = t.FindRow(pick->first)->partition;
  std::vector<RowId> members;
  for (const auto& [rid, row] : model) {
    if (t.FindRow(rid)->partition == pid) members.push_back(rid);
  }
  const int64_t n = static_cast<int64_t>(members.size());
  const bool update = p >= 0.65;
  ChangeSet changes;
  for (int64_t k = rng.Uniform(1, n); k > 0; --k) {
    const int64_t j = rng.Uniform(0, static_cast<int64_t>(members.size()) - 1);
    const RowId rid = members[static_cast<size_t>(j)];
    members.erase(members.begin() + j);
    const Row& row = model.at(rid);
    changes.push_back({ChangeAction::kDelete, rid, row});
    if (update) {
      changes.push_back({ChangeAction::kInsert, rid,
                         R(row[0].int_value(), rng.Uniform(0, 1000))});
    }
  }
  return changes;
}

struct ViewSide {
  std::unique_ptr<VersionedTable> table;
  std::map<VersionId, Model> history;
  Model model;
  Micros ts = 10;

  void Commit(const ChangeSet& changes) {
    ASSERT_TRUE(table->ApplyChanges(changes, {ts += 10, 0}).ok());
    ApplyToModel(changes, &model);
    history[table->latest_version()] = model;
  }
};

// Every retained version scans to the model (by rows and by column
// batches), every change scan between retained versions equals the model
// diff, every live row is where the row-id index says, and no partition's
// payload exceeds twice its rows.
void ExpectSideMatchesModel(const ViewSide& side) {
  const VersionedTable& t = *side.table;
  for (const auto& [v, expected] : side.history) {
    const std::vector<IdRow> rows = t.ScanAt(v);
    const std::vector<IdRow> batched =
        BatchesToRows(ScanBatchesAt(t, v, /*cache=*/nullptr));
    ASSERT_EQ(batched.size(), rows.size()) << "version " << v;
    Model actual;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batched[i].id, rows[i].id);
      EXPECT_TRUE(RowsEqual(batched[i].values, rows[i].values));
      actual[rows[i].id] = rows[i].values;
    }
    ASSERT_EQ(actual.size(), expected.size()) << "version " << v;
    for (const auto& [rid, row] : expected) {
      ASSERT_TRUE(actual.count(rid)) << "version " << v << " row " << rid;
      EXPECT_TRUE(RowsEqual(actual[rid], row));
    }
  }
  for (const auto& [from, from_model] : side.history) {
    for (auto it = side.history.find(from); it != side.history.end(); ++it) {
      SCOPED_TRACE("scan " + std::to_string(from) + " -> " +
                   std::to_string(it->first));
      auto scan = t.ScanChanges(from, it->first);
      ASSERT_TRUE(scan.ok());
      ExpectScanMatchesModel(scan.value(), from_model, it->second);
    }
  }
  for (const auto& [rid, row] : side.model) {
    const RowLocation* loc = t.FindRow(rid);
    ASSERT_NE(loc, nullptr) << "row " << rid;
    const IdRow& stored =
        t.all_partitions().at(loc->partition)->row(loc->offset);
    EXPECT_EQ(stored.id, rid);
    EXPECT_TRUE(RowsEqual(stored.values, row));
  }
  for (const auto& [pid, part] : t.all_partitions()) {
    EXPECT_LE(part->payload->size(), 2 * part->size()) << "partition " << pid;
  }
}

TEST_P(StorageViewTest, ViewsMatchModelThroughCloneGcAndRecovery) {
  const StorageParams params = GetParam();
  Rng rng(params.seed * 104729 + params.max_partition_rows);
  std::vector<ViewSide> sides(1);
  sides[0].table = std::make_unique<VersionedTable>(
      Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}),
      params.max_partition_rows);
  sides[0].history[1] = {};
  uint64_t kept = 0, copied = 0;

  for (int step = 0; step < 60; ++step) {
    ViewSide& side =
        sides[rng.Uniform(0, static_cast<int64_t>(sides.size()) - 1)];
    VersionedTable& t = *side.table;
    const double p = rng.NextDouble();
    if (p < 0.70) {
      side.Commit(RandomViewCommit(t, side.model, rng));
    } else if (p < 0.78) {
      t.PruneVersionsBefore(static_cast<VersionId>(
          rng.Uniform(static_cast<int64_t>(t.first_version()),
                      static_cast<int64_t>(t.latest_version()))));
      side.history.erase(side.history.begin(),
                         side.history.lower_bound(t.first_version()));
    } else if (p < 0.86) {
      if (sides.size() < 3) {
        ViewSide copy;
        copy.table = t.Clone();
        copy.history = side.history;
        copy.model = side.model;
        copy.ts = side.ts;
        sides.push_back(std::move(copy));  // `side` may dangle past here
      }
    } else {
      // The recovered copy is materialized, yet it must make the live
      // copy's view choices: identical commits keep the two byte-identical.
      ViewSide recovered;
      recovered.table = RecoverTable(t);
      recovered.history = side.history;
      recovered.model = side.model;
      recovered.ts = side.ts;
      ASSERT_EQ(EncodeTable(*recovered.table), EncodeTable(t));
      for (int i = 0; i < 3; ++i) {
        ChangeSet changes = RandomViewCommit(t, side.model, rng);
        recovered.table->RestoreNextRowId(t.next_row_id());
        side.Commit(changes);
        recovered.Commit(changes);
        ASSERT_EQ(EncodeTable(*recovered.table), EncodeTable(t));
      }
      ExpectSideMatchesModel(side);
      kept += t.stats().rows_kept_in_place;
      copied += t.stats().rows_rewritten_copy;
      side = std::move(recovered);
    }
  }
  for (const ViewSide& side : sides) {
    ExpectSideMatchesModel(side);
    kept += side.table->stats().rows_kept_in_place;
    copied += side.table->stats().rows_rewritten_copy;
  }
  // Both sides of the threshold were exercised.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(copied, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageViewTest,
    ::testing::ValuesIn([] {
      std::vector<StorageParams> out;
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (size_t part : {4u, 8u, 64u}) out.push_back({seed, part});
      }
      return out;
    }()),
    [](const ::testing::TestParamInfo<StorageParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_part" +
             std::to_string(info.param.max_partition_rows);
    });

std::vector<StorageParams> StorageSweep() {
  std::vector<StorageParams> out;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (size_t part : {1u, 3u, 64u}) {
      out.push_back({seed, part});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoragePropertyTest, ::testing::ValuesIn(StorageSweep()),
    [](const ::testing::TestParamInfo<StorageParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_part" +
             std::to_string(info.param.max_partition_rows);
    });

}  // namespace
}  // namespace dvs
