// E11 — §5.5.2 optimizations ablation:
//  (a) insert-only specialization: when every source delta is insert-only
//      and the plan provably introduces no redundant actions, the final
//      change-consolidation step is skipped;
//  (b) copied-row (read-amplification) handling: change scans read
//      per-version deltas, so copy-on-write survivors and reclustering
//      rewrites that a naive partition diff would surface are never read.

#include "bench_util.h"

using namespace dvs;

int main() {
  std::printf("E11 — insert-only specialization & read amplification\n\n");

  // (a) Insert-only workload through a filter+join DT.
  {
    VirtualClock clock(0);
    DvsEngine engine(clock);
    bench::Run(engine, "CREATE TABLE facts (k INT, v INT)");
    bench::Run(engine, "CREATE TABLE dims (k INT, name STRING)");
    for (int i = 0; i < 50; ++i) {
      bench::Run(engine, "INSERT INTO dims VALUES (" + std::to_string(i) +
                         ", 'd" + std::to_string(i) + "')");
    }
    bench::Run(engine,
               "CREATE DYNAMIC TABLE joined TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh AS SELECT f.k AS k, f.v AS v, d.name AS name "
               "FROM facts f JOIN dims d ON f.k = d.k WHERE f.v > 0");
    ObjectId id = engine.ObjectIdOf("joined").value();

    int skipped = 0, total = 0;
    for (int round = 0; round < 20; ++round) {
      std::string sql = "INSERT INTO facts VALUES ";
      for (int i = 0; i < 25; ++i) {
        if (i) sql += ", ";
        sql += "(" + std::to_string((round * 25 + i) % 50) + ", " +
               std::to_string(1 + (i % 9)) + ")";
      }
      bench::Run(engine, sql);
      clock.Advance(kMicrosPerMinute);
      auto r = engine.refresh_engine().Refresh(id, clock.Now());
      if (!r.ok()) {
        std::printf("FATAL: %s\n", r.status().ToString().c_str());
        return 1;
      }
      if (r.value().action == RefreshAction::kIncremental) {
        ++total;
        if (r.value().consolidation_skipped) ++skipped;
      }
    }
    std::printf("insert-only stream: %d/%d incremental refreshes skipped "
                "consolidation\n", skipped, total);
    bench::Check(skipped == total && total > 0,
                 "consolidation skipped on every insert-only refresh");

    // A single delete disables the specialization.
    bench::Run(engine, "DELETE FROM facts WHERE k = 3");
    clock.Advance(kMicrosPerMinute);
    auto r = engine.refresh_engine().Refresh(id, clock.Now());
    bench::Check(r.ok() && !r.value().consolidation_skipped,
                 "a delete in the interval re-enables consolidation");
  }

  // (b) Read amplification from copy-on-write and reclustering.
  {
    VersionedTable t(Schema({{"k", DataType::kInt64}}),
                     /*max_partition_rows=*/64);
    HlcTimestamp ts{1, 0};
    std::vector<Row> rows;
    for (int i = 0; i < 4096; ++i) rows.push_back({Value::Int(i)});
    ChangeSet ins = t.MakeInsertChanges(std::move(rows));
    RowId first_id = ins[0].row_id;
    if (!t.ApplyChanges(ins, ts).ok()) return 1;
    VersionId before = t.latest_version();

    // Delete one row (rewrites one partition) then recluster everything.
    ts.physical += 1;
    ChangeSet del = {{ChangeAction::kDelete, first_id, {Value::Int(0)}}};
    if (!t.ApplyChanges(del, ts).ok()) return 1;
    ts.physical += 1;
    t.Recluster(ts);

    const size_t raw = t.PartitionDiffRows(before, t.latest_version());
    const uint64_t read_before = t.stats().change_scan_raw_rows;
    auto net = t.ScanChanges(before, t.latest_version());
    if (!net.ok()) return 1;
    const uint64_t read = t.stats().change_scan_raw_rows - read_before;
    double amplification = static_cast<double>(raw) / net.value().size();
    std::printf("\nraw partition-diff rows: %zu; net logical changes: %zu "
                "(amplification %.0fx); change-scan rows read: %llu\n",
                raw, net.value().size(), amplification,
                static_cast<unsigned long long>(read));
    bench::Check(net.value().size() == 1,
                 "net change is exactly the one deleted row");
    bench::Check(amplification > 100,
                 "naive differentiation reads >100x the logical change "
                 "(the paper's data-equivalent-operation problem)");
    bench::Check(read == net.value().size(),
                 "the change scan reads only the changed rows "
                 "(per-version deltas, no partition diff)");
  }
  return bench::Finish();
}
