// E17 — durability subsystem (persist/): checkpoint throughput, recovery
// wall time as a function of WAL length, and the memory bound retention GC
// puts on a long-running pipeline. Every datapoint lands in BENCH_E17.json
// (stable flat points schema; see ROADMAP.md "Durability architecture").
//
// Shape checks:
//   - recovery determinism: checkpoint + WAL recovery reproduces the live
//     system byte-identically (snapshot encoding), and the WAL record count
//     (the deterministic work metric — gate on it, not wall time) matches
//     across recoveries;
//   - recovery cost scales with WAL length: more un-checkpointed records
//     mean more replay work (reported; monotone record counts gated);
//   - retention GC bounds memory: with a retention window the resident
//     version count stays flat while versions_pruned grows and every
//     incremental refresh still succeeds; without one, versions grow
//     linearly with ticks.
//
// `--smoke` runs the tiny tier (the `recovery-smoke` ctest target).
// `--git-sha=<rev>` records the measured source revision in the JSON's
// machine meta (with hardware threads, build type and compiler).

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "sched/scheduler.h"

using namespace dvs;
namespace fs = std::filesystem;

namespace {

struct Tier {
  int ticks;
  int rows_per_tick;
};

/// Bulk load through the transaction manager with the object id attached,
/// so the commit is journaled like any engine DML.
void BulkLoad(DvsEngine& engine, const std::string& table, int base, int n) {
  auto obj = engine.catalog().Find(table);
  if (!obj.ok()) {
    std::printf("FATAL: %s\n", obj.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value::Int((base + i) % 101), Value::Int(base + i)});
  }
  VersionedTable* storage = obj.value()->storage.get();
  ChangeSet cs = storage->MakeInsertChanges(std::move(rows));
  auto commit =
      engine.txn().CommitWrites({{storage, std::move(cs), obj.value()->id}});
  if (!commit.ok()) {
    std::printf("FATAL: bulk load: %s\n", commit.status().ToString().c_str());
    std::exit(1);
  }
}

struct WorkloadResult {
  std::string dir;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  std::string live_fingerprint;
  Micros live_now = 0;
  size_t max_resident_versions = 0;
  size_t final_resident_versions = 0;
  uint64_t versions_pruned = 0;
  uint64_t partitions_freed = 0;
  int failed_refreshes = 0;
  int incremental_refreshes = 0;
  uint64_t rows_total = 0;
  double churn_wall_s = 0;
};

size_t ResidentVersions(Catalog& catalog) {
  size_t n = 0;
  for (size_t i = 0; i < catalog.object_count(); ++i) {
    const CatalogObject* obj = catalog.ObjectAt(i);
    if (obj->storage != nullptr) n += obj->storage->version_count();
  }
  return n;
}

/// One persistent pipeline run: base table + incremental aggregate DT +
/// downstream filter DT, churned for `tier.ticks` scheduler rounds.
WorkloadResult RunWorkload(const std::string& dir, Tier tier,
                           bool retention_on,
                           persist::ManagerOptions manager_options) {
  fs::remove_all(dir);
  manager_options.dir = dir;

  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto opened = persist::Manager::Open(manager_options);
  if (!opened.ok()) {
    std::printf("FATAL: open: %s\n", opened.status().ToString().c_str());
    std::exit(1);
  }
  auto manager = opened.take();
  Status attached = manager->Attach(&engine);
  if (!attached.ok()) {
    std::printf("FATAL: attach: %s\n", attached.ToString().c_str());
    std::exit(1);
  }
  SchedulerOptions opts;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);

  const std::string retention =
      retention_on ? " MIN_DATA_RETENTION = '4 minutes'" : "";
  bench::Run(engine, "CREATE TABLE src (k INT, v INT)" + retention);
  bench::Run(engine,
             "CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = "
             "wh" +
                 retention +
                 " AS SELECT k, COUNT(*) AS c, SUM(v) AS s FROM src GROUP "
                 "BY k");
  bench::Run(engine,
             "CREATE DYNAMIC TABLE hot TARGET_LAG = '4 minutes' WAREHOUSE = "
             "wh2" +
                 retention + " AS SELECT k, s FROM agg WHERE c >= 2");

  WorkloadResult out;
  out.dir = dir;
  bench::WallTimer timer;
  for (int i = 1; i <= tier.ticks; ++i) {
    BulkLoad(engine, "src", i * tier.rows_per_tick, tier.rows_per_tick);
    out.rows_total += static_cast<uint64_t>(tier.rows_per_tick);
    if (i % 4 == 0) {
      // Deletes rewrite partitions so retention GC has something to free.
      bench::Run(engine,
                 "DELETE FROM src WHERE v < " +
                     std::to_string((i - 8) * tier.rows_per_tick));
    }
    sched.RunUntil(2 * kCanonicalBasePeriod * i);
    out.max_resident_versions =
        std::max(out.max_resident_versions, ResidentVersions(engine.catalog()));
  }
  out.churn_wall_s = timer.Seconds();

  for (const RefreshRecord& rec : sched.log()) {
    out.failed_refreshes += rec.failed || rec.skipped;
    out.incremental_refreshes += rec.action == RefreshAction::kIncremental;
  }
  out.final_resident_versions = ResidentVersions(engine.catalog());
  for (size_t i = 0; i < engine.catalog().object_count(); ++i) {
    const CatalogObject* obj = engine.catalog().ObjectAt(i);
    if (obj->storage == nullptr) continue;
    out.versions_pruned += obj->storage->stats().versions_pruned.load();
    out.partitions_freed += obj->storage->stats().partitions_freed.load();
  }
  out.wal_records = manager->wal_records();
  out.wal_bytes = manager->stats().wal_bytes.load();
  out.checkpoints = manager->checkpoints_taken();
  out.live_now = clock.Now();

  SchedulerPersistState state = sched.ExportState();
  out.live_fingerprint = persist::EncodeSystemImage(
      persist::CaptureSystemImage(engine, &state));
  return out;
}

struct RecoveryMeasurement {
  bool ok = false;
  bool fingerprint_match = false;
  uint64_t wal_records_replayed = 0;
  double recover_wall_s = 0;
};

RecoveryMeasurement MeasureRecovery(const WorkloadResult& run) {
  RecoveryMeasurement m;
  VirtualClock clock(0);
  bench::WallTimer timer;
  auto recovered = persist::Recover(run.dir, &clock);
  m.recover_wall_s = timer.Seconds();
  if (!recovered.ok()) {
    std::printf("recover(%s): %s\n", run.dir.c_str(),
                recovered.status().ToString().c_str());
    return m;
  }
  m.ok = true;
  m.wal_records_replayed = recovered.value().wal_records_replayed;
  clock.AdvanceTo(run.live_now);
  std::string fp = persist::EncodeSystemImage(persist::CaptureSystemImage(
      *recovered.value().engine, &recovered.value().sched));
  m.fingerprint_match = fp == run.live_fingerprint;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--git-sha=", 10) == 0) git_sha = argv[i] + 10;
  }

  const Tier tier = smoke ? Tier{6, 100} : Tier{40, 2000};
  const std::vector<int> recovery_ticks =
      smoke ? std::vector<int>{2, 6} : std::vector<int>{10, 20, 40};
  const std::string base = "e17_durability_dir";

  bench::BenchJson json("E17",
                        "Durability: checkpoint throughput, recovery wall "
                        "time vs WAL length, retention-GC memory bound");
  json.meta()
      .Str("workload", "base + incremental agg DT + downstream filter DT")
      .Bool("smoke", smoke)
      .Int("ticks", tier.ticks)
      .Int("rows_per_tick", tier.rows_per_tick);
  json.AddMachineMeta(git_sha);

  std::printf("== E17 durability (%s tier) ==\n", smoke ? "smoke" : "full");

  // ---- Recovery wall time vs WAL length (no mid-run checkpoints: the
  // whole workload is one WAL segment). ----
  uint64_t prev_records = 0;
  bool monotone = true;
  for (int ticks : recovery_ticks) {
    WorkloadResult run = RunWorkload(base + "_recovery_" +
                                         std::to_string(ticks),
                                     {ticks, tier.rows_per_tick},
                                     /*retention_on=*/false, {});
    RecoveryMeasurement m = MeasureRecovery(run);
    bench::Check(m.ok, ("recovery succeeds after " + std::to_string(ticks) +
                        " ticks")
                           .c_str());
    bench::Check(m.fingerprint_match,
                 "recovered system is byte-identical to the live one");
    bench::Check(m.wal_records_replayed == run.wal_records,
                 "replay covers every journaled record");
    monotone = monotone && run.wal_records > prev_records;
    prev_records = run.wal_records;

    json.AddPoint()
        .Str("phase", "recovery")
        .Int("ticks", ticks)
        .Int("rows_total", static_cast<int64_t>(run.rows_total))
        .Int("wal_records", static_cast<int64_t>(run.wal_records))
        .Int("wal_bytes", static_cast<int64_t>(run.wal_bytes))
        .Num("recover_wall_s", m.recover_wall_s)
        .Num("churn_wall_s", run.churn_wall_s)
        .Bool("fingerprint_match", m.fingerprint_match);
    std::printf("recovery: ticks=%d wal_records=%llu wal_bytes=%llu "
                "recover=%.3fs\n",
                ticks, (unsigned long long)run.wal_records,
                (unsigned long long)run.wal_bytes, m.recover_wall_s);
    fs::remove_all(run.dir);
  }
  bench::Check(monotone, "WAL length grows with workload length");

  // ---- Checkpoint throughput: rebuild the largest state, then time
  // repeated checkpoints of it. ----
  {
    WorkloadResult run =
        RunWorkload(base + "_checkpoint", tier, /*retention_on=*/false, {});
    VirtualClock clock(0);
    auto recovered = persist::Recover(run.dir, &clock);
    bench::Check(recovered.ok(), "checkpoint-phase recovery succeeds");
    if (recovered.ok()) {
      auto opened = persist::Manager::Open({run.dir + "_ckpt"});
      bench::Check(opened.ok(), "manager opens for recovered engine");
      if (opened.ok()) {
        auto manager = opened.take();
        Status attached = manager->Attach(recovered.value().engine.get(),
                                          &recovered.value().sched);
        bench::Check(attached.ok(), "manager attaches to recovered engine");
        const int kCheckpoints = smoke ? 3 : 8;
        uint64_t bytes_before = manager->stats().checkpoint_bytes.load();
        bench::WallTimer timer;
        for (int i = 0; i < kCheckpoints; ++i) {
          Status s = manager->Checkpoint(&recovered.value().sched);
          if (!s.ok()) {
            std::printf("checkpoint: %s\n", s.ToString().c_str());
            break;
          }
        }
        double wall = timer.Seconds();
        uint64_t bytes =
            manager->stats().checkpoint_bytes.load() - bytes_before;
        json.AddPoint()
            .Str("phase", "checkpoint")
            .Int("checkpoints", kCheckpoints)
            .Int("rows_total", static_cast<int64_t>(run.rows_total))
            .Int("checkpoint_bytes", static_cast<int64_t>(bytes))
            .Num("checkpoint_wall_s", wall)
            .Num("bytes_per_s", wall > 0 ? static_cast<double>(bytes) / wall
                                         : 0);
        std::printf("checkpoint: %d checkpoints, %llu bytes in %.3fs "
                    "(%.1f MB/s)\n",
                    kCheckpoints, (unsigned long long)bytes, wall,
                    wall > 0 ? static_cast<double>(bytes) / wall / 1e6 : 0);
        bench::Check(bytes > 0, "checkpoints write bytes");
        fs::remove_all(run.dir + "_ckpt");
      }
    }
    fs::remove_all(run.dir);
  }

  // ---- Retention GC memory bound: same long workload with and without a
  // retention window. ----
  {
    persist::ManagerOptions policy;
    policy.checkpoint_every_n_ticks = 8;
    WorkloadResult off =
        RunWorkload(base + "_ret_off", tier, /*retention_on=*/false, policy);
    WorkloadResult on =
        RunWorkload(base + "_ret_on", tier, /*retention_on=*/true, policy);

    for (const WorkloadResult* run : {&off, &on}) {
      bool is_on = run == &on;
      json.AddPoint()
          .Str("phase", "retention")
          .Bool("retention_on", is_on)
          .Int("ticks", tier.ticks)
          .Int("rows_total", static_cast<int64_t>(run->rows_total))
          .Int("max_resident_versions",
               static_cast<int64_t>(run->max_resident_versions))
          .Int("final_resident_versions",
               static_cast<int64_t>(run->final_resident_versions))
          .Int("versions_pruned", static_cast<int64_t>(run->versions_pruned))
          .Int("partitions_freed",
               static_cast<int64_t>(run->partitions_freed))
          .Int("failed_refreshes", run->failed_refreshes)
          .Int("incremental_refreshes", run->incremental_refreshes)
          .Int("checkpoints", static_cast<int64_t>(run->checkpoints));
      std::printf("retention %s: max_versions=%zu pruned=%llu freed=%llu "
                  "failed=%d incremental=%d\n",
                  is_on ? "on " : "off", run->max_resident_versions,
                  (unsigned long long)run->versions_pruned,
                  (unsigned long long)run->partitions_freed,
                  run->failed_refreshes, run->incremental_refreshes);
    }

    bench::Check(on.versions_pruned > 0, "retention GC pruned versions");
    bench::Check(on.partitions_freed > 0, "retention GC freed partitions");
    bench::Check(on.failed_refreshes == 0,
                 "all refreshes succeed under retention GC");
    bench::Check(on.incremental_refreshes > tier.ticks / 2,
                 "refreshes stay incremental across pruning");
    bench::Check(on.max_resident_versions < off.max_resident_versions,
                 "retention window bounds resident versions below the "
                 "unbounded run");
    // The live version count must be window-bound, not workload-bound: a
    // 4-minute window over a 48s tick grid retains a handful of versions
    // per table (x3 tables, with margin), regardless of tick count.
    bench::Check(on.final_resident_versions <= 30,
                 "resident versions stay window-bound (<= 30 across the "
                 "pipeline)");

    // Retention state survives recovery (prune records replay).
    RecoveryMeasurement m = MeasureRecovery(on);
    bench::Check(m.ok && m.fingerprint_match,
                 "recovery reproduces the pruned system byte-identically");
    fs::remove_all(off.dir);
    fs::remove_all(on.dir);
  }

  std::string file = json.WriteFile();
  if (!file.empty()) std::printf("wrote %s\n", file.c_str());
  return bench::Finish();
}
