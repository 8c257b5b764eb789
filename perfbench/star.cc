// star_refresh: one fact table joined to a dimension and aggregated by
// category, maintained by two dynamic tables over the same query — one
// INCREMENTAL, one FULL. Each round applies SQL DML to the fact table and
// refreshes both DTs through RefreshEngine::Refresh. Nearly all of the work
// is in ivm / exec / storage; there is no scheduler and no WAL while rounds
// run.
//
// Rounds follow a fixed cycle of four trickle rounds (0.1% of the rows
// updated in one contiguous range of recent keys, plus a small insert batch)
// and one burst round (5% of the rows updated, scattered over the whole
// table). Trickle rounds are where pruning by affected key could act; burst
// rounds touch every micro-partition, so nothing can be pruned, and they sit
// near the incremental-versus-full crossover.
//
// A run repeats the same 50 rounds, each time from a fresh set-up with the
// same seed, so every repetition does identical work. The end-to-end
// figures are percentiles over the rounds of each round's fastest
// repetition (see FastestRepetition).

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "common/rng.h"
#include "obs/introspect.h"
#include "persist/manager.h"
#include "persist/retention.h"
#include "persist/snapshot.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dvs;

namespace {

constexpr int64_t kFactRows = 100'000;
constexpr int64_t kDimRows = 1'000;
constexpr int64_t kCategories = 256;
constexpr int64_t kTrickleRows = 100;        // 0.1% of the fact rows
constexpr int64_t kRecentKeys = 8'000;       // trickle ranges start here
constexpr int kTrickleInserts = 20;
constexpr int kBurstEvery = 5;               // 4 trickle rounds, 1 burst
constexpr int64_t kBurstModulus = 20;        // 1 row in 20 = 5%, scattered
// Rounds of one repetition: 40 trickle rounds, so their p75 has ten samples
// beyond it.
constexpr int kRounds = 50;
// Reads after every round, so read samples span the repetition.
constexpr int kReadsPerRound = 1'000;
// A run repeats until --seconds have passed, and at least this often.
constexpr int kMinRepetitions = 3;
// Recoveries of each repetition's final state.
constexpr int kRecoveriesPerRepetition = 3;

const char kQuery[] =
    "SELECT d.cat AS cat, count(*) AS n, sum(f.v) AS sv "
    "FROM fact f JOIN dim d ON f.dim_id = d.dim_id GROUP BY ALL";

struct Star {
  VirtualClock clock{0};
  std::unique_ptr<DvsEngine> engine;
  ObjectId inc = kInvalidObjectId;
  ObjectId full = kInvalidObjectId;
  int64_t next_key = kFactRows;
};

/// Deterministic work of one repetition; every repetition repeats it.
struct Work {
  uint64_t rows_inc = 0, rows_burst = 0, rows_full = 0;
  uint64_t changes_inc = 0, changes_burst = 0, changes_full = 0;
  uint64_t written = 0, rewritten = 0, partitions = 0, lookups = 0;
  uint64_t burst_raw = 0, burst_net = 0;
  uint64_t dml_statements = 0, refreshes = 0;
  // Over every table and DT: rows written to storage, and rows surfaced by
  // change scans.
  uint64_t all_written = 0, all_change_scan = 0;
  bool operator==(const Work&) const = default;
};

void BulkLoad(DvsEngine& engine, const std::string& table,
              std::vector<Row> rows) {
  CatalogObject* obj = Must(engine.catalog().Find(table), "find " + table);
  VersionedTable* storage = obj->storage.get();
  ChangeSet cs = storage->MakeInsertChanges(std::move(rows));
  Must(engine.txn().CommitWrites({{storage, std::move(cs), obj->id}}),
       "bulk load " + table);
}

std::unique_ptr<Star> SetUp(uint64_t seed) {
  auto s = std::make_unique<Star>();
  s->engine = std::make_unique<DvsEngine>(s->clock);
  DvsEngine& e = *s->engine;
  // The retention window keeps the versions the next incremental refresh
  // reads and lets the copies left behind by burst rounds be freed.
  Sql(e, "CREATE TABLE fact (k INT, dim_id INT, v INT) "
         "MIN_DATA_RETENTION = '1 minute'");
  Sql(e, "CREATE TABLE dim (dim_id INT, cat INT) "
         "MIN_DATA_RETENTION = '1 minute'");
  Rng rng(seed);
  std::vector<Row> dim;
  dim.reserve(kDimRows);
  for (int64_t i = 0; i < kDimRows; ++i) {
    dim.push_back({Value::Int(i), Value::Int(i * kCategories / kDimRows)});
  }
  BulkLoad(e, "dim", std::move(dim));
  std::vector<Row> fact;
  fact.reserve(kFactRows);
  for (int64_t k = 0; k < kFactRows; ++k) {
    fact.push_back({Value::Int(k), Value::Int(k * kDimRows / kFactRows),
                    Value::Int(rng.Uniform(0, 99))});
  }
  BulkLoad(e, "fact", std::move(fact));
  s->clock.Advance(kMicrosPerMinute);
  Sql(e, std::string("CREATE DYNAMIC TABLE dt_inc TARGET_LAG = '1 minute' "
                     "WAREHOUSE = wh REFRESH_MODE = INCREMENTAL AS ") +
             kQuery);
  Sql(e, std::string("CREATE DYNAMIC TABLE dt_full TARGET_LAG = '1 minute' "
                     "WAREHOUSE = wh REFRESH_MODE = FULL AS ") +
             kQuery);
  s->inc = Must(e.ObjectIdOf("dt_inc"), "dt_inc");
  s->full = Must(e.ObjectIdOf("dt_full"), "dt_full");
  obs::InstallIntrospection(&e, nullptr);
  return s;
}

/// The DML of one round, drawn from the round's own seeded generator.
std::vector<std::string> RoundDml(Star* s, uint64_t seed, int round,
                                  bool burst) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(round));
  std::vector<std::string> dml;
  if (burst) {
    dml.push_back("UPDATE fact SET v = v + 1 WHERE k % " +
                  std::to_string(kBurstModulus) + " = " +
                  std::to_string(rng.Uniform(0, kBurstModulus - 1)));
    return dml;
  }
  const int64_t lo = s->next_key - rng.Uniform(kTrickleRows, kRecentKeys);
  dml.push_back("UPDATE fact SET v = v + 1 WHERE k >= " + std::to_string(lo) +
                " AND k < " + std::to_string(lo + kTrickleRows));
  std::string insert = "INSERT INTO fact VALUES ";
  for (int i = 0; i < kTrickleInserts; ++i) {
    // Drawn in a fixed order: the operands of one expression may be
    // evaluated in any order.
    const int64_t dim_id = rng.Uniform(kDimRows - 100, kDimRows - 1);
    const int64_t v = rng.Uniform(0, 99);
    if (i) insert += ", ";
    insert += '(';
    insert += std::to_string(s->next_key++);
    insert += ", ";
    insert += std::to_string(dim_id);
    insert += ", ";
    insert += std::to_string(v);
    insert += ')';
  }
  dml.push_back(std::move(insert));
  return dml;
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsEqual(a[i], b[i])) return false;
  }
  return true;
}

/// The incremental DT must equal its FULL twin and the defining query
/// evaluated as of the refresh timestamp.
void CheckRound(Star* s, Micros ts, int round) {
  DvsEngine& e = *s->engine;
  const std::vector<Row> inc = Sorted(Sql(e, "SELECT * FROM dt_inc").rows);
  const std::vector<Row> full = Sorted(Sql(e, "SELECT * FROM dt_full").rows);
  const std::vector<Row> oracle =
      Sorted(Must(e.QueryAsOf(kQuery, ts), "QueryAsOf"));
  const std::string at = " at round " + std::to_string(round);
  Check(!oracle.empty(), "empty star result" + at);
  Check(SameRows(inc, full), "incremental DT differs from its FULL twin" + at);
  Check(SameRows(inc, oracle),
        "incremental DT differs from its query as of the refresh" + at);
}

uint64_t TableStat(DvsEngine& e, const char* table,
                   const obs::Counter StorageStats::*field) {
  CatalogObject* obj = Must(e.catalog().Find(table), table);
  return (obj->storage->stats().*field).value();
}

uint64_t FactDimStat(DvsEngine& e, const obs::Counter StorageStats::*field) {
  return TableStat(e, "fact", field) + TableStat(e, "dim", field);
}

/// Per-kind sums over one profile.
struct ProfileTotals {
  double root_ms = 0, unattributed_ms = 0;
  double scan_ms = 0, join_ms = 0, aggregate_ms = 0;
  uint64_t scan_rows_out = 0;
  uint64_t join_hits = 0, join_misses = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t vector_bails = 0, row_redos = 0;
};

ProfileTotals Totals(const std::vector<ProfileOp>& ops, int64_t span_ns) {
  ProfileTotals t;
  const RefreshSplit split = SplitRefresh(span_ns, ProfileRootWallNs(ops));
  t.root_ms = NsToMs(split.profile_ns);
  t.unattributed_ms = NsToMs(split.unattributed_ns);
  for (const ProfileOp& op : ops) {
    if (op.kind == "Scan") {
      t.scan_ms += NsToMs(op.self_ns);
      t.scan_rows_out += op.rows_out;
    } else if (op.kind == "Join") {
      t.join_ms += NsToMs(op.self_ns);
    } else if (op.kind == "Aggregate") {
      t.aggregate_ms += NsToMs(op.self_ns);
    }
    t.join_hits += op.join_hits;
    t.join_misses += op.join_misses;
    t.cache_hits += op.batch_cache_hits;
    t.cache_misses += op.batch_cache_misses;
    t.vector_bails += op.vector_bails;
    t.row_redos += op.row_redos;
  }
  return t;
}

/// Median of one ProfileTotals field over traced rounds (0 if none).
double MedianOf(const std::vector<ProfileTotals>& v,
                double ProfileTotals::*field) {
  std::vector<double> x;
  for (const ProfileTotals& t : v) x.push_back(t.*field);
  return MedianOr0(x);
}

}  // namespace

void RunStarRefresh(const Args& args, Report* report) {
  report->Meta("fact_rows", kFactRows);
  report->Meta("dim_rows", kDimRows);
  report->Meta("categories", kCategories);
  report->Meta("rounds_per_repetition", kRounds);
  report->Meta("round_cycle",
               "4 trickle (0.1% contiguous + 20 inserts), "
               "1 burst (5% scattered)");
  report->Meta("worker_threads", 0);

  // Per operation of a repetition, its fastest time over the untraced
  // repetitions.
  FastestRepetition ingest_ms, inc_ms, burst_ms, full_ms, read_ns;
  // Incremental over FULL refresh wall of each trickle round, untraced.
  std::vector<double> inc_vs_full;
  // Every sample, pooled over the repetitions, for the traced split.
  std::vector<double> burst_all_ms, full_all_ms;
  std::vector<double> traced_inc_ms, plain_inc_ms;
  std::vector<ProfileTotals> trickle_prof, burst_prof;
  std::vector<double> full_plan_ms, setup_s, checkpoint_ms;
  uint64_t full_scan_rows_out = 0;
  double checkpoint_bytes = 0;
  std::optional<Work> first;
  RecoveryTiming recovery;
  int checked = 0;
  Tracer tracer;
  ReadLog reads;
  const auto kWritten = &StorageStats::rows_written;
  const auto kRewritten = &StorageStats::rows_rewritten_copy;
  const auto kPartitions = &StorageStats::partitions_created;
  const auto kLookups = &StorageStats::index_lookups;
  const auto kRaw = &StorageStats::change_scan_raw_rows;
  const auto kNet = &StorageStats::change_scan_net_rows;
  const std::string dir = RunDir("star_refresh");

  const int64_t start_ns = NowNs();
  int repetitions = 0;
  for (; MoreRepetitions(args, start_ns, repetitions, kMinRepetitions);
       ++repetitions) {
    // Traced runs arm every other repetition; the timings come from the
    // others.
    const bool armed = args.trace && repetitions % 2 == 1;
    auto timed = [armed](FastestRepetition& f, double v) {
      if (!armed) f.Add(v);
    };
    if (!armed) {
      for (FastestRepetition* f : {&ingest_ms, &inc_ms, &burst_ms, &full_ms,
                                   &read_ns}) {
        f->BeginRepetition();
      }
    }
    int64_t t0 = NowNs();
    std::unique_ptr<Star> s = SetUp(args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    DvsEngine& e = *s->engine;
    Work w;
    const uint64_t all_written0 = CatalogStat(e, kWritten);
    const uint64_t all_change_scan0 = CatalogStat(e, kRaw);

    for (int round = 1; round <= kRounds; ++round) {
      const bool burst = round % kBurstEvery == 0;

      const uint64_t w0 = FactDimStat(e, kWritten);
      const uint64_t rw0 = FactDimStat(e, kRewritten);
      const uint64_t p0 = FactDimStat(e, kPartitions);
      const uint64_t l0 = FactDimStat(e, kLookups);
      std::vector<std::string> dml =
          RoundDml(s.get(), args.seed, round, burst);
      t0 = NowNs();
      for (const std::string& stmt : dml) Sql(e, stmt);
      timed(ingest_ms, NsToMs(NowNs() - t0));
      w.dml_statements += dml.size();
      w.written += FactDimStat(e, kWritten) - w0;
      w.rewritten += FactDimStat(e, kRewritten) - rw0;
      w.partitions += FactDimStat(e, kPartitions) - p0;
      w.lookups += FactDimStat(e, kLookups) - l0;

      s->clock.Advance(kMicrosPerMinute);
      const Micros ts = s->clock.Now();
      const uint64_t raw0 = FactDimStat(e, kRaw), net0 = FactDimStat(e, kNet);
      if (armed) tracer.Begin();
      t0 = NowNs();
      RefreshOutcome inc =
          Must(e.refresh_engine().Refresh(s->inc, ts), "refresh dt_inc");
      const int64_t inc_ns = NowNs() - t0;
      t0 = NowNs();
      RefreshOutcome full =
          Must(e.refresh_engine().Refresh(s->full, ts), "refresh dt_full");
      const int64_t full_ns = NowNs() - t0;
      if (armed) tracer.End();
      w.refreshes += 2;
      Check(inc.action == RefreshAction::kIncremental,
            std::string("dt_inc ran ") + RefreshActionName(inc.action));
      Check(full.action == RefreshAction::kFull,
            std::string("dt_full ran ") + RefreshActionName(full.action));

      w.rows_full += full.rows_processed;
      w.changes_full += full.changes_applied;
      timed(full_ms, NsToMs(full_ns));
      full_all_ms.push_back(NsToMs(full_ns));
      if (burst) {
        timed(burst_ms, NsToMs(inc_ns));
        burst_all_ms.push_back(NsToMs(inc_ns));
        w.rows_burst += inc.rows_processed;
        w.changes_burst += inc.changes_applied;
        w.burst_raw += FactDimStat(e, kRaw) - raw0;
        w.burst_net += FactDimStat(e, kNet) - net0;
      } else {
        timed(inc_ms, NsToMs(inc_ns));
        if (!armed) {
          inc_vs_full.push_back(static_cast<double>(inc_ns) /
                                static_cast<double>(full_ns));
        }
        w.rows_inc += inc.rows_processed;
        w.changes_inc += inc.changes_applied;
        (armed ? traced_inc_ms : plain_inc_ms).push_back(NsToMs(inc_ns));
      }
      if (armed) {
        ProfileTotals t = Totals(LatestProfile(e, "dt_inc"), inc_ns);
        (burst ? burst_prof : trickle_prof).push_back(t);
        ProfileTotals f = Totals(LatestProfile(e, "dt_full"), full_ns);
        full_plan_ms.push_back(f.root_ms);
        full_scan_rows_out = f.scan_rows_out;
      }

      // Untimed: correctness at sampled rounds, then retention GC.
      if (round == 1 || round == kBurstEvery || round == kRounds) {
        CheckRound(s.get(), ts, round);
        ++checked;
      }
      persist::RunRetentionGc(e.catalog(), ts, nullptr);
      // Reads of the star result, as a dashboard would send them. They go
      // to the FULL DT, whose one rewritten partition is laid out the same
      // in every round and run; the incremental DT's partitions depend on
      // which groups each round changed, which splits its scans into two
      // latency classes with the median on the boundary. The seed depends
      // on the round only, so every repetition makes the same reads.
      ReadLog phase = QuiescedReads(
          e, s->clock, {{s->full, 0, 0, kCategories - 1, 1}},
          args.seed * 1000 + static_cast<uint64_t>(round), kReadsPerRound);
      if (!armed) AddReads(phase, &read_ns);
      PoolReads(args, std::move(phase), &reads);
    }
    w.all_written = CatalogStat(e, kWritten) - all_written0;
    w.all_change_scan = CatalogStat(e, kRaw) - all_change_scan0;
    if (first.has_value()) {
      Check(w == *first, "a repetition's deterministic counts differ from "
                         "the first repetition's");
    } else {
      first = w;
    }

    // Persist the final state (Attach writes a checkpoint) and recover it.
    fs::remove_all(dir);
    const SchedulerPersistState no_scheduler;
    const std::string fingerprint = persist::EncodeSystemImage(
        persist::CaptureSystemImage(e, &no_scheduler));
    {
      persist::ManagerOptions mo;
      mo.dir = dir;
      auto manager = Must(persist::Manager::Open(mo), "open " + dir);
      t0 = NowNs();
      Must(manager->Attach(&e), "attach");
      checkpoint_ms.push_back(NsToMs(NowNs() - t0));
      manager->Detach();
      checkpoint_bytes =
          static_cast<double>(manager->stats().checkpoint_bytes.load());
    }
    const Micros live_now = s->clock.Now();
    s.reset();  // recover into the memory the live engine held
    const RecoveryTiming r =
        MeasureRecovery(dir, fingerprint, live_now, kRecoveriesPerRepetition);
    Check(recovery.wall_s.empty() || r.wal_records == recovery.wal_records,
          "repetitions recovered different WAL record counts");
    recovery.wal_records = r.wal_records;
    recovery.image_mb = r.image_mb;
    recovery.wall_s.insert(recovery.wall_s.end(), r.wall_s.begin(),
                           r.wall_s.end());
    fs::remove_all(dir);
  }

  const Work& w = *first;
  const double reps = repetitions;
  report->Meta("repetitions", repetitions);
  report->Attempted(static_cast<uint64_t>(reps) *
                    (w.dml_statements + w.refreshes));
  report->Meta("samples.refresh_trickle",
               static_cast<double>(inc_ms.values().size()));
  report->Meta("samples.refresh_burst",
               static_cast<double>(burst_ms.values().size()));
  report->Meta("samples.refresh_full",
               static_cast<double>(full_ms.values().size()));
  report->Meta("samples.ingest", static_cast<double>(ingest_ms.values().size()));
  report->Meta("checked.rounds", checked);

  report->Deterministic("ivm.rows_processed_inc", w.rows_inc);
  report->Deterministic("ivm.rows_processed_burst", w.rows_burst);
  report->Deterministic("ivm.rows_processed_full", w.rows_full);
  report->Deterministic("ivm.changes_applied_inc", w.changes_inc);
  report->Deterministic("ivm.changes_applied_burst", w.changes_burst);
  report->Deterministic("ivm.changes_applied_full", w.changes_full);
  report->Deterministic("storage.rows_written", w.written);
  report->Deterministic("storage.rows_rewritten_copy", w.rewritten);
  report->Deterministic("storage.partitions_created", w.partitions);
  report->Deterministic("storage.index_lookups", w.lookups);
  report->Deterministic("storage.change_scan_raw_rows", w.burst_raw);
  report->Deterministic("storage.change_scan_net_rows", w.burst_net);
  report->Deterministic("workload.ingest_statements", w.dml_statements);
  report->Deterministic("storage.all_rows_written", w.all_written);
  report->Deterministic("storage.all_change_scan_raw_rows", w.all_change_scan);
  if (args.trace) {
    report->Deterministic(
        "exec.scan_rows_out",
        trickle_prof.empty() ? 0 : trickle_prof[0].scan_rows_out);
    report->Deterministic("exec.full_scan_rows_out", full_scan_rows_out);
  }

  ReportSetup(report, args, setup_s);
  if (!args.trace) {
    // Per refresh of the INCREMENTAL DT (every round changes its sources),
    // and per refresh of either DT for the change scans they run.
    report->Metric("refresh_rows_processed",
                   static_cast<double>(w.rows_inc + w.rows_burst) / kRounds,
                   "rows");
    report->Metric("change_scan_rows",
                   static_cast<double>(w.all_change_scan) /
                       static_cast<double>(w.refreshes),
                   "rows");
    report->Metric("storage_rows_written",
                   static_cast<double>(w.all_written) / kRounds, "rows");
  } else {
    double refresh_ms = 0;
    for (const FastestRepetition* f : {&inc_ms, &burst_ms, &full_ms}) {
      for (double x : f->values()) refresh_ms += x;
    }
    report->Metric("wall.ingest_p50_ms", Median(ingest_ms.values()), "ms");
    report->Metric("wall.refresh_p50_ms", Median(inc_ms.values()), "ms");
    report->Metric(
        "wall.refresh_p75_ms",
        TailPercentile(inc_ms.values(), 0.75, "wall.refresh_p75_ms"), "ms");
    report->Metric("wall.refreshes_per_s",
                   static_cast<double>(w.refreshes) / refresh_ms * 1e3, "1/s");
    report->Metric("wall.inc_vs_full_p50", Median(inc_vs_full), "ratio");
    const double tr = kRounds - kRounds / kBurstEvery;
    const double br = kRounds / kBurstEvery;
    const double all = kRounds;
    using P = ProfileTotals;
    report->Metric("ivm.plan_wall_ms", MedianOf(trickle_prof, &P::root_ms),
                   "ms");
    report->Metric("dt.unattributed_ms",
                   MedianOf(trickle_prof, &P::unattributed_ms), "ms");
    report->Metric("ivm.burst_plan_wall_ms", MedianOf(burst_prof, &P::root_ms),
                   "ms");
    report->Metric("dt.burst_unattributed_ms",
                   MedianOf(burst_prof, &P::unattributed_ms), "ms");
    report->Metric("dt.refresh_burst_p50_ms", Median(burst_all_ms), "ms");
    report->Metric("dt.refresh_full_p50_ms", Median(full_all_ms), "ms");
    report->Metric("exec.scan_ms", MedianOf(trickle_prof, &P::scan_ms), "ms");
    report->Metric("exec.join_ms", MedianOf(trickle_prof, &P::join_ms), "ms");
    report->Metric("exec.aggregate_ms",
                   MedianOf(trickle_prof, &P::aggregate_ms), "ms");
    ProfileTotals sum;
    for (const ProfileTotals& t : trickle_prof) {
      sum.join_hits += t.join_hits;
      sum.join_misses += t.join_misses;
      sum.cache_hits += t.cache_hits;
      sum.cache_misses += t.cache_misses;
      sum.vector_bails += t.vector_bails;
      sum.row_redos += t.row_redos;
    }
    const double np = std::max<size_t>(trickle_prof.size(), 1);
    report->Metric("exec.scan_rows_out",
                   trickle_prof.empty() ? 0 : trickle_prof[0].scan_rows_out,
                   "rows");
    report->Metric("exec.join_cache_hit_ratio",
                   Ratio(sum.join_hits, sum.join_hits + sum.join_misses),
                   "ratio");
    report->Metric("storage.batch_cache_hit_ratio",
                   Ratio(sum.cache_hits, sum.cache_hits + sum.cache_misses),
                   "ratio");
    report->Metric("exec.vector_bails", sum.vector_bails / np, "count");
    report->Metric("exec.row_redos", sum.row_redos / np, "count");
    report->Metric("exec.full_scan_rows_out", full_scan_rows_out, "rows");
    report->Metric("exec.full_plan_wall_ms", MedianOr0(full_plan_ms), "ms");
    report->Metric("storage.change_scan_raw_rows", w.burst_raw / br, "rows");
    report->Metric("storage.change_scan_net_rows", w.burst_net / br, "rows");
    report->Metric("ivm.rows_processed_inc", w.rows_inc / tr, "rows");
    report->Metric("ivm.rows_processed_burst", w.rows_burst / br, "rows");
    report->Metric("ivm.rows_processed_full", w.rows_full / all, "rows");
    report->Metric("ivm.changes_applied_inc", w.changes_inc / tr, "rows");
    report->Metric("ivm.changes_applied_burst", w.changes_burst / br, "rows");
    report->Metric("ivm.changes_applied_full", w.changes_full / all, "rows");
    report->Metric("storage.rows_written", w.written / all, "rows");
    report->Metric("storage.rows_rewritten_copy", w.rewritten / all, "rows");
    report->Metric("storage.partitions_created", w.partitions / all, "count");
    report->Metric("storage.index_lookups", w.lookups / all, "count");
    report->Metric("workload.ingest_statements", w.dml_statements, "count");
    report->Metric("catalog.dts", 2, "count");
    const double traced = MedianOr0(traced_inc_ms);
    const double plain = MedianOr0(plain_inc_ms);
    report->Metric("obs.trace_overhead_pct",
                   plain > 0 ? (traced - plain) / plain * 100 : 0, "%");
    report->Metric("obs.trace_dropped", tracer.dropped(), "count");
    report->Metric("persist.checkpoint_ms", Median(checkpoint_ms), "ms");
    report->Metric("persist.checkpoint_bytes", checkpoint_bytes, "bytes");
    report->NotMeasured(
        {"sched.tick_plan_ms", "sched.tick_execute_ms", "sched.tick_refresh_ms",
         "sched.tick_persist_ms", "sched.tick_finalize_ms",
         "sched.tick_unattributed_ms", "sched.refresh_attempt_us",
         "sched.no_data_frac", "sched.busy_skips", "sched.upstream_skips",
         "sched.failures", "persist.wal_append_us",
         "persist.wal_bytes_per_tick"});
  }
  ReportReads(report, args, reads, read_ns);
  ReportRecovery(report, args, recovery);
  if (!args.trace) report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
