// fleet_tick: a synthetic fleet of thousands of small DTs (workload::Fleet —
// Figure 5 target-lag marginals, Zipf fan-out, UPDATE / DELETE churn)
// refreshed by the scheduler, one 48-second tick per round after the
// round's arrivals are pumped in through SQL. Everything is journaled to a
// WAL with periodic checkpoints, and the final directory is recovered. Most
// refreshes are NO_DATA, so the work is in sched / catalog / persist and the
// fixed cost per refresh, with little in exec.

#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "persist/snapshot.h"
#include "sched/scheduler.h"
#include "workload/fleet.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dvs;

namespace {

constexpr int kPipelines = 2000;
// The fleet's shape (tables, DTs, lags, arrival periods) is a fixed part of
// the workload, like a schema; --seed drives the data pumped into it and the
// reads. Seeding the shape too would change the workload itself from run to
// run: which DTs exist and how often they are due.
constexpr uint64_t kShapeSeed = 20250611;
// A checkpoint every 33 ticks: one in each 50-tick cycle, 2% of ticks, so
// the tick p75 lies well inside the plain ticks (rank 75% against a boundary
// at 98%).
constexpr int kCheckpointEveryTicks = 33;
constexpr Micros kTick = kCanonicalBasePeriod;
// Each cycle builds a fresh fleet and runs this many ticks (one per round).
constexpr int kTicksPerCycle = 50;
// Every cycle replays the same ticks, and the end-to-end tick figures are
// percentiles over the 50 ticks of each tick's fastest cycle (see
// FastestRepetition), so 50 ticks leave twelve samples beyond the p75. A
// run makes cycles until --seconds have passed, and at least this many.
constexpr int kMinCycles = 4;
// fleet_tick reads after every cycle, with nothing else running.
constexpr int kReadsPerCycle = 20'000;

workload::FleetOptions FleetShape() {
  workload::FleetOptions o;
  o.pipelines = kPipelines;
  o.chain_probability = 0.3;
  o.max_fan_out = 4;
  o.churn_fraction = 0.2;
  o.warehouses = 8;
  return o;
}

/// One fleet engine with its scheduler. Members are declared in dependency
/// order so they are destroyed scheduler first, engine last.
struct FleetRig {
  VirtualClock clock{0};
  obs::Registry registry;
  std::unique_ptr<DvsEngine> engine;
  std::unique_ptr<persist::Manager> manager;
  std::unique_ptr<Scheduler> sched;
  std::optional<workload::Fleet> fleet;
  std::optional<Rng> rng;
};

/// Builds the fleet and initializes every DT at the first tick time, so the
/// timed ticks start in steady state and every DT is servable.
std::unique_ptr<FleetRig> SetUp(uint64_t seed, const std::string& wal_dir) {
  auto r = std::make_unique<FleetRig>();
  r->engine = std::make_unique<DvsEngine>(r->clock);
  SchedulerOptions so;
  so.metrics = &r->registry;
  if (!wal_dir.empty()) {
    fs::remove_all(wal_dir);
    persist::ManagerOptions mo;
    mo.dir = wal_dir;
    mo.checkpoint_every_n_ticks = kCheckpointEveryTicks;
    r->manager = Must(persist::Manager::Open(mo), "open " + wal_dir);
    Must(r->manager->Attach(r->engine.get()), "attach");
    so.persistence = r->manager.get();
  }
  r->sched = std::make_unique<Scheduler>(r->engine.get(), &r->clock, so);
  Rng shape_rng(kShapeSeed);
  r->fleet.emplace(Must(workload::Fleet::Build(r->engine.get(), &shape_rng,
                                               FleetShape()),
                        "build fleet"));
  r->rng.emplace(seed);
  Must(r->fleet->PumpArrivals(r->engine.get(), &*r->rng, 0, kTick),
       "initial arrivals");
  r->clock.AdvanceTo(kTick);
  for (const workload::FleetDt& dt : r->fleet->AllDts()) {
    // Creation order puts every upstream DT before its consumers.
    Must(r->engine->refresh_engine().Refresh(dt.id, kTick),
         "initialize " + dt.name);
  }
  r->sched->RunUntil(kTick);  // nothing is due: every DT refreshed at kTick
  return r;
}

int64_t Counter(const FleetRig& r, const char* name) {
  const obs::MetricsSnapshot snap = r.registry.Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : s->value;
}

uint64_t PumpStatements(const workload::PumpStats& p) {
  return p.insert_statements + p.update_statements + p.delete_statements;
}

/// Per-layer numbers collected from traced ticks.
struct TickTrace {
  std::vector<double> plan_ms, execute_ms, refresh_ms, persist_ms, finalize_ms,
      gap_ms;
  std::vector<double> attempt_us, checkpoint_ms;
  double wal_append_us_sum = 0;
  uint64_t wal_appends = 0;

  void Add(const std::vector<obs::TraceEvent>& events) {
    const obs::TraceEvent* tick = FindBenchSpan(events, "tick");
    Check(tick != nullptr, "traced tick has no perfbench/tick span");
    const SpanSplit split =
        SplitSpan({SpanLabel(*tick), tick->start_us, tick->dur_us},
                  SpansOnThread(events, tick->tid));
    Check(split.total == tick->dur_us, "tick split does not add up");
    // The tick splits into its three phases, the refresh attempts (with
    // their operators) and the WAL / checkpoint I/O inside them, and the
    // gaps no program span covers.
    double refresh_us = 0, persist_us = 0;
    for (const auto& [label, self] : split.self_by_label) {
      if (label.rfind("refresh/", 0) == 0 || label.rfind("exec/", 0) == 0) {
        refresh_us += static_cast<double>(self);
      } else if (label.rfind("persist/", 0) == 0) {
        persist_us += static_cast<double>(self);
      }
    }
    const double plan = split.SelfOf("sched/tick.plan");
    const double execute = split.SelfOf("sched/tick.execute");
    const double finalize = split.SelfOf("sched/tick.finalize");
    const double gap = split.SelfOf("perfbench/tick");
    Check(plan + execute + finalize + gap + refresh_us + persist_us ==
              static_cast<double>(tick->dur_us),
          "a traced tick holds spans outside the tick taxonomy");
    plan_ms.push_back(plan / 1e3);
    execute_ms.push_back(execute / 1e3);
    refresh_ms.push_back(refresh_us / 1e3);
    persist_ms.push_back(persist_us / 1e3);
    finalize_ms.push_back(finalize / 1e3);
    gap_ms.push_back(gap / 1e3);
    for (const obs::TraceEvent& e : events) {
      if (e.tid != tick->tid) continue;
      const std::string label = SpanLabel(e);
      if (label == "refresh/attempt") {
        attempt_us.push_back(static_cast<double>(e.dur_us));
      } else if (label == "persist/wal.append") {
        wal_append_us_sum += static_cast<double>(e.dur_us);
        wal_appends += 1;
      } else if (label == "persist/checkpoint") {
        checkpoint_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
      }
    }
  }
};

/// The timed rounds of every cycle.
struct TickLoop {
  // Ticks of traced and of plain rounds, pooled over the cycles.
  std::vector<double> traced_tick_ms, plain_tick_ms;
  // Per round of a cycle, its fastest time over the cycles.
  FastestRepetition fastest_ingest_ms, fastest_tick_ms;
  uint64_t records = 0;
  uint64_t failed_records = 0;
  int rounds = 0;
  TickTrace trace;
};

/// Runs one cycle's ticks, traced throughout when `armed`; untraced cycles
/// feed the fastest repetitions. Returns the storage work of the ticks over
/// every table and DT.
std::map<std::string, uint64_t> RunTicks(FleetRig* r, bool armed,
                                         Tracer* tracer, TickLoop* out) {
  DvsEngine& e = *r->engine;
  const uint64_t written0 = CatalogStat(e, &StorageStats::rows_written);
  const uint64_t scanned0 = CatalogStat(e, &StorageStats::change_scan_raw_rows);
  if (!armed) {
    out->fastest_ingest_ms.BeginRepetition();
    out->fastest_tick_ms.BeginRepetition();
  }
  for (int i = 0; i < kTicksPerCycle; ++i) {
    ++out->rounds;
    const Micros from = r->clock.Now();
    const Micros to = from + kTick;
    int64_t t0 = NowNs();
    Must(r->fleet->PumpArrivals(r->engine.get(), &*r->rng, from, to),
         "pump arrivals");
    if (!armed) out->fastest_ingest_ms.Add(NsToMs(NowNs() - t0));

    const size_t log0 = r->sched->log().size();
    if (armed) tracer->Begin();
    double tick_ms = 0;
    {
      obs::TraceSpan span("perfbench", "tick");
      t0 = NowNs();
      r->sched->RunUntil(to);
      tick_ms = NsToMs(NowNs() - t0);
    }
    if (armed) {
      out->trace.Add(tracer->End());
      out->traced_tick_ms.push_back(tick_ms);
    } else {
      out->fastest_tick_ms.Add(tick_ms);
      out->plain_tick_ms.push_back(tick_ms);
    }
    const std::vector<RefreshRecord>& log = r->sched->log();
    for (size_t j = log0; j < log.size(); ++j) {
      out->records += 1;
      out->failed_records += log[j].failed ? 1 : 0;
    }
  }
  return {{"storage.all_rows_written",
           CatalogStat(e, &StorageStats::rows_written) - written0},
          {"storage.all_change_scan_raw_rows",
           CatalogStat(e, &StorageStats::change_scan_raw_rows) - scanned0}};
}

/// Deterministic counts of one cycle; every cycle repeats them exactly.
std::map<std::string, uint64_t> CycleCounts(const FleetRig& r) {
  std::map<std::string, uint64_t> c;
  c["catalog.dts"] = r.fleet->dt_count();
  const workload::PumpStats& p = r.fleet->pump_stats();
  c["workload.ingest_statements"] = PumpStatements(p);
  c["workload.rows_inserted"] = p.rows_inserted;
  for (const char* name :
       {"sched.ticks", "sched.refreshes", "sched.refreshes_no_data",
        "sched.busy_skips", "sched.upstream_skips", "sched.failures",
        "sched.rows_processed", "sched.changes_applied"}) {
    c[name] = static_cast<uint64_t>(Counter(r, name));
  }
  return c;
}

/// Repeated cycles of one fleet workload: each builds a fresh fleet from the
/// same inputs and runs kTicksPerCycle ticks, so every cycle does identical
/// work and the pooled samples span the whole run.
struct Cycles {
  std::vector<double> setup_s;
  TickLoop loop;
  std::map<std::string, uint64_t> counts;
  RecoveryTiming recovery;
  ReadLog reads;  ///< Every cycle's read phase, pooled.
  FastestRepetition fastest_read_ns;
  std::vector<double> checkpoint_ms;
  double checkpoint_bytes = 0;

  void EndCycle(const FleetRig& r, std::map<std::string, uint64_t> c) {
    c.merge(CycleCounts(r));
    if (counts.empty()) {
      counts = std::move(c);
    } else {
      Check(c == counts, "a cycle's deterministic counts differ from the "
                         "first cycle's");
    }
  }
  void AddRecovery(const RecoveryTiming& r) {
    if (!recovery.wall_s.empty()) {
      Check(r.wal_records == recovery.wal_records,
            "cycles recovered different WAL record counts");
    }
    recovery.wal_records = r.wal_records;
    recovery.image_mb = r.image_mb;
    recovery.wall_s.insert(recovery.wall_s.end(), r.wall_s.begin(),
                           r.wall_s.end());
  }
};

std::unique_ptr<FleetRig> TimedSetUp(const Args& args,
                                     const std::string& wal_dir, Cycles* c) {
  const int64_t t0 = NowNs();
  std::unique_ptr<FleetRig> r = SetUp(args.seed, wal_dir);
  c->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return r;
}

std::vector<ReadTarget> FleetTargets(const workload::Fleet& fleet) {
  std::vector<ReadTarget> targets;
  // Column 1 is an integer in both fleet DT shapes (n / v2); column 0 is the
  // point-lookup key (k, or cat, which an integer key never matches).
  for (const workload::FleetDt& dt : fleet.AllDts()) {
    targets.push_back({dt.id, 0, 0, 50, 1});
  }
  return targets;
}

std::string Fingerprint(FleetRig* r) {
  const SchedulerPersistState state = r->sched->ExportState();
  return persist::EncodeSystemImage(
      persist::CaptureSystemImage(*r->engine, &state));
}

void ReportCycles(Report* report, const Args& args, const Cycles& c,
                  const Tracer& tracer, int cycles) {
  const TickLoop& loop = c.loop;
  ReportSetup(report, args, c.setup_s);
  report->Attempted(
      static_cast<uint64_t>(cycles) *
          c.counts.at("workload.ingest_statements") +
      loop.records);
  report->Failed(loop.failed_records);
  report->Meta("cycles", cycles);
  report->Meta("ticks_per_cycle", kTicksPerCycle);
  report->Meta("pipelines", kPipelines);
  report->Meta("dts", static_cast<double>(c.counts.at("catalog.dts")));
  report->Meta("worker_threads", 0);
  for (const auto& [name, value] : c.counts) report->Deterministic(name, value);

  report->Meta("samples.ticks",
               static_cast<double>(loop.fastest_tick_ms.values().size()));
  report->Meta("samples.ingest",
               static_cast<double>(loop.fastest_ingest_ms.values().size()));
  ReportRecovery(report, args, c.recovery);
  ReportReads(report, args, c.reads, c.fastest_read_ns);
  auto count = [&](const char* name) {
    return static_cast<double>(c.counts.at(name));
  };
  // Refreshes that found data to process; most of a fleet's are NO_DATA.
  const double data_refreshes =
      count("sched.refreshes") - count("sched.refreshes_no_data");
  if (!args.trace) {
    report->Metric("refresh_rows_processed",
                   Ratio(count("sched.rows_processed"), data_refreshes),
                   "rows");
    report->Metric("change_scan_rows",
                   Ratio(count("storage.all_change_scan_raw_rows"),
                         data_refreshes),
                   "rows");
    report->Metric("storage_rows_written",
                   count("storage.all_rows_written") / kTicksPerCycle, "rows");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  const std::vector<double>& tick_ms = loop.fastest_tick_ms.values();
  double tick_wall_ms = 0;
  for (double x : tick_ms) tick_wall_ms += x;
  report->Metric("wall.ingest_p50_ms", Median(loop.fastest_ingest_ms.values()),
                 "ms");
  report->Metric("wall.refresh_p50_ms", Median(tick_ms), "ms");
  report->Metric("wall.refresh_p75_ms",
                 TailPercentile(tick_ms, 0.75, "wall.refresh_p75_ms"), "ms");
  report->Metric("wall.refreshes_per_s",
                 count("sched.refreshes") / tick_wall_ms * 1e3, "1/s");
  const TickTrace& t = loop.trace;
  report->Metric("sched.tick_plan_ms", MedianOr0(t.plan_ms), "ms");
  report->Metric("sched.tick_execute_ms", MedianOr0(t.execute_ms), "ms");
  report->Metric("sched.tick_refresh_ms", MedianOr0(t.refresh_ms), "ms");
  report->Metric("sched.tick_persist_ms", MedianOr0(t.persist_ms), "ms");
  report->Metric("sched.tick_finalize_ms", MedianOr0(t.finalize_ms), "ms");
  report->Metric("sched.tick_unattributed_ms", MedianOr0(t.gap_ms), "ms");
  report->Metric("sched.refresh_attempt_us", MedianOr0(t.attempt_us), "us");
  report->Metric("sched.no_data_frac",
                 Ratio(count("sched.refreshes_no_data"),
                       count("sched.refreshes")),
                 "ratio");
  report->Metric("sched.busy_skips", count("sched.busy_skips"), "count");
  report->Metric("sched.upstream_skips", count("sched.upstream_skips"),
                 "count");
  report->Metric("sched.failures", count("sched.failures"), "count");
  report->Metric("workload.ingest_statements",
                 count("workload.ingest_statements"), "count");
  report->Metric("catalog.dts", count("catalog.dts"), "count");
  report->Metric("persist.checkpoint_ms", MedianOr0(c.checkpoint_ms), "ms");
  report->Metric("persist.checkpoint_bytes", c.checkpoint_bytes, "bytes");
  const double traced = MedianOr0(loop.traced_tick_ms);
  const double plain = MedianOr0(loop.plain_tick_ms);
  report->Metric("obs.trace_overhead_pct",
                 plain > 0 ? (traced - plain) / plain * 100 : 0, "%");
  report->Metric("obs.trace_dropped", static_cast<double>(tracer.dropped()),
                 "count");
  report->NotMeasured(
      {"ivm.plan_wall_ms", "dt.unattributed_ms", "ivm.burst_plan_wall_ms",
       "dt.burst_unattributed_ms", "dt.refresh_burst_p50_ms",
       "dt.refresh_full_p50_ms", "exec.scan_ms", "exec.join_ms",
       "exec.aggregate_ms", "exec.scan_rows_out", "exec.join_cache_hit_ratio",
       "storage.batch_cache_hit_ratio", "exec.vector_bails", "exec.row_redos",
       "exec.full_scan_rows_out", "exec.full_plan_wall_ms",
       "storage.change_scan_raw_rows", "storage.change_scan_net_rows",
       "ivm.rows_processed_inc", "ivm.rows_processed_burst",
       "ivm.rows_processed_full", "ivm.changes_applied_inc",
       "ivm.changes_applied_burst", "ivm.changes_applied_full",
       "storage.rows_written", "storage.rows_rewritten_copy",
       "storage.partitions_created", "storage.index_lookups",
       "wall.inc_vs_full_p50"});
}

}  // namespace

void RunFleetTick(const Args& args, Report* report) {
  report->Meta("checkpoint_every_n_ticks", kCheckpointEveryTicks);
  const std::string dir = RunDir("fleet_tick");
  Tracer tracer;
  Cycles c;
  double wal_bytes = 0, checkpoints = 0;
  const int64_t start_ns = NowNs();
  int cycles = 0;
  for (; MoreRepetitions(args, start_ns, cycles, kMinCycles); ++cycles) {
    std::unique_ptr<FleetRig> r = TimedSetUp(args, dir, &c);
    const persist::Manager& m = *r->manager;
    const uint64_t wal0 = m.stats().wal_bytes.load();
    const uint64_t ckpt_bytes0 = m.stats().checkpoint_bytes.load();
    const uint64_t ckpts0 = m.checkpoints_taken();
    // Traced runs arm every other cycle; the timings come from the others.
    const bool armed = args.trace && cycles % 2 == 1;
    std::map<std::string, uint64_t> work =
        RunTicks(r.get(), armed, &tracer, &c.loop);
    Must(m.wal_status(), "WAL appends");
    wal_bytes += static_cast<double>(m.stats().wal_bytes.load() - wal0);
    checkpoints = static_cast<double>(m.checkpoints_taken() - ckpts0);
    c.checkpoint_bytes = Ratio(
        static_cast<double>(m.stats().checkpoint_bytes.load() - ckpt_bytes0),
        checkpoints);
    c.EndCycle(*r, std::move(work));
    // Recover the directory this cycle journaled; it must reproduce the
    // live image.
    const std::string fingerprint = Fingerprint(r.get());
    r->manager->Detach();
    // The same seed every cycle: each cycle makes the same reads of the
    // same state.
    ReadLog reads =
        QuiescedReads(*r->engine, r->clock, FleetTargets(*r->fleet),
                      args.seed * 1000, kReadsPerCycle);
    if (!armed) {
      c.fastest_read_ns.BeginRepetition();
      AddReads(reads, &c.fastest_read_ns);
    }
    PoolReads(args, std::move(reads), &c.reads);
    const Micros live_now = r->clock.Now();
    r.reset();  // recover into the memory the live fleet held
    c.AddRecovery(MeasureRecovery(dir, fingerprint, live_now, 1));
    fs::remove_all(dir);
  }
  report->Meta("checkpoints_per_cycle", checkpoints);
  if (args.trace) {
    c.checkpoint_ms = c.loop.trace.checkpoint_ms;
    Check(!c.checkpoint_ms.empty(), "no traced tick took a checkpoint");
  }
  ReportCycles(report, args, c, tracer, cycles);
  if (args.trace) {
    const TickTrace& t = c.loop.trace;
    report->Metric(
        "persist.wal_append_us",
        Ratio(t.wal_append_us_sum, static_cast<double>(t.wal_appends)), "us");
    report->Metric("persist.wal_bytes_per_tick",
                   wal_bytes / static_cast<double>(c.loop.rounds),
                   "bytes");
  }
}

}  // namespace perfbench
