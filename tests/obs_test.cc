// Tests for src/obs/: metrics registry round-trips, histogram interchange
// with the serve/bench twins, deterministic-text filtering, Prometheus
// exposition, trace spans/recorder, and the REFRESH_HISTORY / GRAPH_HISTORY
// table functions (including the worker-count determinism contract and the
// no-introspection-in-definitions rule).

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "serve/latency.h"

namespace dvs {
namespace {

// ---- Registry instruments ----

TEST(MetricsRegistryTest, CounterAndGaugeRoundTrip) {
  obs::Registry reg;
  obs::Counter* c = reg.RegisterCounter("test.count", "help", true);
  *c += 3;
  c->Increment();
  EXPECT_EQ(c->load(), 4u);

  obs::Gauge* g = reg.RegisterGauge("test.gauge", "help", false);
  g->Set(-7);

  obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_NE(snap.Find("test.count"), nullptr);
  EXPECT_EQ(snap.Find("test.count")->value, 4);
  EXPECT_TRUE(snap.Find("test.count")->deterministic);
  ASSERT_NE(snap.Find("test.gauge"), nullptr);
  EXPECT_EQ(snap.Find("test.gauge")->value, -7);
  EXPECT_FALSE(snap.Find("test.gauge")->deterministic);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  obs::Registry reg;
  obs::Counter* a = reg.RegisterCounter("dup", "first", true);
  *a += 5;
  // Same name again: same instrument, first-registration help/flags kept.
  obs::Counter* b = reg.RegisterCounter("dup", "second", false);
  EXPECT_EQ(a, b);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("dup")->value, 5);
  EXPECT_EQ(snap.Find("dup")->help, "first");
  EXPECT_TRUE(snap.Find("dup")->deterministic);
}

TEST(MetricsRegistryTest, UnregisterRemoves) {
  obs::Registry reg;
  reg.RegisterCounter("gone", "h", true);
  EXPECT_EQ(reg.size(), 1u);
  reg.Unregister("gone");
  reg.Unregister("never-existed");  // no-op
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.Snapshot().Find("gone"), nullptr);
}

TEST(MetricsRegistryTest, HistogramMultiThreadRecordSnapshotText) {
  obs::Registry reg;
  obs::Histogram* h = reg.RegisterHistogram("lat", "h", false);
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPer; ++i) h->Record(t * 1000 + i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads * kPer));

  obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricSample* s = snap.Find("lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(s->histogram.count, static_cast<uint64_t>(kThreads * kPer));
  // The text encoding expands histograms into .count/.sum/... lines.
  std::string text = snap.ToText();
  EXPECT_NE(text.find("lat.count 40000"), std::string::npos) << text;
  EXPECT_NE(text.find("lat.p99"), std::string::npos) << text;
}

// ---- Histogram interchange: the serve and bench twins share the exact
// bucket layout, so exports merge losslessly into a registry histogram. ----

TEST(HistogramInterchangeTest, ServeLatencyExportsIntoRegistry) {
  serve::LatencyHistogram lh;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&lh, t] {
      for (int i = 0; i < 5000; ++i) lh.Record(t * 37 + i);
    });
  }
  for (auto& th : threads) th.join();

  obs::Registry reg;
  reg.RegisterHistogramFn("serve.lat", "scraped", false,
                          [&lh] { return lh.ExportData(); });
  obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricSample* s = snap.Find("serve.lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->histogram.count, lh.count());
  EXPECT_EQ(s->histogram.sum, lh.sum_us());
  // Same bucket layout -> identical quantile estimates.
  EXPECT_DOUBLE_EQ(s->histogram.Quantile(0.99), lh.P99Us());
}

TEST(HistogramInterchangeTest, BenchStreamingMergesIntoObsHistogram) {
  bench::StreamingHistogram sh;
  for (int i = 0; i < 3000; ++i) sh.Add(i * 3);

  obs::Histogram h;
  h.Merge(sh.ExportData());
  h.Merge(sh.ExportData());  // merge twice: counts add bucket-wise
  obs::HistogramData d = h.Export();
  EXPECT_EQ(d.count, 2 * sh.count());
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), sh.Quantile(0.5));
}

TEST(HistogramInterchangeTest, EmptyExportIsEmpty) {
  serve::LatencyHistogram lh;
  obs::HistogramData d = lh.ExportData();
  EXPECT_EQ(d.count, 0u);
  EXPECT_TRUE(d.buckets.empty());
}

// ---- Text encodings ----

TEST(MetricsTextTest, DeterministicTextFiltersNonDeterministic) {
  obs::Registry reg;
  *reg.RegisterCounter("det.count", "h", /*deterministic=*/true) += 9;
  reg.RegisterGauge("wall.gauge", "h", /*deterministic=*/false)->Set(123);

  obs::MetricsSnapshot snap = reg.Snapshot();
  std::string all = snap.ToText();
  std::string det = snap.DeterministicText();
  EXPECT_NE(all.find("det.count 9"), std::string::npos);
  EXPECT_NE(all.find("wall.gauge 123"), std::string::npos);
  EXPECT_NE(det.find("det.count 9"), std::string::npos);
  EXPECT_EQ(det.find("wall.gauge"), std::string::npos) << det;
}

TEST(MetricsTextTest, PrometheusExposition) {
  obs::Registry reg;
  *reg.RegisterCounter("dvs.test.total", "Counted things", true) += 2;
  obs::Histogram* h = reg.RegisterHistogram("dvs.lat", "Latency", false);
  h->Record(10);

  std::string prom = reg.Snapshot().ToPrometheus();
  // Dots become underscores; HELP/TYPE comments present.
  EXPECT_NE(prom.find("# HELP dvs_test_total Counted things"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE dvs_test_total counter"), std::string::npos);
  EXPECT_NE(prom.find("dvs_test_total 2"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dvs_lat summary"), std::string::npos);
  EXPECT_NE(prom.find("dvs_lat_count 1"), std::string::npos);
}

// ---- Trace spans ----

TEST(TraceTest, DisarmedSpanIsInert) {
  ASSERT_EQ(obs::ActiveTraceRecorder(), nullptr);
  obs::TraceSpan span("test", "noop", "scope");
  EXPECT_FALSE(span.armed());
  span.AddArg("ignored", 1);  // must be a no-op
}

TEST(TraceTest, ArmedSpanRecordsCompleteEvents) {
  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder scope(&rec);
    {
      obs::TraceSpan span("cat", "work", "dt_0");
      ASSERT_TRUE(span.armed());
      span.AddArg("rows", 42);
      span.AddArg("attempt", 2);
    }
    obs::TraceSpan other("cat2", "more");
  }
  EXPECT_EQ(obs::ActiveTraceRecorder(), nullptr);  // scope restored

  std::vector<obs::TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].category, "cat");
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(events[0].scope, "dt_0");
  EXPECT_GE(events[0].dur_us, 0);
  ASSERT_STREQ(events[0].arg1_name, "rows");
  EXPECT_EQ(events[0].arg1, 42);
  ASSERT_STREQ(events[0].arg2_name, "attempt");
  EXPECT_EQ(events[0].arg2, 2);
  EXPECT_EQ(rec.offered(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceTest, BoundedRecorderDropsAndCounts) {
  obs::TraceRecorder rec(/*capacity=*/4);
  {
    obs::ScopedTraceRecorder scope(&rec);
    for (int i = 0; i < 10; ++i) obs::TraceSpan span("cat", "n");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.offered(), 10u);
}

TEST(TraceTest, WriteChromeTraceShape) {
  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder scope(&rec);
    obs::TraceSpan span("cat", "ev", "with \"quote\" and\nnewline");
  }
  const std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(rec.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // The scope's quote and newline were escaped, not emitted raw.
  EXPECT_NE(text.find("with \\\"quote\\\" and\\nnewline"), std::string::npos)
      << text;
}

TEST(TraceTest, IncrementalRefreshEmitsChangeScanSpan) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE src (k INT, v INT)");
  exec("INSERT INTO src VALUES (1, 10), (2, 20)");
  exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT k, v FROM src WHERE v > 0");
  exec("INSERT INTO src VALUES (3, 30)");
  exec("UPDATE src SET v = 11 WHERE k = 1");
  clock.Advance(kMicrosPerMinute);

  obs::TraceRecorder rec;
  {
    obs::ScopedTraceRecorder scope(&rec);
    auto r = engine.refresh_engine().Refresh(
        engine.ObjectIdOf("dt").value(), clock.Now());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().action, RefreshAction::kIncremental);
  }
  int spans = 0;
  for (const obs::TraceEvent& e : rec.Snapshot()) {
    if (std::string(e.category) != "refresh" ||
        std::string(e.name) != "change_scan") {
      continue;
    }
    ++spans;
    EXPECT_EQ(e.scope, "dt");
    ASSERT_NE(e.arg1_name, nullptr);
    EXPECT_STREQ(e.arg1_name, "rows");
    EXPECT_EQ(e.arg1, 3);  // +row 3, and row 1's update as -old/+new
  }
  EXPECT_EQ(spans, 1);
}

// ---- Introspection table functions ----

struct MiniRun {
  std::string refresh_history;
  std::string graph_history;
  std::string deterministic_metrics;
};

std::string Render(const QueryResult& qr) {
  std::string out = qr.schema.ToString() + "\n";
  for (const Row& row : qr.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

/// Seeded mini pipeline (two sources, a chained DT) driven for a few
/// windows; everything observable is virtual-time-derived.
MiniRun RunMini(int worker_threads) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  obs::Registry reg;
  SchedulerOptions opts;
  opts.worker_threads = worker_threads;
  opts.metrics = &reg;
  Scheduler sched(&engine, &clock, opts);

  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE src_a (k INT, v INT)");
  exec("CREATE TABLE src_b (k INT, v INT)");
  exec("CREATE DYNAMIC TABLE dt_a TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh_0 AS SELECT k, v * 2 AS v2 FROM src_a WHERE v > 0");
  exec("CREATE DYNAMIC TABLE dt_b TARGET_LAG = '96 seconds' "
       "WAREHOUSE = wh_1 AS SELECT k, v FROM src_b");
  exec("CREATE DYNAMIC TABLE dt_c TARGET_LAG = '96 seconds' "
       "WAREHOUSE = wh_0 AS SELECT * FROM dt_a");
  for (int round = 0; round < 6; ++round) {
    exec("INSERT INTO src_a VALUES (" + std::to_string(round) + ", " +
         std::to_string(round % 3 == 0 ? -1 : round) + ")");
    exec("INSERT INTO src_b VALUES (" + std::to_string(round) + ", 1)");
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  }

  obs::InstallIntrospection(&engine, &sched);
  MiniRun out;
  auto rh = engine.Query("SELECT * FROM refresh_history()");
  auto gh = engine.Query("SELECT * FROM graph_history()");
  EXPECT_TRUE(rh.ok()) << rh.status().ToString();
  EXPECT_TRUE(gh.ok()) << gh.status().ToString();
  if (rh.ok()) out.refresh_history = Render(rh.value());
  if (gh.ok()) out.graph_history = Render(gh.value());
  out.deterministic_metrics = reg.Snapshot().DeterministicText();
  return out;
}

TEST(IntrospectionTest, WorkerCountInvariance) {
  MiniRun serial = RunMini(0);
  MiniRun parallel_run = RunMini(4);
  ASSERT_FALSE(serial.refresh_history.empty());
  EXPECT_EQ(serial.refresh_history, parallel_run.refresh_history);
  EXPECT_EQ(serial.graph_history, parallel_run.graph_history);
  EXPECT_EQ(serial.deterministic_metrics, parallel_run.deterministic_metrics);
  // The scheduler counters actually registered and counted.
  EXPECT_NE(serial.deterministic_metrics.find("sched.refreshes"),
            std::string::npos) << serial.deterministic_metrics;
}

class IntrospectionSqlTest : public ::testing::Test {
 protected:
  IntrospectionSqlTest() : clock_(0), engine_(clock_), sched_(&engine_, &clock_) {
    Exec("CREATE TABLE t (k INT, v INT)");
    Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
         "WAREHOUSE = wh AS SELECT k, v FROM t");
    Exec("CREATE DYNAMIC TABLE dt2 TARGET_LAG = '48 seconds' "
         "WAREHOUSE = wh AS SELECT k FROM t");
    Exec("INSERT INTO t VALUES (1, 10), (2, 20)");
    sched_.RunUntil(3 * kCanonicalBasePeriod);
    obs::InstallIntrospection(&engine_, &sched_);
  }

  void Exec(const std::string& sql) {
    auto r = engine_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  VirtualClock clock_;
  DvsEngine engine_;
  Scheduler sched_;
};

TEST_F(IntrospectionSqlTest, RefreshHistoryNameFilter) {
  auto all = engine_.Query("SELECT * FROM refresh_history()");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto dt1 = engine_.Query("SELECT * FROM refresh_history('dt1')");
  ASSERT_TRUE(dt1.ok()) << dt1.status().ToString();
  ASSERT_GT(dt1.value().rows.size(), 0u);
  EXPECT_LT(dt1.value().rows.size(), all.value().rows.size());
  for (const Row& row : dt1.value().rows) {
    EXPECT_EQ(row[0].ToString(), Value::String("dt1").ToString());
  }
  // Case-insensitive function name and filter; unknown DT -> zero rows.
  auto upper = engine_.Query("SELECT * FROM REFRESH_HISTORY('DT1')");
  ASSERT_TRUE(upper.ok()) << upper.status().ToString();
  EXPECT_EQ(upper.value().rows.size(), dt1.value().rows.size());
  auto none = engine_.Query("SELECT * FROM refresh_history('nope')");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().rows.size(), 0u);
}

TEST_F(IntrospectionSqlTest, BadArgumentsRejected) {
  EXPECT_FALSE(engine_.Query("SELECT * FROM refresh_history(42)").ok());
  EXPECT_FALSE(
      engine_.Query("SELECT * FROM refresh_history('a', 'b')").ok());
  EXPECT_FALSE(engine_.Query("SELECT * FROM graph_history(42)").ok());
  EXPECT_FALSE(engine_.Query("SELECT * FROM graph_history('a', 'b')").ok());
  auto unknown = engine_.Query("SELECT * FROM no_such_function()");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("refresh_history"),
            std::string::npos) << unknown.status().ToString();
}

TEST_F(IntrospectionSqlTest, GraphHistoryNameFilter) {
  // Optional name argument, for parity with refresh_history(name?).
  auto all = engine_.Query("SELECT * FROM graph_history()");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().rows.size(), 2u);
  auto one = engine_.Query("SELECT * FROM graph_history('dt1')");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one.value().rows.size(), 1u);
  EXPECT_EQ(one.value().rows[0][0].ToString(),
            Value::String("dt1").ToString());
  // Case-insensitive filter; unknown DT -> zero rows, matching
  // refresh_history's filter semantics.
  auto upper = engine_.Query("SELECT * FROM GRAPH_HISTORY('DT1')");
  ASSERT_TRUE(upper.ok()) << upper.status().ToString();
  EXPECT_EQ(upper.value().rows.size(), 1u);
  auto none = engine_.Query("SELECT * FROM graph_history('nope')");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().rows.size(), 0u);
}

TEST_F(IntrospectionSqlTest, GraphHistoryRows) {
  auto gh = engine_.Query("SELECT * FROM graph_history()");
  ASSERT_TRUE(gh.ok()) << gh.status().ToString();
  EXPECT_EQ(gh.value().rows.size(), 2u);  // dt1, dt2
}

TEST_F(IntrospectionSqlTest, RejectedInsideDefinitions) {
  // Scheduler state must never leak into a persisted plan: DT and view
  // definitions bind without the provider and must fail.
  auto dt = engine_.Execute(
      "CREATE DYNAMIC TABLE dt_bad TARGET_LAG = '48 seconds' WAREHOUSE = wh "
      "AS SELECT * FROM refresh_history()");
  EXPECT_FALSE(dt.ok());
  auto view =
      engine_.Execute("CREATE VIEW v_bad AS SELECT * FROM graph_history()");
  EXPECT_FALSE(view.ok());
  // Plain SELECT over the same functions still works (fixture queries do),
  // and projecting columns through works too.
  auto proj = engine_.Query(
      "SELECT name, state FROM graph_history() WHERE name = 'dt1'");
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  ASSERT_EQ(proj.value().rows.size(), 1u);
  EXPECT_EQ(proj.value().rows[0][1].ToString(), Value::String("ACTIVE").ToString());
}

}  // namespace
}  // namespace dvs
