// E20 — Observability: determinism and cost of the obs layer.
//
// The tentpole claim of the observability PR is twofold:
//
//   1. Determinism: every metric marked deterministic, and the
//      REFRESH_HISTORY / GRAPH_HISTORY table functions, are *byte-identical*
//      across scheduler worker counts. This experiment runs the same seeded
//      fleet workload at worker_threads = 0 and 4 with independent
//      obs::Registry instances and byte-compares
//      MetricsSnapshot::DeterministicText() plus the rendered introspection
//      query output.
//   2. Cost: tracing is free when disarmed. An unarmed TraceSpan is one
//      relaxed atomic load; this bench measures that cost directly and
//      models armed-site overhead as offered_spans x per_span_cost over the
//      disarmed run's wall time, gated < 5%.
//
// A third, armed pass writes BENCH_E20_trace.json (validated by
// tools/trace_dump in CI) and checks the span taxonomy categories show up.
// A serve-read phase reports read latency through bench::AddReadLatency so
// E19 and E20 share the read_p50_ms / read_p99_ms / qps JSON keys.
//
// --smoke runs a small fleet for CI (tier-1 ctest + TSan).

#include <cstring>
#include <string>

#include "bench_util.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "serve/query_service.h"
#include "workload/fleet.h"

using namespace dvs;

namespace {

struct RunConfig {
  int worker_threads = 0;
  bool serve_reads = false;
  int pipelines = 32;
  int rounds = 24;
  int reads = 0;
};

struct RunOutcome {
  bool ok = false;
  std::string deterministic_metrics;  ///< DeterministicText fingerprint.
  std::string refresh_history;        ///< Rendered REFRESH_HISTORY() rows.
  std::string graph_history;          ///< Rendered GRAPH_HISTORY() rows.
  size_t refresh_history_rows = 0;
  int64_t rows_processed = 0;
  double wall_s = 0;
  // Serve-read phase (when cfg.serve_reads).
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  double qps = 0;
  uint64_t reads_ok = 0;
};

/// Renders a query result to one canonical string: schema line, then one
/// row per line with '|'-separated value texts. Byte-compared across runs.
std::string RenderResult(const QueryResult& qr) {
  std::string out = qr.schema.ToString();
  out += "\n";
  for (const Row& row : qr.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

/// One full seeded workload run with its own engine, scheduler, and
/// registry. Everything that feeds the determinism gate is derived from
/// virtual time, so two calls with equal seeds and different worker counts
/// must produce byte-identical outcomes.
RunOutcome RunWorkload(const RunConfig& cfg) {
  RunOutcome out;

  VirtualClock clock(0);
  DvsEngine engine(clock);
  obs::Registry registry;

  SchedulerOptions sopts;
  sopts.worker_threads = cfg.worker_threads;
  sopts.metrics = &registry;
  Scheduler sched(&engine, &clock, sopts);
  obs::EngineMetrics engine_metrics(&engine, &registry);

  Rng rng(20);
  workload::FleetOptions fopts;
  fopts.pipelines = cfg.pipelines;
  fopts.chain_probability = 0.3;
  fopts.max_fan_out = 3;
  fopts.churn_fraction = 0.2;
  fopts.warehouses = 8;
  auto built = workload::Fleet::Build(&engine, &rng, fopts);
  if (!built.ok()) {
    std::printf("FATAL: %s\n", built.status().ToString().c_str());
    return out;
  }
  workload::Fleet fleet = built.take();

  bench::WallTimer timer;
  const Micros kWindow = kCanonicalBasePeriod;
  for (int round = 0; round < cfg.rounds; ++round) {
    Micros from = clock.Now();
    Micros to = from + kWindow;
    auto pumped = fleet.PumpArrivals(&engine, &rng, from, to);
    if (!pumped.ok()) {
      std::printf("FATAL: %s\n", pumped.ToString().c_str());
      return out;
    }
    sched.RunUntil(to);
  }
  out.wall_s = timer.Seconds();

  // Serve-read phase: non-deterministic by construction (wall-clock
  // latencies, cache state), registered on the same registry to prove the
  // deterministic fingerprint is unaffected by serve traffic.
  if (cfg.serve_reads) {
    serve::ServeOptions serve_opts;
    serve_opts.metrics = &registry;
    serve::QueryService service(&engine, serve_opts);
    const std::vector<workload::FleetDt> dts = fleet.AllDts();
    Rng read_rng(21);
    bench::WallTimer read_timer;
    for (int i = 0; i < cfg.reads; ++i) {
      serve::ReadQuery q;
      q.table = dts[static_cast<size_t>(read_rng.Zipf(
                        static_cast<int64_t>(dts.size())))].id;
      q.read_ts = clock.Now();
      if (read_rng.Bernoulli(0.25)) {
        q.kind = serve::ReadKind::kPointLookup;
        q.key_column = 0;
        q.key = Value::Int(read_rng.Uniform(0, 50));
      } else {
        q.kind = serve::ReadKind::kScan;
        q.sum_column = 1;
      }
      if (service.Execute(q).ok()) out.reads_ok += 1;
    }
    const double read_s = read_timer.Seconds();
    out.read_p50_ms = service.scan_latency().P50Us() / 1000.0;
    out.read_p99_ms = service.scan_latency().P99Us() / 1000.0;
    out.qps = read_s > 0 ? static_cast<double>(out.reads_ok) / read_s : 0;
    // Scrape serve-backed metrics while the service (whose callbacks feed
    // them) is still alive; only deterministic lines survive the gate.
    workload::ExportPumpStats(fleet.pump_stats(), &registry);
    out.deterministic_metrics = registry.Snapshot().DeterministicText();
  } else {
    workload::ExportPumpStats(fleet.pump_stats(), &registry);
    out.deterministic_metrics = registry.Snapshot().DeterministicText();
  }

  const obs::MetricsSnapshot snap = registry.Snapshot();
  if (const obs::MetricSample* s = snap.Find("sched.rows_processed")) {
    out.rows_processed = s->value;
  }

  // Introspection: the paper-style information functions, queried through
  // the SQL front end exactly as a user would.
  obs::InstallIntrospection(&engine, &sched);
  auto rh = engine.Query("SELECT * FROM refresh_history()");
  auto gh = engine.Query("SELECT * FROM graph_history()");
  if (!rh.ok() || !gh.ok()) {
    std::printf("FATAL: introspection query failed: %s\n",
                (!rh.ok() ? rh.status() : gh.status()).ToString().c_str());
    return out;
  }
  out.refresh_history_rows = rh.value().rows.size();
  out.refresh_history = RenderResult(rh.value());
  out.graph_history = RenderResult(gh.value());
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  RunConfig base;
  base.pipelines = smoke ? 32 : 400;
  base.rounds = smoke ? 24 : 60;
  base.reads = smoke ? 2000 : 20000;

  std::printf("E20 — observability: %d pipelines, %d rounds (%s mode)\n\n",
              base.pipelines, base.rounds, smoke ? "smoke" : "full");

  // ---- Pass 1 + 2: disarmed, worker_threads 0 vs 4. Pass 2 adds the
  // serve-read phase to show serve traffic cannot perturb the fingerprint.
  RunConfig serial = base;
  serial.worker_threads = 0;
  RunOutcome r0 = RunWorkload(serial);

  RunConfig parallel_cfg = base;
  parallel_cfg.worker_threads = 4;
  parallel_cfg.serve_reads = true;
  RunOutcome r4 = RunWorkload(parallel_cfg);
  if (!r0.ok || !r4.ok) return 1;

  const bool metrics_match = r0.deterministic_metrics == r4.deterministic_metrics;
  const bool refresh_match = r0.refresh_history == r4.refresh_history;
  const bool graph_match = r0.graph_history == r4.graph_history;

  std::printf("deterministic fingerprint: %zu bytes (serial) vs %zu bytes "
              "(4 workers)\n",
              r0.deterministic_metrics.size(),
              r4.deterministic_metrics.size());
  std::printf("refresh_history: %zu rows; rows_processed: %lld vs %lld\n",
              r0.refresh_history_rows,
              static_cast<long long>(r0.rows_processed),
              static_cast<long long>(r4.rows_processed));
  std::printf("serve reads: %llu ok, scan p50 %.3f ms p99 %.3f ms, %.0f QPS\n",
              static_cast<unsigned long long>(r4.reads_ok), r4.read_p50_ms,
              r4.read_p99_ms, r4.qps);

  bench::Check(metrics_match,
               "deterministic metrics byte-identical at workers 0 vs 4");
  bench::Check(refresh_match,
               "REFRESH_HISTORY() byte-identical at workers 0 vs 4");
  bench::Check(graph_match,
               "GRAPH_HISTORY() byte-identical at workers 0 vs 4");
  bench::Check(r0.rows_processed > 0 &&
                   r0.rows_processed == r4.rows_processed,
               "rows_processed nonzero and unchanged across worker counts");
  bench::Check(r0.refresh_history_rows > 0,
               "REFRESH_HISTORY() returns refresh log rows");

  // ---- Pass 3: armed. Same workload under a ScopedTraceRecorder; the
  // Chrome trace goes to disk for tools/trace_dump (CI validates it).
  obs::TraceRecorder recorder;
  RunOutcome armed;
  {
    obs::ScopedTraceRecorder scope(&recorder);
    armed = RunWorkload(parallel_cfg);
  }
  if (!armed.ok) return 1;
  const std::vector<obs::TraceEvent> events = recorder.Snapshot();
  bool saw_sched = false, saw_refresh = false, saw_serve = false;
  size_t persist_spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.category, "sched") == 0) saw_sched = true;
    if (std::strcmp(e.category, "refresh") == 0) saw_refresh = true;
    if (std::strcmp(e.category, "serve") == 0) saw_serve = true;
    if (std::strcmp(e.category, "persist") == 0) ++persist_spans;
  }
  Status wrote = recorder.WriteChromeTrace("BENCH_E20_trace.json");
  std::printf("\narmed run: %zu events recorded, %zu dropped (%zu persist "
              "spans); armed fingerprint match: %s\n",
              recorder.size(), recorder.dropped(), persist_spans,
              armed.deterministic_metrics == r0.deterministic_metrics
                  ? "yes" : "NO");
  bench::Check(wrote.ok(), "Chrome trace written (BENCH_E20_trace.json)");
  bench::Check(!events.empty() && saw_sched && saw_refresh && saw_serve,
               "trace covers sched, refresh, and serve span categories");
  bench::Check(armed.deterministic_metrics == r0.deterministic_metrics,
               "arming the recorder does not perturb deterministic metrics");

  // ---- Pass 4: disarmed span cost. The recorder is uninstalled again, so
  // each TraceSpan here is the real hot-path cost: one relaxed atomic load
  // at construction, a null check at destruction.
  const int kSpanIters = 1 << 22;
  uint64_t sink = 0;
  bench::WallTimer span_timer;
  for (int i = 0; i < kSpanIters; ++i) {
    obs::TraceSpan span("bench", "noop");
    sink += span.armed() ? 1u : 0u;
  }
  const double span_cost_ns = span_timer.Seconds() * 1e9 / kSpanIters;
  // Overhead model: every span the armed run *offered* costs one disarmed
  // span at the same site when tracing is off. Compare that total against
  // the disarmed run's wall time.
  const double offered = static_cast<double>(recorder.offered());
  const double overhead_pct =
      r4.wall_s > 0 ? offered * span_cost_ns / (r4.wall_s * 1e9) * 100.0 : 0;
  std::printf("disarmed span cost: %.2f ns (%llu armed sink); %.0f spans "
              "offered over %.2fs wall => %.3f%% modeled overhead\n",
              span_cost_ns, static_cast<unsigned long long>(sink), offered,
              r4.wall_s, overhead_pct);
  bench::Check(sink == 0, "spans in the cost loop were genuinely disarmed");
  bench::Check(overhead_pct < 5.0,
               "modeled disarmed tracing overhead under 5% of run wall time");

  bench::BenchJson json(
      "E20",
      "Observability layer: worker-count determinism of metrics and "
      "REFRESH_HISTORY, trace span coverage, and disarmed tracing cost");
  json.meta()
      .Int("pipelines", base.pipelines)
      .Int("rounds", base.rounds)
      .Int("workers_parallel", 4)
      .Bool("smoke", smoke);
  json.AddPoint()
      .Str("kind", "determinism")
      .Bool("deterministic_metrics_match", metrics_match)
      .Bool("refresh_history_match", refresh_match)
      .Bool("graph_history_match", graph_match)
      .Int("refresh_history_rows",
           static_cast<int64_t>(r0.refresh_history_rows))
      .Int("rows_processed", r0.rows_processed);
  json.AddPoint()
      .Str("kind", "tracing")
      .Int("trace_events", static_cast<int64_t>(recorder.size()))
      .Int("trace_dropped", static_cast<int64_t>(recorder.dropped()))
      .Int("spans_offered", static_cast<int64_t>(recorder.offered()))
      .Num("span_cost_disarmed_ns", span_cost_ns)
      .Num("overhead_est_pct", overhead_pct);
  bench::AddReadLatency(json.AddPoint().Str("kind", "serve_reads"),
                        r4.read_p50_ms, r4.read_p99_ms, r4.qps)
      .Int("reads", static_cast<int64_t>(r4.reads_ok));
  json.WriteFile();

  return bench::Finish();
}
