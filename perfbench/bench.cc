#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>

#include "common/rng.h"
#include "obs/profile.h"
#include "persist/manager.h"
#include "persist/recover.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dvs;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Check(bool cond, const std::string& what) {
  if (!cond) throw CheckFailure(what);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) throw CheckFailure(what + ": " + s.ToString());
}

QueryResult Sql(DvsEngine& engine, const std::string& sql) {
  return Must(engine.Execute(sql), sql.substr(0, 120));
}

bool MoreRepetitions(const Args& args, int64_t start_ns, int done,
                     int min_repetitions) {
  return done < min_repetitions ||
         static_cast<double>(NowNs() - start_ns) < args.seconds * 1e9;
}

// ---- Report ----

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is not finite");
  Check(!metrics_.count(name), "metric " + name + " reported twice");
  metrics_[name] = {value, unit};
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_[key] = JsonString(value);
}

void Report::Meta(const std::string& key, double value) {
  meta_[key] = JsonNumber(value);
}

void Report::Deterministic(const std::string& key, uint64_t value) {
  deterministic_[key] = value;
}

void Report::NotMeasured(std::initializer_list<const char*> names) {
  not_measured_.insert(not_measured_.end(), names.begin(), names.end());
}

void Report::Print() const {
  std::string meta = "{";
  for (const auto& [k, v] : meta_) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(k) + ": " + v;
  }
  std::printf("PERFBENCH_META %s}\n", meta.c_str());
  std::string det = "{";
  for (const auto& [k, v] : deterministic_) {
    if (det.size() > 1) det += ", ";
    det += JsonString(k) + ": " + std::to_string(v);
  }
  std::printf("PERFBENCH_DETERMINISTIC %s}\n", det.c_str());
  std::string absent = "[";
  for (const std::string& name : not_measured_) {
    if (absent.size() > 1) absent += ", ";
    absent += JsonString(name);
  }
  std::printf("PERFBENCH_NOT_MEASURED %s]\n", absent.c_str());
  std::string metrics = "{";
  for (const auto& [name, vu] : metrics_) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
               ", \"unit\": " + JsonString(vu.second) + "}";
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}}\n",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

uint64_t CatalogStat(DvsEngine& engine,
                     const obs::Counter StorageStats::*field) {
  uint64_t sum = 0;
  Catalog& catalog = engine.catalog();
  for (size_t i = 0; i < catalog.object_count(); ++i) {
    const CatalogObject* obj = catalog.ObjectAt(i);
    if (obj->storage != nullptr) sum += (obj->storage->stats().*field).value();
  }
  return sum;
}

void ReportSetup(Report* report, const Args& args,
                 const std::vector<double>& setup_s) {
  report->Meta("samples.setup_s", static_cast<double>(setup_s.size()));
  if (!args.trace) {
    report->Metric("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
                   "s");
  }
}

// ---- Reads ----

void ReadLog::Merge(const ReadLog& o) {
  latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
  ok += o.ok;
  failed += o.failed;
  snapshot_pins += o.snapshot_pins;
  stats.queries += o.stats.queries;
  stats.errors += o.stats.errors;
  stats.rows_scanned += o.stats.rows_scanned;
  stats.cache_hits += o.stats.cache_hits;
  stats.cache_misses += o.stats.cache_misses;
  stats.cache_evictions += o.stats.cache_evictions;
  checked += o.checked;
}

namespace {

/// A read kept to be checked against a quiesced re-read.
struct ReadSample {
  serve::ReadQuery query;
  serve::ReadResult result;
};

std::discrete_distribution<size_t> ZipfWeights(size_t n) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / static_cast<double>(i + 1);
  return std::discrete_distribution<size_t>(w.begin(), w.end());
}

uint64_t SnapshotPins(DvsEngine& engine) {
  return CatalogStat(engine, &StorageStats::snapshot_pins);
}

/// One closed-loop client: draws a query, times its Execute, records it.
/// Targets are drawn Zipf-skewed (weight 1/rank) from a precomputed CDF, so
/// drawing costs O(log targets) and the loop measures the service, not the
/// generator.
class Client {
 public:
  Client(serve::QueryService* service, const std::vector<ReadTarget>* targets,
         const VirtualClock* clock, uint64_t seed)
      : service_(service),
        targets_(targets),
        clock_(clock),
        rng_(seed),
        reservoir_rng_(~seed),
        zipf_(ZipfWeights(targets->size())) {}

  void ReadOnce() {
    const ReadTarget& t = (*targets_)[zipf_(rng_.engine())];
    serve::ReadQuery q;
    q.table = t.id;
    q.read_ts = clock_->Now();
    if (rng_.Bernoulli(0.25)) {
      q.kind = serve::ReadKind::kPointLookup;
      q.key_column = t.key_column;
      q.key = Value::Int(rng_.Uniform(t.key_lo, t.key_hi));
    } else {
      q.kind = serve::ReadKind::kScan;
      q.sum_column = t.sum_column;
    }
    const int64_t t0 = NowNs();
    auto r = service_->Execute(q);
    const int64_t ns = NowNs() - t0;
    if (!r.ok()) {
      log.failed += 1;
      return;
    }
    log.ok += 1;
    const Micros service_us = std::min<Micros>(r.value().latency_us, INT32_MAX);
    const ReadLatency lat{ns, static_cast<int32_t>(service_us),
                          q.kind == serve::ReadKind::kPointLookup};
    if (log.latencies.size() < kLatencyReservoir) {
      log.latencies.push_back(lat);
    } else {
      const uint64_t slot = reservoir_rng_() % log.ok;
      if (slot < kLatencyReservoir) log.latencies[slot] = lat;
    }
    if ((reads_++ & 255) == 0 && samples.size() < 64) {
      samples.push_back({q, r.take()});
    }
  }

  ReadLog log;
  std::vector<ReadSample> samples;

 private:
  serve::QueryService* service_;
  const std::vector<ReadTarget>* targets_;
  const VirtualClock* clock_;
  Rng rng_;
  std::mt19937_64 reservoir_rng_;
  std::discrete_distribution<size_t> zipf_;
  uint64_t reads_ = 0;
};

/// The client's log of one phase, with its samples checked against
/// re-reads at the refresh timestamps they resolved to.
ReadLog Finish(const Client& client, serve::QueryService* service,
               uint64_t pins) {
  ReadLog out;
  out.stats = service->stats();  // before the re-reads below add to it
  out.Merge(client.log);
  out.snapshot_pins = pins;
  Check(!out.latencies.empty(), "a read phase completed no read");
  for (const ReadSample& s : client.samples) {
    serve::ReadQuery q = s.query;
    q.read_ts = s.result.resolved_refresh_ts;
    serve::ReadResult b = Must(service->Execute(q), "oracle re-read");
    const serve::ReadResult& a = s.result;
    Check(a.version == b.version && a.digest == b.digest &&
              a.rows_scanned == b.rows_scanned &&
              a.rows_matched == b.rows_matched && a.sum_i64 == b.sum_i64 &&
              a.sum_f64 == b.sum_f64,
          "a read differs from its quiesced re-read");
    out.checked += 1;
  }
  return out;
}

}  // namespace

ReadLog QuiescedReads(DvsEngine& engine, const VirtualClock& clock,
                      const std::vector<ReadTarget>& targets, uint64_t seed,
                      int reads) {
  Check(!targets.empty(), "no read targets");
  serve::QueryService service(&engine);
  // Warm the serve batch cache with one scan of every target.
  for (const ReadTarget& t : targets) {
    serve::ReadQuery q;
    q.table = t.id;
    q.read_ts = clock.Now();
    q.sum_column = t.sum_column;
    Must(service.Execute(q), "warm-up read");
  }
  const serve::ServeStats warm = service.stats();
  Client client(&service, &targets, &clock, seed);
  const uint64_t pins0 = SnapshotPins(engine);
  for (int i = 0; i < reads; ++i) client.ReadOnce();
  ReadLog out = Finish(client, &service, SnapshotPins(engine) - pins0);
  out.stats.queries -= warm.queries;
  out.stats.rows_scanned -= warm.rows_scanned;
  out.stats.cache_hits -= warm.cache_hits;
  out.stats.cache_misses -= warm.cache_misses;
  out.stats.cache_evictions -= warm.cache_evictions;
  return out;
}

void AddReads(const ReadLog& phase, FastestRepetition* fastest) {
  Check(phase.failed == 0, "a quiesced read failed");
  Check(phase.latencies.size() == phase.ok,
        "a quiesced read phase outgrew its latency reservoir");
  for (const ReadLatency& l : phase.latencies) {
    fastest->Add(static_cast<double>(l.ns));
  }
}

void PoolReads(const Args& args, ReadLog phase, ReadLog* pooled) {
  if (!args.trace) phase.latencies.clear();
  pooled->Merge(phase);
}

void ReportReads(Report* report, const Args& args, const ReadLog& log,
                 const FastestRepetition& fastest) {
  report->Attempted(log.ok + log.failed);
  report->Failed(log.failed);
  Check(log.ok > 0, "no read succeeded");
  report->Meta("reads", static_cast<double>(log.ok));
  report->Meta("samples.read_latency",
               static_cast<double>(log.latencies.size()));
  report->Meta("checked.read_samples", static_cast<double>(log.checked));
  std::vector<int64_t> point_ns, scan_ns, service_us;
  for (const ReadLatency& l : log.latencies) {
    (l.point ? point_ns : scan_ns).push_back(l.ns);
    service_us.push_back(l.service_us);
  }
  if (!args.trace) return;
  const serve::ServeStats& st = log.stats;
  const std::vector<double>& ns = fastest.values();
  double total_ns = 0;
  for (double x : ns) total_ns += x;
  report->Meta("read_repetitions", fastest.repetitions());
  report->Metric("wall.read_p50_us", Median(ns) / 1e3, "us");
  report->Metric("wall.read_p99_us",
                 TailPercentile(ns, 0.99, "wall.read_p99_us") / 1e3, "us");
  report->Metric("wall.read_qps",
                 static_cast<double>(ns.size()) / total_ns * 1e9, "1/s");
  const double reads = static_cast<double>(log.ok + log.failed);
  report->Metric("serve.exec_p50_us", static_cast<double>(Median(service_us)),
                 "us");
  report->Metric("serve.exec_p99_us",
                 static_cast<double>(
                     TailPercentile(service_us, 0.99, "serve.exec_p99_us")),
                 "us");
  report->Metric("serve.scan_p50_us",
                 scan_ns.empty() ? 0 : NsToUs(Median(scan_ns)), "us");
  report->Metric("serve.point_p50_us",
                 point_ns.empty() ? 0 : NsToUs(Median(point_ns)), "us");
  report->Metric("serve.rows_scanned_per_read",
                 Ratio(static_cast<double>(st.rows_scanned),
                       static_cast<double>(st.queries)),
                 "rows");
  report->Metric("storage.snapshot_pins_per_read",
                 Ratio(static_cast<double>(log.snapshot_pins), reads), "count");
  report->Metric("serve.batch_cache_hit_ratio",
                 Ratio(static_cast<double>(st.cache_hits),
                       static_cast<double>(st.cache_hits + st.cache_misses)),
                 "ratio");
  report->Metric("serve.cache_evictions",
                 static_cast<double>(st.cache_evictions), "count");
  report->Metric("serve.resolve_miss_frac",
                 Ratio(static_cast<double>(log.failed), reads), "ratio");
}

// ---- Recovery ----

namespace {

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

}  // namespace

RecoveryTiming MeasureRecovery(const std::string& dir,
                               const std::string& live_fingerprint,
                               Micros live_now, int reps) {
  RecoveryTiming out;
  std::vector<uint64_t> ckpts;
  Must(persist::ScanGenerations(dir, &ckpts, nullptr), "scan " + dir);
  Check(!ckpts.empty(), "no checkpoint in " + dir);
  const uint64_t seq = *std::max_element(ckpts.begin(), ckpts.end());
  const uint64_t bytes = FileBytes(persist::CheckpointPath(dir, seq)) +
                         FileBytes(persist::WalPath(dir, seq));
  out.image_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  for (int rep = 0; rep < reps; ++rep) {
    VirtualClock clock(0);
    const int64_t t0 = NowNs();
    persist::RecoveredSystem sys =
        Must(persist::Recover(dir, &clock), "recover " + dir);
    out.wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    Check(!sys.wal_torn_tail, "recovery found a torn WAL tail");
    if (rep == 0) {
      out.wal_records = sys.wal_records_replayed;
      clock.AdvanceTo(live_now);
      Check(persist::EncodeSystemImage(
                persist::CaptureSystemImage(*sys.engine, &sys.sched)) ==
                live_fingerprint,
            "recovered system image differs from the live one");
    } else {
      Check(sys.wal_records_replayed == out.wal_records,
            "recoveries replayed different WAL record counts");
    }
  }
  return out;
}

void ReportRecovery(Report* report, const Args& args, const RecoveryTiming& r) {
  report->Attempted(r.wall_s.size());
  report->Meta("samples.recover_s", static_cast<double>(r.wall_s.size()));
  report->Deterministic("persist.recover_wal_records", r.wal_records);
  if (!args.trace) {
    report->Metric("recover_image_mb", r.image_mb, "MB");
  } else {
    // Every recovery reads the same image: the fastest is the steadiest.
    report->Metric("wall.recover_s",
                   *std::min_element(r.wall_s.begin(), r.wall_s.end()), "s");
    report->Metric("persist.recover_wal_records",
                   static_cast<double>(r.wal_records), "count");
  }
}

std::string RunDir(const std::string& workload) {
  return (fs::path(".bench_build") / "perfbench-runs" /
          (workload + "-" + std::to_string(getpid())))
      .string();
}

// ---- Traced rounds ----

Tracer::~Tracer() {
  if (scoped_.has_value()) End();
}

void Tracer::Begin() {
  recorder_ = std::make_unique<obs::TraceRecorder>();
  scoped_.emplace(recorder_.get());
  previous_profiling_ = obs::InstallProfiling(true);
}

std::vector<obs::TraceEvent> Tracer::End() {
  obs::InstallProfiling(previous_profiling_);
  scoped_.reset();
  dropped_ += recorder_->dropped();
  std::vector<obs::TraceEvent> events = recorder_->Snapshot();
  recorder_.reset();
  return events;
}

std::string SpanLabel(const obs::TraceEvent& e) {
  return std::string(e.category) + "/" + e.name;
}

std::vector<Span> SpansOnThread(const std::vector<obs::TraceEvent>& ev,
                                uint32_t tid) {
  std::vector<Span> out;
  for (const obs::TraceEvent& e : ev) {
    if (e.tid == tid) out.push_back({SpanLabel(e), e.start_us, e.dur_us});
  }
  return out;
}

const obs::TraceEvent* FindBenchSpan(const std::vector<obs::TraceEvent>& events,
                                     const char* name) {
  const obs::TraceEvent* found = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.category) == "perfbench" &&
        std::string_view(e.name) == name) {
      Check(found == nullptr, std::string("two perfbench/") + name + " spans");
      found = &e;
    }
  }
  return found;
}

// ---- REFRESH_PROFILE ----

std::vector<ProfileOp> LatestProfile(DvsEngine& engine, const std::string& dt) {
  QueryResult qr = Must(
      engine.Query("SELECT operator, rows_out, join_build_hits, "
                   "join_build_misses, join_probe_hits, join_probe_misses, "
                   "batch_cache_hits, batch_cache_misses, vector_bails, "
                   "row_redos, wall_ns FROM refresh_profile('" +
                   dt + "', 1)"),
      "refresh_profile(" + dt + ")");
  std::vector<ProfileOp> ops;
  for (const Row& row : qr.rows) {
    ProfileOp op;
    const std::string& text = row[0].string_value();
    const size_t indent = text.find_first_not_of(' ');
    op.depth = static_cast<int>(indent == std::string::npos ? 0 : indent / 2);
    op.label = text.substr(indent == std::string::npos ? 0 : indent);
    op.kind = op.label.substr(0, op.label.find(' '));
    auto u = [&](size_t i) {
      return static_cast<uint64_t>(row[i].int_value());
    };
    op.rows_out = u(1);
    op.join_hits = u(2) + u(4);
    op.join_misses = u(3) + u(5);
    op.batch_cache_hits = u(6);
    op.batch_cache_misses = u(7);
    op.vector_bails = u(8);
    op.row_redos = u(9);
    op.wall_ns = row[10].int_value();
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    int64_t children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth; ++j) {
      if (ops[j].depth == ops[i].depth + 1) children += ops[j].wall_ns;
    }
    ops[i].self_ns = std::max<int64_t>(0, ops[i].wall_ns - children);
  }
  Check(!ops.empty(), "no retained profile for " + dt);
  return ops;
}

int64_t ProfileRootWallNs(const std::vector<ProfileOp>& ops) {
  int64_t wall = 0;
  for (const ProfileOp& op : ops) {
    if (op.depth == 0) wall += op.wall_ns;
  }
  return wall;
}

}  // namespace perfbench
