// Shared machinery of the repository benchmark: argument and result
// handling, failure policy, the closed-loop reader used by every workload's
// read phase, recovery timing, and the helpers that turn the program's own
// trace spans and REFRESH_PROFILE rows into per-layer numbers.
//
// The benchmark drives only the engine's public entry points. Every number
// it reports is measured here, around those calls, or read from what the
// program already exposes (trace spans, REFRESH_PROFILE, StorageStats,
// registry counters, ServeStats).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dt/engine.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "stats.h"

namespace perfbench {

using dvs::Micros;
using dvs::ObjectId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Steady-clock nanoseconds.
int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

/// A failed correctness check or a failed set-up step: thrown, caught in
/// main, and turned into a non-zero exit with no result line.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void Check(bool cond, const std::string& what);

template <typename T>
T Must(dvs::Result<T> r, const std::string& what) {
  if (!r.ok()) throw CheckFailure(what + ": " + r.status().ToString());
  return r.take();
}
void Must(const dvs::Status& s, const std::string& what);

/// Runs one SQL statement, failing the run on error.
dvs::QueryResult Sql(dvs::DvsEngine& engine, const std::string& sql);

/// Whether a run that started at `start_ns` and has made `done`
/// repetitions makes another: at least `min_repetitions`, then until
/// --seconds have passed. Every repetition does the same work, so the
/// deterministic counts of a repetition repeat exactly however fast the
/// host is; only the number of repetitions follows its speed.
bool MoreRepetitions(const Args& args, int64_t start_ns, int done,
                     int min_repetitions);

/// Everything a run reports. Metrics are emitted in the mode they belong to
/// (end-to-end with --trace 0, per-layer with --trace 1); run.py checks the
/// names against BENCHMARK.json.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// A count that must repeat exactly in every run of the same seed and
  /// arguments (run.py compares it across runs).
  void Deterministic(const std::string& key, uint64_t value);
  /// Per-layer metrics this workload does not exercise; run.py reports
  /// them as 0 in the unit BENCHMARK.json gives them.
  void NotMeasured(std::initializer_list<const char*> names);
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  /// Prints the meta and determinism lines, then the result line last.
  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> meta_;  // JSON-encoded values
  std::map<std::string, uint64_t> deterministic_;
  std::vector<std::string> not_measured_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Sum of one StorageStats counter over every stored object in the catalog.
uint64_t CatalogStat(dvs::DvsEngine& engine,
                     const dvs::obs::Counter dvs::StorageStats::*field);

/// The fastest of a run's set-ups, reported as setup_s with the sample count:
/// every repetition sets up identically, so, as for every other timing, the
/// host only adds time to the others.
void ReportSetup(Report* report, const Args& args,
                 const std::vector<double>& setup_s);

// ---- Reads ----

/// A servable read target: point lookups match `key_column` against an
/// integer in [key_lo, key_hi]; scans sum `sum_column`.
struct ReadTarget {
  ObjectId id = dvs::kInvalidObjectId;
  int key_column = 0;
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  int sum_column = 1;
};

/// One successful read's latency.
struct ReadLatency {
  int64_t ns = 0;          ///< Benchmark-timed Execute call.
  int32_t service_us = 0;  ///< The service's own ReadResult::latency_us.
  bool point = false;      ///< Point lookup, else scan.
};

/// Reads made by a closed-loop client, pooled over phases.
struct ReadLog {
  /// A uniform sample of each phase's successful reads: every read until
  /// the phase has recorded kLatencyReservoir, then reservoir sampling, so
  /// memory stays bounded however fast the service is.
  std::vector<ReadLatency> latencies;
  uint64_t ok = 0;
  uint64_t failed = 0;  ///< Errors, resolution misses included.
  uint64_t snapshot_pins = 0;
  dvs::serve::ServeStats stats;  ///< Summed over the phases' services.
  uint64_t checked = 0;          ///< Reads compared with a re-read.

  void Merge(const ReadLog& other);
};

/// Latencies a client keeps per phase (see ReadLog::latencies).
inline constexpr size_t kLatencyReservoir = size_t{1} << 15;

/// `reads` reads from one closed-loop client calling QueryService::Execute
/// back to back (Zipf-skewed targets, 25% point lookups, 75% scans, at the
/// clock's current time) with nothing else running, after one warm-up scan
/// of every target. The work is fixed by the seed. Sampled reads are then
/// checked against a re-read at the refresh timestamp they resolved to.
ReadLog QuiescedReads(dvs::DvsEngine& engine, const dvs::VirtualClock& clock,
                      const std::vector<ReadTarget>& targets, uint64_t seed,
                      int reads);

/// Adds a quiesced read phase to `fastest`, one operation per read in the
/// order they were made. Phases that replay the same seed on the same state
/// make the same reads; a failed read fails the run, since it would shift
/// the sequence.
void AddReads(const ReadLog& phase, FastestRepetition* fastest);

/// Pools a read phase into `pooled`. Its latencies are kept only in traced
/// runs, which split them per layer, so that an untraced run's memory does
/// not grow with its number of repetitions (which follows the host's speed).
void PoolReads(const Args& args, ReadLog phase, ReadLog* pooled);

/// Counts attempts and failures and, traced, reports the wall.read_*
/// timings (over the fastest repetition of each read in `fastest`) and
/// serve.* (over every read in `log`).
void ReportReads(Report* report, const Args& args, const ReadLog& log,
                 const FastestRepetition& fastest);

// ---- Recovery ----

struct RecoveryTiming {
  std::vector<double> wall_s;
  uint64_t wal_records = 0;
  double image_mb = 0;  ///< Checkpoint + WAL bytes recovery reads.
};

/// Recovers `dir` `reps` times. The first recovery's CaptureSystemImage
/// fingerprint must equal `live_fingerprint` (captured at `live_now`), and
/// every recovery must replay the same number of WAL records.
RecoveryTiming MeasureRecovery(const std::string& dir,
                               const std::string& live_fingerprint,
                               Micros live_now, int reps);

/// Reports recover_image_mb (end-to-end) or, traced, wall.recover_s (the
/// fastest recovery, since every one reads the same image) and
/// persist.recover_wal_records.
void ReportRecovery(Report* report, const Args& args, const RecoveryTiming& r);

/// Scratch directory for persistence files, inside the working directory.
std::string RunDir(const std::string& workload);

// ---- Traced rounds ----

/// Arms tracing and refresh profiling round by round, with a fresh bounded
/// recorder per round so one long run cannot fill a single recorder.
class Tracer {
 public:
  Tracer() = default;
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin();
  /// Disarms and returns the round's events.
  std::vector<dvs::obs::TraceEvent> End();
  /// Events dropped at capacity, over every round so far.
  uint64_t dropped() const { return dropped_; }

 private:
  std::unique_ptr<dvs::obs::TraceRecorder> recorder_;
  std::optional<dvs::obs::ScopedTraceRecorder> scoped_;
  bool previous_profiling_ = false;
  uint64_t dropped_ = 0;
};

/// "category/name" of an event, the label SplitSpan charges.
std::string SpanLabel(const dvs::obs::TraceEvent& e);

/// Events on `tid` as Spans.
std::vector<Span> SpansOnThread(const std::vector<dvs::obs::TraceEvent>& ev,
                                uint32_t tid);

/// The benchmark-side span named `name` in the "perfbench" category, if the
/// round recorded exactly one.
const dvs::obs::TraceEvent* FindBenchSpan(
    const std::vector<dvs::obs::TraceEvent>& events, const char* name);

// ---- REFRESH_PROFILE ----

/// One operator row of a REFRESH_PROFILE result.
struct ProfileOp {
  int depth = 0;
  std::string label;
  std::string kind;  ///< First word of the label: Scan, Join, Aggregate...
  uint64_t rows_out = 0;
  uint64_t join_hits = 0;
  uint64_t join_misses = 0;
  uint64_t batch_cache_hits = 0;
  uint64_t batch_cache_misses = 0;
  uint64_t vector_bails = 0;
  uint64_t row_redos = 0;
  int64_t wall_ns = 0;
  int64_t self_ns = 0;  ///< wall minus the direct children's wall.
};

/// The operators of `dt`'s latest retained profile, in plan pre-order,
/// read through SQL. Requires the introspection provider on the engine.
std::vector<ProfileOp> LatestProfile(dvs::DvsEngine& engine,
                                     const std::string& dt);

/// Wall of the profile's root operators (depth 0).
int64_t ProfileRootWallNs(const std::vector<ProfileOp>& ops);

// ---- Workloads ----

void RunStarRefresh(const Args& args, Report* report);
void RunFleetTick(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
