// E10 — §3.3.3 skip semantics: when refreshes exceed their allotted time,
// later refreshes are skipped rather than queued; the refresh after a skip
// covers the whole skipped interval, shedding the skipped refreshes' fixed
// costs — "this property allows DTs to gracefully increase their rate of
// progress as they fall further behind".
//
// An under-provisioned warehouse processes a steady stream; we show (a)
// skips occur, (b) the post-skip refresh interval (data-timestamp advance)
// grows, (c) DVS holds throughout, and (d) total fixed cost paid is lower
// than it would have been without skipping.

#include "bench_util.h"
#include "sched/scheduler.h"

using namespace dvs;

int main() {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  SchedulerOptions opts;
  opts.cost_model.fixed_cost = 10 * kMicrosPerSecond;
  opts.cost_model.cost_per_krow = 3000 * kMicrosPerSecond;  // starved
  Scheduler sched(&engine, &clock, opts);
  Rng rng(11);

  bench::Run(engine, "CREATE TABLE src (k INT, v INT)");
  bench::Run(engine,
             "CREATE DYNAMIC TABLE dt TARGET_LAG = '2 minutes' "
             "WAREHOUSE = tiny_wh INITIALIZE = ON_SCHEDULE "
             "AS SELECT k % 20 AS bucket, count(*) AS n, sum(v) AS sv "
             "FROM src GROUP BY ALL");

  int key = 0;
  const Micros kHorizon = 90 * kMicrosPerMinute;
  for (Micros t = kMicrosPerMinute; t <= kHorizon; t += kMicrosPerMinute) {
    for (int i = 0; i < 4; ++i) {
      bench::Run(engine, "INSERT INTO src VALUES (" + std::to_string(key++) +
                         ", " + std::to_string(rng.Uniform(0, 99)) + ")");
    }
    sched.RunUntil(t);
  }

  int skips = 0, committed = 0;
  std::vector<Micros> intervals;  // data-timestamp advance per refresh
  Micros prev_ts = -1;
  int max_consecutive_skips = 0, run = 0;
  for (const RefreshRecord& r : sched.log()) {
    if (r.dt_name != "dt") continue;
    if (r.skipped) {
      ++skips;
      run += 1;
      max_consecutive_skips = std::max(max_consecutive_skips, run);
      continue;
    }
    if (r.failed) continue;
    run = 0;
    ++committed;
    if (prev_ts >= 0) intervals.push_back(r.data_timestamp - prev_ts);
    prev_ts = r.data_timestamp;
  }

  std::printf("E10 — skip & catch-up under an under-provisioned warehouse\n\n");
  std::printf("committed refreshes: %d\nskipped refreshes:   %d\n",
              committed, skips);
  std::printf("max consecutive skips: %d\n", max_consecutive_skips);

  Micros base_period = sched.RefreshPeriod(engine.ObjectIdOf("dt").value());
  int widened = 0;
  for (Micros i : intervals) {
    if (i > base_period) ++widened;
  }
  std::printf("scheduling period: %s; refreshes covering a wider interval "
              "(post-skip catch-up): %d of %zu\n",
              FormatDuration(base_period).c_str(), widened, intervals.size());

  // Fixed cost shed: every skipped refresh would have paid the fixed cost.
  Micros shed = static_cast<Micros>(skips) * opts.cost_model.fixed_cost;
  std::printf("fixed cost shed by skipping: %s\n\n",
              FormatDuration(shed).c_str());

  // DVS must survive the skipping (a skip "does not compromise on
  // delayed-view semantics").
  const auto& meta = *engine.catalog().Find("dt").value()->dt;
  bool dvs_ok = false;
  if (meta.initialized) {
    auto expected = engine.QueryAsOf(meta.def.sql, meta.data_timestamp);
    auto actual = engine.Query("SELECT * FROM dt");
    dvs_ok = expected.ok() && actual.ok() &&
             expected.value().size() == actual.value().rows.size();
  }

  bench::Check(skips > 5, "skips occur when refreshes overrun the period");
  bench::Check(widened > 0,
               "post-skip refreshes cover the skipped interval (wider data-"
               "timestamp advance)");
  bench::Check(shed > 0, "skipping sheds the skipped refreshes' fixed costs");
  bench::Check(dvs_ok, "delayed view semantics uncompromised by skips");
  return bench::Finish();
}
