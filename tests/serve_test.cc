// Tests for serve/: the concurrent snapshot-read front end. The §5 contract
// under test — a DT read resolves to the latest committed refresh at or
// before its timestamp and is byte-identical to a quiesced re-read of the
// same resolved version — must hold while refreshes are committing, while
// the batch cache is serving converted partitions, and after retention
// prunes versions a reader still has pinned. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "serve/query_service.h"
#include "storage/batch_scan.h"

namespace dvs {
namespace {

void Exec(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
}

RefreshOutcome MustRefresh(DvsEngine& engine, const std::string& dt,
                           Micros ts) {
  auto r = engine.refresh_engine().Refresh(engine.ObjectIdOf(dt).value(), ts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(ServeTest, ReadResolutionRule) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE src (k INT, v INT)");
  Exec(engine, "INSERT INTO src VALUES (1, 10), (2, 20)");
  Exec(engine,
       "CREATE DYNAMIC TABLE dt TARGET_LAG = '10 seconds' WAREHOUSE = wh "
       "INITIALIZE = ON_SCHEDULE AS SELECT k, v FROM src");
  const ObjectId dt = engine.ObjectIdOf("dt").value();

  clock.AdvanceTo(10 * kMicrosPerSecond);
  MustRefresh(engine, "dt", clock.Now());
  Exec(engine, "INSERT INTO src VALUES (3, 30)");
  clock.AdvanceTo(20 * kMicrosPerSecond);
  MustRefresh(engine, "dt", clock.Now());

  serve::QueryService service(&engine);
  serve::ReadQuery q;
  q.table = dt;
  q.kind = serve::ReadKind::kScan;

  // Before the first refresh: nothing servable.
  q.read_ts = 9 * kMicrosPerSecond;
  auto before = service.Execute(q);
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.status().code(), StatusCode::kFailedPrecondition);

  // Between the refreshes: resolves to the t=10s refresh (2 rows), even
  // though src already holds the third row.
  q.read_ts = 15 * kMicrosPerSecond;
  auto mid = service.Execute(q);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid.value().resolved_refresh_ts, 10 * kMicrosPerSecond);
  EXPECT_EQ(mid.value().rows_scanned, 2u);

  // After both: resolves to the t=20s refresh (3 rows).
  q.read_ts = 25 * kMicrosPerSecond;
  auto after = service.Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().resolved_refresh_ts, 20 * kMicrosPerSecond);
  EXPECT_EQ(after.value().rows_scanned, 3u);
  EXPECT_NE(after.value().digest, mid.value().digest);
}

TEST(ServeTest, PointLookupMaterializesMatches) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (k INT, name STRING)");
  Exec(engine, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (2, 'c')");
  clock.AdvanceTo(kMicrosPerSecond);

  serve::QueryService service(&engine);
  serve::ReadQuery q;
  q.table = engine.ObjectIdOf("t").value();
  q.read_ts = clock.Now();
  q.kind = serve::ReadKind::kPointLookup;
  q.key_column = 0;
  q.key = Value::Int(2);
  auto r = service.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows_scanned, 3u);
  EXPECT_EQ(r.value().rows_matched, 2u);
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_EQ(r.value().rows[0][1].string_value(), "b");
  EXPECT_EQ(r.value().rows[1][1].string_value(), "c");

  // String-key lookup through the string-lane fast path.
  q.key_column = 1;
  q.key = Value::String("a");
  auto s = service.Execute(q);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().rows_matched, 1u);
  EXPECT_EQ(s.value().rows[0][0].int_value(), 1);
}

// The tentpole invariant: readers scanning *while* refreshes commit get
// results byte-identical to a quiesced re-read at the refresh timestamp
// their read resolved to.
TEST(ServeTest, ConcurrentReadsMatchQuiescedOracle) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE src (k INT, v INT)");
  Exec(engine, "INSERT INTO src VALUES (0, 0)");
  Exec(engine,
       "CREATE DYNAMIC TABLE dt TARGET_LAG = '1 seconds' WAREHOUSE = wh "
       "INITIALIZE = ON_SCHEDULE AS SELECT k, v * 2 AS v2 FROM src");
  const ObjectId dt = engine.ObjectIdOf("dt").value();
  clock.AdvanceTo(kMicrosPerSecond);
  MustRefresh(engine, "dt", clock.Now());

  serve::QueryService service(&engine);
  std::atomic<bool> stop{false};
  struct Sample {
    Micros resolved = 0;
    uint64_t digest = 0;
    uint64_t rows = 0;
    int64_t sum = 0;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<uint64_t> total_samples{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      serve::ReadQuery q;
      q.table = dt;
      q.kind = serve::ReadKind::kScan;
      q.sum_column = 1;
      while (!stop.load(std::memory_order_acquire)) {
        q.read_ts = clock.Now();
        auto r = service.Execute(q);
        if (!r.ok()) continue;  // only pre-first-refresh misses are possible
        if (samples[t].size() < 256) {
          samples[t].push_back({r.value().resolved_refresh_ts,
                                r.value().digest, r.value().rows_scanned,
                                r.value().sum_i64});
          total_samples.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: 60 insert+refresh commits while the readers run. The brief
  // sleep keeps commits interleaving with reads instead of finishing before
  // the reader threads are scheduled at all.
  for (int round = 1; round <= 60; ++round) {
    Exec(engine, "INSERT INTO src VALUES (" + std::to_string(round) + ", " +
                     std::to_string(round * 7) + ")");
    clock.Advance(kMicrosPerSecond);
    MustRefresh(engine, "dt", clock.Now());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Let the readers record a healthy sample set before stopping (bounded
  // wait so a wedged reader fails the test instead of hanging it).
  for (int spin = 0; spin < 5000; ++spin) {
    if (total_samples.load(std::memory_order_relaxed) >= 32) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Quiesced oracle: every sampled read must reproduce exactly at its
  // resolved refresh timestamp.
  serve::ReadQuery q;
  q.table = dt;
  q.kind = serve::ReadKind::kScan;
  q.sum_column = 1;
  size_t checked = 0;
  for (const auto& per_thread : samples) {
    for (const Sample& s : per_thread) {
      q.read_ts = s.resolved;
      auto r = service.Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value().resolved_refresh_ts, s.resolved);
      EXPECT_EQ(r.value().digest, s.digest);
      EXPECT_EQ(r.value().rows_scanned, s.rows);
      EXPECT_EQ(r.value().sum_i64, s.sum);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ServeTest, AdmissionBoundsConcurrentReaders) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (k INT, v INT)");
  for (int i = 0; i < 20; ++i) {
    Exec(engine, "INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
  }
  clock.AdvanceTo(kMicrosPerSecond);

  serve::ServeOptions opts;
  opts.max_concurrent_readers = 2;
  serve::QueryService service(&engine, opts);
  const ObjectId t_id = engine.ObjectIdOf("t").value();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      serve::ReadQuery q;
      q.table = t_id;
      q.read_ts = clock.Now();
      for (int i = 0; i < 50; ++i) {
        auto r = service.Execute(q);
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  const serve::ServeStats stats = service.stats();
  EXPECT_EQ(stats.queries, 400u);
  EXPECT_GE(stats.admission_peak, 1);
  EXPECT_LE(stats.admission_peak, 2);
}

// A reader's pinned snapshot survives retention pruning the version out of
// the table; a *new* snapshot of the pruned version fails cleanly.
TEST(ServeTest, SnapshotSurvivesPrune) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (k INT, v INT)");
  Exec(engine, "INSERT INTO t VALUES (1, 1)");
  Exec(engine, "INSERT INTO t VALUES (2, 2)");
  Exec(engine, "INSERT INTO t VALUES (3, 3)");

  VersionedTable* storage =
      engine.catalog().Find("t").value()->storage.get();
  const VersionId old_version = storage->latest_version() - 1;  // 2 rows
  auto pinned = storage->SnapshotVersion(old_version);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned.value().row_count, 2u);

  storage->PruneVersionsBefore(storage->latest_version());
  EXPECT_GT(storage->first_version(), old_version);

  // The pruned version is gone for new snapshots...
  auto gone = storage->SnapshotVersion(old_version);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);

  // ...but the pinned partitions are still fully readable.
  size_t rows = 0;
  for (const auto& part : pinned.value().partitions) {
    for (const BatchPtr& batch : PartitionToBatches(*part)) {
      rows += batch->rows;
    }
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_GE(storage->stats().snapshot_pins.load(), 1u);
}

TEST(ServeTest, BatchCacheServesIdenticalBytes) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (k INT, v INT)");
  Exec(engine, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  clock.AdvanceTo(kMicrosPerSecond);

  serve::QueryService service(&engine);
  serve::ReadQuery q;
  q.table = engine.ObjectIdOf("t").value();
  q.read_ts = clock.Now();
  q.sum_column = 1;
  auto first = service.Execute(q);
  auto second = service.Execute(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().digest, second.value().digest);
  EXPECT_EQ(first.value().sum_i64, 60);
  EXPECT_EQ(second.value().sum_i64, 60);
  const serve::ServeStats stats = service.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);

  // Capacity 0 disables the cache but serves the same bytes.
  serve::ServeOptions no_cache;
  no_cache.batch_cache_capacity = 0;
  serve::QueryService uncached(&engine, no_cache);
  auto third = uncached.Execute(q);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().digest, first.value().digest);
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
}

TEST(ServeTest, ReadLatenciesScrapeThroughRegistry) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (k INT, v INT)");
  Exec(engine, "INSERT INTO t VALUES (1, 10), (2, 20)");
  clock.AdvanceTo(kMicrosPerSecond);

  obs::Registry reg;
  serve::ServeOptions opts;
  opts.metrics = &reg;
  {
    serve::QueryService service(&engine, opts);
    serve::ReadQuery q;
    q.table = engine.ObjectIdOf("t").value();
    q.read_ts = clock.Now();
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Execute(q).ok());
    q.kind = serve::ReadKind::kPointLookup;
    q.key_column = 0;
    q.key = Value::Int(2);
    ASSERT_TRUE(service.Execute(q).ok());
    q.table = kInvalidObjectId;  // fails, and records no latency
    ASSERT_FALSE(service.Execute(q).ok());

    EXPECT_EQ(service.scan_latency().count(), 3u);
    EXPECT_EQ(service.point_latency().count(), 1u);
    // The registry callbacks scrape the same member histograms.
    const obs::MetricsSnapshot snap = reg.Snapshot();
    for (const auto& [name, h] :
         {std::pair{"serve.scan_latency_us", &service.scan_latency()},
          std::pair{"serve.point_latency_us", &service.point_latency()}}) {
      const obs::MetricSample* s = snap.Find(name);
      ASSERT_NE(s, nullptr) << name;
      EXPECT_EQ(s->kind, obs::MetricKind::kHistogram);
      const obs::HistogramData d = h->Export();
      EXPECT_EQ(s->histogram.count, d.count) << name;
      EXPECT_EQ(s->histogram.sum, d.sum) << name;
      EXPECT_EQ(s->histogram.max, d.max) << name;
    }
  }
  // The service unregisters its callbacks when it dies.
  EXPECT_EQ(reg.Snapshot().Find("serve.scan_latency_us"), nullptr);
}

}  // namespace
}  // namespace dvs
