// Serialization round-trip tests for every persisted struct (persist/):
// primitive codecs (including varint edge cases and the non-canonical
// encodings the decoder rejects), values/rows/change sets, WAL record
// payloads, the system image, the framed record file (including torn-tail,
// corruption and version behavior), and hostile payloads whose inflated
// counts must come back as a Status, never as an exception.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "persist/format.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace dvs {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / ("dvs_format_test_" + name)).string();
}

TEST(EncoderTest, PrimitivesRoundTrip) {
  Encoder e;
  e.U8(200);
  e.Bool(true);
  e.U32(0xDEADBEEF);
  e.U64(0x1234567890ABCDEFull);
  e.I64(-42);
  e.I32(-7);
  e.F64(3.25);
  e.Str("hello");
  e.Str("");

  Decoder d(e.buf());
  EXPECT_EQ(d.U8(), 200);
  EXPECT_TRUE(d.Bool());
  EXPECT_EQ(d.U32(), 0xDEADBEEFu);
  EXPECT_EQ(d.U64(), 0x1234567890ABCDEFull);
  EXPECT_EQ(d.I64(), -42);
  EXPECT_EQ(d.I32(), -7);
  EXPECT_EQ(d.F64(), 3.25);
  EXPECT_EQ(d.Str(), "hello");
  EXPECT_EQ(d.Str(), "");
  EXPECT_TRUE(d.done());
}

TEST(EncoderTest, DecoderLatchesOnUnderflow) {
  Encoder e;
  e.U32(7);
  Decoder d(e.buf());
  EXPECT_EQ(d.U32(), 7u);
  EXPECT_EQ(d.U64(), 0u);  // underflow
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(d.status().ok());
}

TEST(VarintTest, EdgeValuesRoundTripAtTheirSizes) {
  const uint64_t u64s[] = {0, 127, 128, (uint64_t{1} << 32) - 1,
                           uint64_t{1} << 63,
                           std::numeric_limits<uint64_t>::max()};
  const size_t u64_sizes[] = {1, 1, 2, 5, 10, 10};
  for (size_t i = 0; i < std::size(u64s); ++i) {
    Encoder e;
    e.U64(u64s[i]);
    EXPECT_EQ(e.buf().size(), u64_sizes[i]) << u64s[i];
    Decoder d(e.buf());
    EXPECT_EQ(d.U64(), u64s[i]);
    EXPECT_TRUE(d.done()) << u64s[i];
  }
  const int64_t i64s[] = {0, -1, 1, -64, 64,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  const size_t i64_sizes[] = {1, 1, 1, 1, 2, 10, 10};
  for (size_t i = 0; i < std::size(i64s); ++i) {
    Encoder e;
    e.I64(i64s[i]);
    EXPECT_EQ(e.buf().size(), i64_sizes[i]) << i64s[i];
    Decoder d(e.buf());
    EXPECT_EQ(d.I64(), i64s[i]);
    EXPECT_TRUE(d.done()) << i64s[i];
  }
  Encoder e;
  e.U32(std::numeric_limits<uint32_t>::max());
  e.I32(std::numeric_limits<int32_t>::min());
  e.I32(std::numeric_limits<int32_t>::max());
  Decoder d(e.buf());
  EXPECT_EQ(d.U32(), std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(d.I32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(d.I32(), std::numeric_limits<int32_t>::max());
  EXPECT_TRUE(d.done());
}

/// Decodes `bytes` as one U64 and reports whether the decoder accepted it.
bool U64Accepted(const std::string& bytes) {
  Decoder d(bytes);
  d.U64();
  return d.ok();
}

TEST(VarintTest, MalformedEncodingsLatchFailure) {
  // Truncated at the end of the payload: a continuation bit with nothing
  // after it.
  Encoder e;
  e.U64(uint64_t{1} << 40);
  std::string cut = e.buf().substr(0, e.buf().size() - 1);
  EXPECT_FALSE(U64Accepted(cut));
  EXPECT_FALSE(U64Accepted(std::string("\x80", 1)));
  EXPECT_FALSE(U64Accepted(""));
  // Eleven bytes: ten continuation bytes, then a terminator.
  EXPECT_FALSE(U64Accepted(std::string(10, '\x80') + '\x01'));
  // A tenth byte carrying bits past 64.
  EXPECT_FALSE(U64Accepted(std::string(9, '\xFF') + '\x02'));
  EXPECT_TRUE(U64Accepted(std::string(9, '\xFF') + '\x01'));
  // Overlong: a multi-byte encoding whose last byte is zero.
  EXPECT_FALSE(U64Accepted(std::string("\x80\x00", 2)));
  EXPECT_FALSE(U64Accepted(std::string("\xFF\x00", 2)));
  EXPECT_FALSE(U64Accepted(std::string(9, '\x80') + '\x00'));
  EXPECT_TRUE(U64Accepted(std::string("\x00", 1)));

  // A latched failure returns zeros and reports Corruption.
  const std::string overlong("\x80\x00\x05", 3);
  Decoder d(overlong);
  EXPECT_EQ(d.U64(), 0u);
  EXPECT_EQ(d.U64(), 0u);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
}

TEST(VarintTest, OutOfRangeNarrowFieldsLatchFailure) {
  {
    Encoder e;
    e.U64(uint64_t{1} << 32);
    Decoder d(e.buf());
    EXPECT_EQ(d.U32(), 0u);
    EXPECT_FALSE(d.ok());
  }
  for (int64_t v : {int64_t{std::numeric_limits<int32_t>::max()} + 1,
                    int64_t{std::numeric_limits<int32_t>::min()} - 1,
                    std::numeric_limits<int64_t>::min()}) {
    Encoder e;
    e.I64(v);
    Decoder d(e.buf());
    EXPECT_EQ(d.I32(), 0) << v;
    EXPECT_FALSE(d.ok()) << v;
  }
}

TEST(EncoderTest, Crc32ChainsOverPieces) {
  const std::string whole = "\x07payload bytes";
  EXPECT_EQ(Crc32(whole.data() + 1, whole.size() - 1, Crc32(whole.data(), 1)),
            Crc32(whole.data(), whole.size()));
}

TEST(EncoderTest, ValuesRoundTrip) {
  Row row = {Value::Null(),
             Value::Bool(false),
             Value::Int(-123456789),
             Value::Double(2.5),
             Value::String("snowflake"),
             Value::Timestamp(987654321),
             Value::MakeArray({Value::Int(1), Value::String("x"),
                               Value::MakeArray({Value::Null()})})};
  Encoder e;
  e.EncodeRow(row);
  Decoder d(e.buf());
  Row back = d.DecodeRow();
  ASSERT_TRUE(d.done());
  EXPECT_TRUE(RowsEqual(row, back));
  EXPECT_EQ(back[6].array_value().size(), 3u);
}

TEST(EncoderTest, ChangeSetAndSchemaRoundTrip) {
  ChangeSet cs = {{ChangeAction::kInsert, 7, {Value::Int(1)}},
                  {ChangeAction::kDelete, 9, {Value::String("gone")}}};
  Schema schema;
  schema.AddColumn("k", DataType::kInt64);
  schema.AddColumn("v", DataType::kString);

  Encoder e;
  e.EncodeChangeSet(cs);
  e.EncodeSchema(schema);
  Decoder d(e.buf());
  ChangeSet cs2 = d.DecodeChangeSet();
  Schema schema2 = d.DecodeSchema();
  ASSERT_TRUE(d.done());
  ASSERT_EQ(cs2.size(), 2u);
  EXPECT_EQ(cs2[0].action, ChangeAction::kInsert);
  EXPECT_EQ(cs2[1].row_id, 9u);
  EXPECT_TRUE(RowsEqual(cs2[1].values, cs[1].values));
  EXPECT_EQ(schema2, schema);
}

TEST(EncoderTest, TableVersionRoundTrip) {
  TableVersion v;
  v.id = 17;
  v.commit_ts = {12345, 3};
  v.live = {1, 4, 9};
  v.added = {9};
  v.removed = {2};
  v.row_count = 4096;
  v.data_equivalent = true;

  Encoder e;
  e.EncodeTableVersion(v);
  Decoder d(e.buf());
  TableVersion v2 = d.DecodeTableVersion();
  ASSERT_TRUE(d.done());
  EXPECT_EQ(v2.id, v.id);
  EXPECT_EQ(v2.commit_ts, v.commit_ts);
  EXPECT_EQ(v2.live, v.live);
  EXPECT_EQ(v2.added, v.added);
  EXPECT_EQ(v2.removed, v.removed);
  EXPECT_EQ(v2.row_count, v.row_count);
  EXPECT_TRUE(v2.data_equivalent);
}

// ---- Hostile payloads: CRC-valid bytes whose counts claim more elements
// than the payload holds. Each decoder must latch a failure; reserving the
// claimed count would throw std::bad_alloc (or trip the sanitizer's
// allocation limit) instead.

constexpr uint32_t kInflatedCount = 0xFFFFFFF0u;

TEST(HostileCountTest, DecodeRowFailsWithoutThrowing) {
  Encoder e;
  e.U32(kInflatedCount);
  e.Val(Value::Int(1));
  Decoder d(e.buf());
  Row r;
  EXPECT_NO_THROW(r = d.DecodeRow());
  EXPECT_FALSE(d.ok());
  EXPECT_LE(r.capacity(), e.buf().size());
}

TEST(HostileCountTest, DecodeIdRowsFailsWithoutThrowing) {
  Encoder e;
  e.U32(kInflatedCount);
  e.EncodeIdRow({5, {Value::Int(1)}});
  Decoder d(e.buf());
  std::vector<IdRow> rows;
  EXPECT_NO_THROW(rows = d.DecodeIdRows());
  EXPECT_FALSE(d.ok());
  EXPECT_LE(rows.capacity(), e.buf().size());
}

TEST(HostileCountTest, DecodeChangeSetFailsWithoutThrowing) {
  Encoder e;
  e.U32(kInflatedCount);
  e.EncodeChangeRow({ChangeAction::kInsert, 5, {Value::Int(1)}});
  Decoder d(e.buf());
  ChangeSet cs;
  EXPECT_NO_THROW(cs = d.DecodeChangeSet());
  EXPECT_FALSE(d.ok());
  EXPECT_LE(cs.capacity(), e.buf().size());
}

TEST(HostileCountTest, WalDecodersReturnCorruption) {
  // A commit record whose one table carries an inflated change count.
  Encoder commit;
  commit.U32(1);
  commit.U64(3);
  commit.U64(100);
  commit.U32(kInflatedCount);
  auto c = DecodeCommit(commit.buf());
  EXPECT_EQ(c.status().code(), StatusCode::kCorruption);

  // A refresh record whose overwrite rows carry an inflated count.
  Encoder refresh;
  refresh.U64(9);
  refresh.I64(96);
  refresh.U8(3);
  refresh.U8(0);
  refresh.Hlc({96, 0});
  refresh.U32(kInflatedCount);
  auto r = DecodeRefresh(refresh.buf());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(HostileCountTest, CheckpointWithInflatedPartitionReturnsCorruption) {
  // A system image with one table whose only partition claims 0xFFFFFFF0
  // rows — laid out field by field as EncodeSystemImage writes it.
  Encoder e;
  e.Hlc({1000, 0});
  e.I64(1000);         // clock_now
  e.U32(1);            // objects
  e.U64(1);            // object id
  e.Str("t");
  e.U8(0);             // kind
  e.Bool(false);       // dropped
  e.I64(0);            // min_data_retention
  e.Bool(true);        // has_storage
  e.EncodeSchema({});  // table schema
  e.U64(4096);         // max_partition_rows
  e.U64(1);            // first_version
  e.U32(0);            // versions
  e.U32(1);            // partitions
  e.U64(1);            // partition id
  e.U32(kInflatedCount);

  std::string dir = TempPath("hostile_ckpt");
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string path = CheckpointPath(dir, 1);
  {
    // The image record, then the end record (types 1 and 2 of
    // persist/snapshot.cc).
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kCheckpointMagic, 1).ok());
    ASSERT_TRUE(w.Append(1, e.buf()).ok());
    ASSERT_TRUE(w.Append(2, "").ok());
  }

  Result<SystemImage> read = Corruption("unset");
  EXPECT_NO_THROW(read = ReadCheckpointFile(path, nullptr));
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // Recovery over the directory reports the bad checkpoint as a Status.
  VirtualClock clock(0);
  Result<RecoveredSystem> recovered = Corruption("unset");
  EXPECT_NO_THROW(recovered = Recover(dir, &clock));
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  fs::remove_all(dir);
}

TEST(WalCodecTest, CommitRoundTrip) {
  CommitImage c;
  c.ts = {777, 2};
  CommitImage::TableCommit t;
  t.object = 3;
  t.next_row_id = 101;
  t.changes = {{ChangeAction::kInsert, 100, {Value::Int(5), Value::Null()}}};
  c.tables.push_back(t);

  auto back = DecodeCommit(EncodeCommit(c));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().tables.size(), 1u);
  EXPECT_EQ(back.value().tables[0].object, 3u);
  EXPECT_EQ(back.value().tables[0].next_row_id, 101u);
  EXPECT_EQ(back.value().ts, c.ts);
}

TEST(WalCodecTest, DdlRoundTripEveryOp) {
  // CREATE TABLE
  {
    DdlImage d;
    d.op = DdlOp::kCreateTable;
    d.name = "t";
    d.ts = {5, 0};
    d.schema.AddColumn("a", DataType::kInt64);
    d.min_data_retention = 7 * kMicrosPerDay;
    auto back = DecodeDdl(EncodeDdl(d));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().schema, d.schema);
    EXPECT_EQ(back.value().min_data_retention, d.min_data_retention);
  }
  // CREATE VIEW
  {
    DdlImage d;
    d.op = DdlOp::kCreateView;
    d.name = "v";
    d.sql = "SELECT a FROM t";
    auto back = DecodeDdl(EncodeDdl(d));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().sql, d.sql);
  }
  // CREATE DYNAMIC TABLE
  {
    DdlImage d;
    d.op = DdlOp::kCreateDynamicTable;
    d.name = "dt";
    d.def.sql = "SELECT a, COUNT(*) FROM t GROUP BY a";
    d.def.target_lag = TargetLag::Of(5 * kMicrosPerMinute);
    d.def.warehouse = "wh";
    d.def.requested_mode = RefreshMode::kIncremental;
    d.def.initialize_on_create = false;
    d.def.min_data_retention = kMicrosPerDay;
    d.incremental = true;
    d.output_schema.AddColumn("a", DataType::kInt64);
    TrackedDependency dep;
    dep.name = "t";
    dep.object_id = 1;
    dep.schema_at_bind.AddColumn("a", DataType::kInt64);
    d.deps.push_back(dep);
    auto back = DecodeDdl(EncodeDdl(d));
    ASSERT_TRUE(back.ok());
    const DdlImage& b = back.value();
    EXPECT_EQ(b.def.sql, d.def.sql);
    EXPECT_EQ(b.def.target_lag.duration, d.def.target_lag.duration);
    EXPECT_EQ(b.def.warehouse, "wh");
    EXPECT_EQ(b.def.requested_mode, RefreshMode::kIncremental);
    EXPECT_FALSE(b.def.initialize_on_create);
    EXPECT_EQ(b.def.min_data_retention, kMicrosPerDay);
    EXPECT_TRUE(b.incremental);
    ASSERT_EQ(b.deps.size(), 1u);
    EXPECT_EQ(b.deps[0].name, "t");
    EXPECT_EQ(b.deps[0].schema_at_bind, dep.schema_at_bind);
  }
  // DROP / UNDROP / CLONE / ALTERs
  for (DdlOp op : {DdlOp::kDrop, DdlOp::kUndrop, DdlOp::kClone,
                   DdlOp::kAlterSuspend, DdlOp::kAlterResume}) {
    DdlImage d;
    d.op = op;
    d.name = "x";
    d.detail = op == DdlOp::kClone ? "src" : "";
    auto back = DecodeDdl(EncodeDdl(d));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().op, op);
    EXPECT_EQ(back.value().detail, d.detail);
  }
  // ALTER SET TARGET_LAG
  {
    DdlImage d;
    d.op = DdlOp::kAlterTargetLag;
    d.name = "dt";
    d.lag = TargetLag::Downstream();
    auto back = DecodeDdl(EncodeDdl(d));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value().lag.downstream);
  }
}

TEST(WalCodecTest, RefreshRoundTrip) {
  RefreshImage r;
  r.dt = 9;
  r.refresh_ts = 96 * kMicrosPerSecond;
  r.action = 3;
  r.commit = 0;  // overwrite
  r.commit_ts = {96000001, 7};
  r.rows = {{1, {Value::Int(10)}}, {2, {Value::Int(20)}}};
  r.new_version = 5;
  r.frontier = {{2, 3}, {4, 1}};
  TrackedDependency dep;
  dep.name = "t";
  dep.object_id = 2;
  r.deps.push_back(dep);
  r.schema.AddColumn("v", DataType::kInt64);

  auto back = DecodeRefresh(EncodeRefresh(r));
  ASSERT_TRUE(back.ok());
  const RefreshImage& b = back.value();
  EXPECT_EQ(b.dt, 9u);
  EXPECT_EQ(b.refresh_ts, r.refresh_ts);
  EXPECT_EQ(b.commit_ts, r.commit_ts);
  ASSERT_EQ(b.rows.size(), 2u);
  EXPECT_EQ(b.rows[1].id, 2u);
  EXPECT_EQ(b.new_version, 5u);
  EXPECT_EQ(b.frontier, r.frontier);
  ASSERT_EQ(b.deps.size(), 1u);
  EXPECT_EQ(b.schema, r.schema);
}

TEST(WalCodecTest, SchedRecordRoundTrip) {
  SchedRecordImage s;
  s.record.dt = 4;
  s.record.dt_name = "dt";
  s.record.data_timestamp = 96 * kMicrosPerSecond;
  s.record.start_time = 97 * kMicrosPerSecond;
  s.record.end_time = 99 * kMicrosPerSecond;
  s.record.action = RefreshAction::kIncremental;
  s.record.rows_processed = 1234;
  s.record.changes_applied = 56;
  s.record.dt_row_count = 789;
  s.record.peak_lag = 3 * kMicrosPerSecond;
  s.record.trough_lag = kMicrosPerSecond;
  s.has_warehouse = true;
  s.warehouse = "wh";
  s.wh_size = 2;
  s.wh_auto_suspend = 60 * kMicrosPerSecond;
  s.wh_concurrency = 4;
  s.wh_pinned = true;
  s.wh_busy_until = 99 * kMicrosPerSecond;
  s.wh_billed = 10 * kMicrosPerSecond;
  s.wh_resumes = 2;

  auto back = DecodeSchedRecord(EncodeSchedRecord(s));
  ASSERT_TRUE(back.ok());
  const SchedRecordImage& b = back.value();
  EXPECT_EQ(b.record.dt_name, "dt");
  EXPECT_EQ(b.record.action, RefreshAction::kIncremental);
  EXPECT_EQ(b.record.rows_processed, 1234u);
  EXPECT_TRUE(b.has_warehouse);
  EXPECT_EQ(b.warehouse, "wh");
  EXPECT_EQ(b.wh_concurrency, 4);
  EXPECT_TRUE(b.wh_pinned);
  EXPECT_EQ(b.wh_billed, 10 * kMicrosPerSecond);
}

TEST(SystemImageTest, CaptureEncodeDecodeInstall) {
  VirtualClock clock(1000);
  DvsEngine engine(clock);
  ASSERT_TRUE(engine.Execute("CREATE TABLE t (k INT, s TEXT)").ok());
  ASSERT_TRUE(
      engine.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL)")
          .ok());
  ASSERT_TRUE(engine.Execute("CREATE VIEW v AS SELECT k FROM t").ok());
  ASSERT_TRUE(engine
                  .Execute("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' "
                           "WAREHOUSE = wh AS SELECT k, COUNT(*) AS c FROM t "
                           "GROUP BY k")
                  .ok());
  ASSERT_TRUE(engine.Execute("DELETE FROM t WHERE k = 2").ok());

  SchedulerPersistState sched;
  sched.last_run = 96 * kMicrosPerSecond;
  RefreshRecord rec;
  rec.dt = engine.ObjectIdOf("dt").value();
  rec.dt_name = "dt";
  sched.log.push_back(rec);

  SystemImage image = CaptureSystemImage(engine, &sched);
  std::string bytes = EncodeSystemImage(image);
  auto decoded = DecodeSystemImage(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // The decoded image re-encodes identically (codec is its own inverse).
  EXPECT_EQ(EncodeSystemImage(decoded.value()), bytes);

  // Install into a fresh engine: same catalog contents, same query results,
  // same fingerprint.
  VirtualClock clock2(0);
  DvsEngine engine2(clock2);
  SchedulerPersistState sched2;
  ASSERT_TRUE(
      InstallSystemImage(decoded.value(), &engine2, &sched2).ok());
  clock2.AdvanceTo(clock.Now());

  EXPECT_EQ(sched2.last_run, sched.last_run);
  ASSERT_EQ(sched2.log.size(), 1u);
  EXPECT_EQ(sched2.log[0].dt_name, "dt");

  auto q1 = engine.Query("SELECT k, s FROM t ORDER BY k");
  auto q2 = engine2.Query("SELECT k, s FROM t ORDER BY k");
  ASSERT_TRUE(q1.ok() && q2.ok());
  ASSERT_EQ(q1.value().rows.size(), q2.value().rows.size());
  for (size_t i = 0; i < q1.value().rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(q1.value().rows[i], q2.value().rows[i]));
  }
  EXPECT_EQ(EncodeSystemImage(CaptureSystemImage(engine2, &sched2)), bytes);

  // Row-id index content survives (rebuilt from partitions).
  const CatalogObject* t1 = engine.catalog().Find("t").value();
  const CatalogObject* t2 = engine2.catalog().Find("t").value();
  for (const IdRow& row : t1->storage->ScanLatest()) {
    const RowLocation* l1 = t1->storage->FindRow(row.id);
    const RowLocation* l2 = t2->storage->FindRow(row.id);
    ASSERT_NE(l1, nullptr);
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l1->partition, l2->partition);
    EXPECT_EQ(l1->offset, l2->offset);
  }
}

TEST(RecordFileTest, WriteReadRoundTrip) {
  std::string path = TempPath("roundtrip.bin");
  {
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kWalMagic, 7).ok());
    ASSERT_TRUE(w.Append(1, "first").ok());
    ASSERT_TRUE(w.Append(2, "").ok());
    ASSERT_TRUE(w.Append(3, std::string(100000, 'x')).ok());
  }
  auto file = ReadRecordFile(path, kWalMagic, false);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file.value().seq, 7u);
  ASSERT_EQ(file.value().records.size(), 3u);
  EXPECT_EQ(file.value().records[0].payload, "first");
  EXPECT_EQ(file.value().records[1].type, 2);
  EXPECT_EQ(file.value().records[2].payload.size(), 100000u);
  EXPECT_FALSE(file.value().torn_tail);
  std::remove(path.c_str());
}

TEST(RecordFileTest, TornTailToleratedForWal) {
  std::string path = TempPath("torn.bin");
  {
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kWalMagic, 1).ok());
    ASSERT_TRUE(w.Append(1, "keep-me").ok());
    ASSERT_TRUE(w.Append(2, "torn-away").ok());
  }
  // Truncate mid-way through the second record.
  auto full = ReadRecordFile(path, kWalMagic, false);
  ASSERT_TRUE(full.ok());
  uint64_t cut = full.value().records[0].end_offset + 5;
  fs::resize_file(path, cut);

  auto torn = ReadRecordFile(path, kWalMagic, true);
  ASSERT_TRUE(torn.ok());
  ASSERT_EQ(torn.value().records.size(), 1u);
  EXPECT_EQ(torn.value().records[0].payload, "keep-me");
  EXPECT_TRUE(torn.value().torn_tail);

  // Checkpoint semantics reject the same file.
  EXPECT_FALSE(ReadRecordFile(path, kWalMagic, false).ok());
  std::remove(path.c_str());
}

TEST(RecordFileTest, CorruptionDetectedByCrc) {
  std::string path = TempPath("crc.bin");
  {
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kWalMagic, 1).ok());
    ASSERT_TRUE(w.Append(1, "payload-abcdef").ok());
  }
  // Flip a byte inside the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('Z');
  }
  auto torn = ReadRecordFile(path, kWalMagic, true);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn.value().records.empty());
  EXPECT_TRUE(torn.value().torn_tail);
  EXPECT_FALSE(ReadRecordFile(path, kWalMagic, false).ok());
  std::remove(path.c_str());
}

TEST(RecordFileTest, OtherFormatVersionRejectedAsUnsupported) {
  std::string path = TempPath("v2.bin");
  {
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kWalMagic, 1).ok());
    ASSERT_TRUE(w.Append(1, "x").ok());
  }
  ASSERT_TRUE(ReadRecordFile(path, kWalMagic, true).ok());
  // Rewrite the header's version field (bytes 4..7) to 2.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const uint32_t v2 = 2;
    char b[4];
    std::memcpy(b, &v2, 4);
    f.seekp(4);
    f.write(b, 4);
  }
  for (bool tolerate : {true, false}) {
    auto read = ReadRecordFile(path, kWalMagic, tolerate);
    EXPECT_EQ(read.status().code(), StatusCode::kUnsupported);
  }
  std::remove(path.c_str());
}

TEST(RecordFileTest, WrongMagicRejected) {
  std::string path = TempPath("magic.bin");
  {
    RecordFileWriter w;
    ASSERT_TRUE(w.Open(path, kCheckpointMagic, 1).ok());
    ASSERT_TRUE(w.Append(1, "x").ok());
  }
  EXPECT_FALSE(ReadRecordFile(path, kWalMagic, true).ok());
  EXPECT_TRUE(ReadRecordFile(path, kCheckpointMagic, true).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace persist
}  // namespace dvs
