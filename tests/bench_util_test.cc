// Tests for bench/bench_util.h helpers. Every BENCH_E*.json file the
// experiment binaries write goes through BenchJson, and later changes compare
// those files key by key, so the JSON layout, the string escaping and the
// canonical read-latency key spellings are checked here, along with the
// PASS/FAIL tally the shape checks exit on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"

namespace dvs {
namespace {

TEST(BenchJsonTest, ObjSerializesFieldsInInsertionOrder) {
  bench::BenchJson::Obj o;
  o.Int("rows", -42).Num("wall_s", 0.125).Bool("ok", true).Bool("bad", false)
      .Str("mode", "incremental");
  EXPECT_EQ(o.ToJson(),
            "{\"rows\": -42, \"wall_s\": 0.125, \"ok\": true, "
            "\"bad\": false, \"mode\": \"incremental\"}");
  EXPECT_EQ(bench::BenchJson::Obj().ToJson(), "{}");
}

TEST(BenchJsonTest, NumKeepsSixSignificantDigits) {
  bench::BenchJson::Obj o;
  o.Num("a", 1234567.0).Num("b", 0.000123456789).Num("c", 3.0);
  EXPECT_EQ(o.ToJson(), "{\"a\": 1.23457e+06, \"b\": 0.000123457, \"c\": 3}");
}

TEST(BenchJsonTest, StringsAndKeysAreEscaped) {
  bench::BenchJson::Obj o;
  o.Str("q\"k", "say \"hi\"\\path\nnext");
  EXPECT_EQ(o.ToJson(),
            "{\"q\\\"k\": \"say \\\"hi\\\"\\\\path\\nnext\"}");
}

TEST(BenchJsonTest, AddReadLatencyUsesCanonicalKeys) {
  bench::BenchJson::Obj point;
  bench::AddReadLatency(point.Int("dts", 10), 0.5, 2.25, 1000.0)
      .Bool("digest_match", true);
  EXPECT_EQ(point.ToJson(),
            "{\"dts\": 10, \"read_p50_ms\": 0.5, \"read_p99_ms\": 2.25, "
            "\"qps\": 1000, \"digest_match\": true}");
}

TEST(BenchJsonTest, MachineMetaNamesItsSource) {
  bench::BenchJson json("UTILTEST", "machine meta");
  json.AddMachineMeta("abc123");
  const std::string meta = json.meta().ToJson();
  EXPECT_NE(meta.find("\"hardware_threads\": "), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"build_type\": \""), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"compiler\": \""), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"git_sha\": \"abc123\""), std::string::npos) << meta;
}

TEST(BenchJsonTest, WriteFileSplicesMetaAndPoints) {
  bench::BenchJson json("UTILTEST", "two \"points\"");
  json.meta().Int("seed", 7);
  json.AddPoint().Int("n", 1);
  json.AddPoint().Int("n", 2).Str("tier", "10k");
  const std::string path = json.WriteFile();
  ASSERT_EQ(path, "BENCH_UTILTEST.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(body.str(),
            "{\"experiment\": \"UTILTEST\", "
            "\"description\": \"two \\\"points\\\"\", "
            "\"meta\": {\"seed\": 7}, \"points\": [\n"
            "  {\"n\": 1},\n"
            "  {\"n\": 2, \"tier\": \"10k\"}\n"
            "]}\n");
}

TEST(BenchJsonTest, WriteFileWithNoPointsIsAnEmptyArray) {
  bench::BenchJson json("UTILTEST", "empty");
  const std::string path = json.WriteFile();
  ASSERT_EQ(path, "BENCH_UTILTEST.json");
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(body.str(),
            "{\"experiment\": \"UTILTEST\", \"description\": \"empty\", "
            "\"meta\": {}, \"points\": [\n]}\n");
}

TEST(BenchUtilTest, BarRoundsAndClampsToWidth) {
  EXPECT_EQ(bench::Bar(0.0), "");
  EXPECT_EQ(bench::Bar(0.5, 10), "#####");
  EXPECT_EQ(bench::Bar(0.26, 10), "###");  // 2.6 rounds to 3
  EXPECT_EQ(bench::Bar(1.0, 10), "##########");
  EXPECT_EQ(bench::Bar(3.0, 10), "##########");  // over-full clamps
  EXPECT_EQ(bench::Bar(1.0).size(), 40u);
}

TEST(BenchUtilTest, CheckCountsFailuresAndFinishReportsThem) {
  bench::g_failures = 0;
  bench::Check(true, "a claim that holds");
  EXPECT_EQ(bench::g_failures, 0);
  EXPECT_EQ(bench::Finish(), 0);
  bench::Check(false, "a claim that fails");
  bench::Check(false, "another claim that fails");
  EXPECT_EQ(bench::g_failures, 2);
  EXPECT_EQ(bench::Finish(), 1);
  bench::g_failures = 0;
}

TEST(BenchUtilTest, WallTimerIsMonotonicAndResets) {
  bench::WallTimer t;
  const double first = t.Seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(t.Seconds(), first);
  t.Reset();
  EXPECT_GE(t.Seconds(), 0.0);
}

}  // namespace
}  // namespace dvs
