// Property-based randomized testing — the paper's level-4 workload tests
// (§6.1): "Because of delayed-view semantics with snapshot isolation, we
// have an extremely strong assertion we can make for most DTs: if you run
// the defining query as of the data timestamp, you should get the same
// result as in the DT."
//
// For each seed, random DT definitions are created twice — once with the
// system-chosen mode (incremental where possible) and once forced FULL —
// random CDC batches are applied, everything is refreshed, and after every
// round we assert:
//   1. DVS invariant: DT contents == defining query as of the data timestamp;
//   2. Mode equivalence: the incremental twin equals the FULL twin;
//   (both bit for bit: type tags and DOUBLE bits included)
//   3. The §6.1 merge validations never tripped (refresh would have failed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "dt/engine.h"
#include "workload/query_generator.h"

namespace dvs {
namespace {

/// Each row as type-tagged values, DOUBLEs to their full 17 digits:
/// RowToString renders INT 5 and DOUBLE 5.0 alike, and rounds DOUBLEs.
std::vector<std::string> Rendered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      line += DataTypeName(v.type());
      line += ':';
      if (v.type() == DataType::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += ' ';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class DvsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DvsPropertyTest, RandomPipelinesUpholdDelayedViewSemantics) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  VirtualClock clock(kMicrosPerHour);
  DvsEngine engine(clock);

  ASSERT_TRUE(
      workload::QueryGenerator::SetupSources(&engine, &rng, 40).ok());

  workload::QueryGenerator generator(&rng);
  struct DtPair {
    std::string inc_name;
    std::string full_name;
    std::string query;
  };
  std::vector<DtPair> dts;
  constexpr int kNumDts = 6;
  for (int i = 0; i < kNumDts; ++i) {
    DtPair pair;
    pair.query = generator.Generate();
    pair.inc_name = "dt_inc_" + std::to_string(i);
    pair.full_name = "dt_full_" + std::to_string(i);
    auto inc = engine.Execute("CREATE DYNAMIC TABLE " + pair.inc_name +
                              " TARGET_LAG = '1 minute' WAREHOUSE = wh AS " +
                              pair.query);
    ASSERT_TRUE(inc.ok()) << pair.query << "\n" << inc.status().ToString();
    auto full = engine.Execute("CREATE DYNAMIC TABLE " + pair.full_name +
                               " TARGET_LAG = '1 minute' WAREHOUSE = wh "
                               "REFRESH_MODE = FULL AS " + pair.query);
    ASSERT_TRUE(full.ok()) << pair.query << "\n" << full.status().ToString();
    dts.push_back(std::move(pair));
  }

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(workload::QueryGenerator::ApplyRandomDml(
                    &engine, &rng, /*ops=*/8).ok());
    clock.Advance(kMicrosPerMinute);
    const Micros ts = clock.Now();

    for (const DtPair& pair : dts) {
      for (const std::string& name : {pair.inc_name, pair.full_name}) {
        ObjectId id = engine.ObjectIdOf(name).value();
        auto outcome = engine.refresh_engine().Refresh(id, ts);
        ASSERT_TRUE(outcome.ok())
            << "seed=" << seed << " round=" << round << " dt=" << name
            << "\nquery: " << pair.query << "\n"
            << outcome.status().ToString();
      }

      // 1. DVS invariant for the incremental twin.
      auto expected = engine.QueryAsOf(pair.query, ts);
      ASSERT_TRUE(expected.ok()) << pair.query;
      auto actual = engine.Query("SELECT * FROM " + pair.inc_name);
      ASSERT_TRUE(actual.ok());
      ASSERT_EQ(Rendered(actual.value().rows), Rendered(expected.value()))
          << "seed=" << seed << " round=" << round
          << "\nquery: " << pair.query;

      // 2. Incremental == FULL.
      auto full_rows = engine.Query("SELECT * FROM " + pair.full_name);
      ASSERT_TRUE(full_rows.ok());
      ASSERT_EQ(Rendered(actual.value().rows),
                Rendered(full_rows.value().rows))
          << "seed=" << seed << " round=" << round
          << "\nquery: " << pair.query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DvsPropertyTest, ::testing::Range<uint64_t>(1, 13),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace dvs
