// E12 — §5.5.3 future work: the aggregate derivative reuses the state
// already stored in the DT. Each affected group's new SUM/COUNT row is its
// stored row plus the delta's adjustments, read by row id, so the work of an
// incremental refresh tracks the delta, not the source.
//
// Paper quote: "We expect major performance opportunities from
// incorporating a 'previous state' into our differentiation rules."
//
// For each source size the bench refreshes a grouped SUM/COUNT DT after a
// 10-row delta, then differentiates the DT's plan again over the same
// interval with no stored state (every affected group recomputed from its
// members) and gates:
//   1. the refresh's change set equals the recompute's row for row (row id,
//      action, values with their type tags);
//   2. the refresh's work is flat across source sizes 1k–64k.
// The recompute's work is printed alongside: it grows with the source.

#include <algorithm>
#include <map>

#include "bench_util.h"

using namespace dvs;

namespace {

struct Sample {
  uint64_t state_work = 0;      ///< The refresh's rows_processed.
  uint64_t recompute_work = 0;  ///< Δ with no stored state, same interval.
  size_t changes = 0;
  bool identical = false;
};

using ChangeKey = std::pair<bool, RowId>;  // (is insert, row id)

std::map<ChangeKey, Row> ByKey(const ChangeSet& cs) {
  std::map<ChangeKey, Row> out;
  for (const ChangeRow& c : cs) {
    out.emplace(ChangeKey{c.action == ChangeAction::kInsert, c.row_id},
                c.values);
  }
  return out;
}

bool Identical(const std::map<ChangeKey, Row>& a,
               const std::map<ChangeKey, Row>& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.size() != ib->second.size()) {
      return false;
    }
    for (size_t i = 0; i < ia->second.size(); ++i) {
      const Value& x = ia->second[i];
      const Value& y = ib->second[i];
      if (x.type() != y.type() || !(x == y)) return false;
    }
  }
  return true;
}

Sample RunOne(int source_rows) {
  VirtualClock clock(0);
  DvsEngine engine(clock);

  bench::Run(engine, "CREATE TABLE src (grp INT, v INT)");
  for (int i = 0; i < source_rows; i += 500) {
    std::string sql = "INSERT INTO src VALUES ";
    int end = std::min(source_rows, i + 500);
    for (int j = i; j < end; ++j) {
      if (j > i) sql += ", ";
      sql += "(" + std::to_string(j % 100) + ", " + std::to_string(j % 13) +
             ")";
    }
    bench::Run(engine, sql);
  }
  bench::Run(engine,
             "CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' "
             "WAREHOUSE = wh AS SELECT grp, count(*) AS n, sum(v) AS sv "
             "FROM src GROUP BY ALL");
  const CatalogObject* dt = engine.catalog().Find("agg").value();
  const ObjectId src_id = engine.ObjectIdOf("src").value();
  const VersionedTable& src = *engine.catalog().Find("src").value()->storage;
  const VersionId dt_before = dt->storage->latest_version();
  const VersionId v0 = dt->dt->frontier.at(src_id);

  // Small delta: 10 rows into 2 groups.
  bench::Run(engine, "INSERT INTO src VALUES (1, 5), (1, 6), (1, 7), (1, 8), "
                     "(1, 9), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9)");
  clock.Advance(kMicrosPerMinute);
  auto r = engine.refresh_engine().Refresh(engine.ObjectIdOf("agg").value(),
                                           clock.Now());
  if (!r.ok()) {
    std::printf("FATAL: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  Sample s;
  s.state_work = r.value().rows_processed;
  s.changes = r.value().changes_applied;
  auto applied =
      dt->storage->ScanChanges(dt_before, dt->storage->latest_version());

  // The same interval, differentiated with no stored state.
  const VersionId v1 = dt->dt->frontier.at(src_id);
  DeltaContext ctx;
  ctx.resolve_at_start = [&](ObjectId) -> Result<BatchVector> {
    return ScanBatchesAt(src, v0, nullptr);
  };
  ctx.resolve_at_end = [&](ObjectId) -> Result<BatchVector> {
    return ScanBatchesAt(src, v1, nullptr);
  };
  ctx.resolve_delta = [&](ObjectId) { return src.ScanChanges(v0, v1); };
  auto recompute = Differentiate(*dt->dt->plan, ctx);
  if (!applied.ok() || !recompute.ok()) {
    std::printf("FATAL: could not differentiate the interval again\n");
    std::exit(1);
  }
  s.recompute_work = ctx.rows_processed;
  s.identical = Identical(ByKey(applied.value()),
                          ByKey(recompute.value().changes));
  return s;
}

}  // namespace

int main() {
  std::printf("E12 — aggregate derivative over the DT's stored state, "
              "10-row delta into a 100-group aggregate\n\n");
  std::printf("%-12s %16s %16s %10s %10s\n", "source rows", "refresh work",
              "recompute work", "ratio", "identical");

  const int kSizes[] = {1000, 4000, 16000, 64000};
  bool all_identical = true;
  uint64_t min_work = UINT64_MAX, max_work = 0;
  for (int rows : kSizes) {
    Sample s = RunOne(rows);
    std::printf("%-12d %16llu %16llu %9.1fx %10s\n", rows,
                static_cast<unsigned long long>(s.state_work),
                static_cast<unsigned long long>(s.recompute_work),
                static_cast<double>(s.recompute_work) /
                    static_cast<double>(std::max<uint64_t>(s.state_work, 1)),
                s.identical ? "yes" : "NO");
    all_identical = all_identical && s.identical && s.changes > 0;
    min_work = std::min(min_work, s.state_work);
    max_work = std::max(max_work, s.state_work);
  }
  std::printf("\n");

  bench::Check(all_identical,
               "the refresh's change set equals the stateless recompute's, "
               "row for row, at every source size");
  bench::Check(min_work == max_work,
               "the refresh's work is flat across source sizes 1k-64k (it "
               "tracks the delta, not the source)");
  return bench::Finish();
}
