#include "storage/batch_scan.h"

#include "obs/profile.h"

namespace dvs {

BatchVector PartitionToBatches(const MicroPartition& p) {
  BatchVector out;
  size_t start = 0;
  while (start < p.size()) {
    const size_t width = p.row(start).values.size();
    size_t end = start + 1;
    while (end < p.size() && p.row(end).values.size() == width) ++end;

    auto batch = std::make_shared<ColumnBatch>();
    batch->rows = end - start;
    batch->ids.reserve(end - start);
    std::vector<std::shared_ptr<BatchColumn>> cols(width);
    for (auto& c : cols) {
      c = std::make_shared<BatchColumn>();
      c->Reserve(end - start);
    }
    for (size_t r = start; r < end; ++r) {
      const IdRow& row = p.row(r);
      batch->ids.push_back(row.id);
      for (size_t c = 0; c < width; ++c) cols[c]->AppendValue(row.values[c]);
    }
    batch->cols.assign(cols.begin(), cols.end());
    out.push_back(std::move(batch));
    start = end;
  }
  return out;
}

BatchVector ScanBatchesAt(const VersionedTable& table, VersionId version,
                          PartitionBatchCache* cache) {
  BatchVector out;
  obs::ExecCounters& counters = obs::ExecCounters::Instance();
  obs::OpStats* prof = obs::CurrentScanTarget();
  table.VisitPartitionsAt(version, [&](const MicroPartition& p) {
    if (cache != nullptr) {
      auto it = cache->find(&p);
      const bool hit = it != cache->end();
      if (!hit) {
        it = cache->emplace(&p, PartitionToBatches(p)).first;
      }
      (hit ? counters.batch_cache_hits : counters.batch_cache_misses) += 1;
      if (prof != nullptr) {
        (hit ? prof->batch_cache_hits : prof->batch_cache_misses) += 1;
      }
      out.insert(out.end(), it->second.begin(), it->second.end());
    } else {
      BatchVector converted = PartitionToBatches(p);
      out.insert(out.end(), converted.begin(), converted.end());
    }
  });
  return out;
}

}  // namespace dvs
