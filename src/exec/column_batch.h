// Columnar batch representation for the vectorized execution engine.
//
// A ColumnBatch is a fixed-size horizontal slice of a relation: one
// BatchColumn per output column plus the per-row RowId vector that IdRow
// carries. Columns are typed lanes of contiguous storage:
//
//   kI64  — int64 payloads for BOOL / INT64 / TIMESTAMP values (the element
//           tag records which; BOOL stores 0/1),
//   kF64  — double payloads,
//   kStr  — string_view entries backed by a chunked char arena owned by the
//           column (views stay valid for the column's lifetime),
//   kVal  — a fallback lane of full Value objects for mixed-tag columns and
//           ARRAY payloads.
//
// A column starts kUndecided (all-NULL) and commits to a lane at the first
// non-null append; a tag mismatch later *demotes* the column to kVal,
// re-materializing prior entries so the exact Value tags round-trip. This
// matters: SUM()'s all-int accumulation and Value::Hash() are tag-sensitive,
// so the batch engine must never silently promote INT64 to DOUBLE.
//
// NULLs are a bitmap (bit set = NULL) with placeholder lane entries so lane
// vectors stay index-aligned with the logical row index.
//
// Row survives at API edges only: storage partitions adapt to batches via
// RowsToBatches/PartitionToBatch, and delta emission / row-only operators
// materialize back via BatchesToRows.

#ifndef DVS_EXEC_COLUMN_BATCH_H_
#define DVS_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/ids.h"
#include "common/status.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace dvs {

/// Rows per batch. Matches the storage default max_partition_rows so an
/// unchanged micro-partition converts to exactly one batch.
inline constexpr size_t kBatchSize = 4096;

/// One typed column of a batch. Move-only: columns are built once, then
/// shared immutably via ColumnPtr.
class BatchColumn {
 public:
  enum class Lane : uint8_t { kUndecided, kI64, kF64, kStr, kVal };

  BatchColumn() = default;
  BatchColumn(const BatchColumn&) = delete;
  BatchColumn& operator=(const BatchColumn&) = delete;
  BatchColumn(BatchColumn&&) = default;
  BatchColumn& operator=(BatchColumn&&) = default;

  size_t size() const { return size_; }
  Lane lane() const { return lane_; }
  /// Element tag for the kI64 lane: kBool, kInt64 or kTimestamp.
  DataType elem_tag() const { return elem_tag_; }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t i) const {
    // nulls_ is sized lazily: it only extends to the word holding the last
    // null set so far, so indices beyond it are non-null by construction.
    size_t word = i >> 6;
    return null_count_ > 0 && word < nulls_.size() &&
           (nulls_[word] >> (i & 63)) & 1;
  }

  void Reserve(size_t n) {
    switch (lane_) {
      case Lane::kI64:
        i64_.reserve(n);
        break;
      case Lane::kF64:
        f64_.reserve(n);
        break;
      case Lane::kStr:
        str_.reserve(n);
        break;
      case Lane::kVal:
        val_.reserve(n);
        break;
      case Lane::kUndecided:
        break;
    }
  }

  void AppendNull();
  void AppendValue(const Value& v);
  /// Append typed payloads directly (fast paths for kernels). These commit
  /// the lane on first use and demote like AppendValue on mismatch.
  void AppendInt(int64_t v) { AppendTagged(DataType::kInt64, v); }
  void AppendBool(bool v) { AppendTagged(DataType::kBool, v ? 1 : 0); }
  void AppendTimestamp(int64_t v) { AppendTagged(DataType::kTimestamp, v); }
  void AppendDouble(double v);
  void AppendString(std::string_view s);
  /// Append element `i` of `src`, interning string bytes into this column's
  /// arena so the result never dangles into `src`.
  void AppendFrom(const BatchColumn& src, size_t i);

  /// Materialize the element as a Value with the exact original tag.
  Value GetValue(size_t i) const;

  /// Bit-exact equivalent of GetValue(i).Hash() without materializing.
  uint64_t HashAt(size_t i) const;

  /// Bit-exact equivalent of GetValue(i).Compare(GetValue(j) of other).
  int CompareAt(size_t i, const BatchColumn& other, size_t j) const;

  /// Structural equality with a Value (Value::operator== semantics).
  bool EqualsValueAt(size_t i, const Value& v) const {
    return GetValue(i) == v;
  }

  // Raw lane accessors for kernels. Only valid for the matching lane.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string_view>& str() const { return str_; }
  const std::vector<Value>& vals() const { return val_; }

 private:
  void SetNullBit(size_t i) {
    size_t word = i >> 6;
    if (word >= nulls_.size()) nulls_.resize(word + 1, 0);
    nulls_[word] |= uint64_t{1} << (i & 63);
    ++null_count_;
  }
  void AppendTagged(DataType tag, int64_t payload);
  std::string_view Intern(std::string_view s);
  /// Rebuild as a kVal lane preserving exact prior element tags.
  void DemoteToVal();
  void PushPlaceholder();

  Lane lane_ = Lane::kUndecided;
  DataType elem_tag_ = DataType::kNull;  // element tag for kI64 lane
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> nulls_;  // bit set = NULL; sized lazily
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string_view> str_;
  std::vector<Value> val_;
  // Chunked arena backing str_ views. Chunks never move once allocated.
  std::vector<std::unique_ptr<char[]>> arena_;
  size_t arena_used_ = 0;   // bytes used in the last chunk
  size_t arena_cap_ = 0;    // capacity of the last chunk
};

using ColumnPtr = std::shared_ptr<const BatchColumn>;

/// A batch of rows in columnar form. `cols` may be empty with rows > 0
/// (e.g. the dual table's single zero-width row).
struct ColumnBatch {
  std::vector<RowId> ids;
  std::vector<ColumnPtr> cols;
  size_t rows = 0;

  size_t width() const { return cols.size(); }
};

using BatchPtr = std::shared_ptr<const ColumnBatch>;
using BatchVector = std::vector<BatchPtr>;

/// Selection vector: indices into a batch, in increasing order.
using Sel = std::vector<uint32_t>;

size_t BatchRowCount(const BatchVector& batches);

/// Materialize logical row `i` of `batch` (values only, not the id).
Row MaterializeRow(const ColumnBatch& batch, size_t i);

/// Chunk rows into batches of kBatchSize.
BatchVector RowsToBatches(const std::vector<IdRow>& rows);

/// Flatten batches back to rows, preserving order and ids.
std::vector<IdRow> BatchesToRows(const BatchVector& batches);

}  // namespace dvs

#endif  // DVS_EXEC_COLUMN_BATCH_H_
