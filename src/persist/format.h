// Binary wire format for the durability subsystem (persist/).
//
// Two file kinds share one framing: a 16-byte header (magic, format version,
// segment sequence number) followed by length-prefixed, CRC32-checksummed
// records. Checkpoints require every frame (and a terminator record) to be
// intact; WAL segments tolerate a torn tail — the first incomplete or
// corrupt frame ends the replayable prefix, which is exactly the crash
// semantics the recovery property test exercises.
//
// The file header and the 8-byte frame header (length, CRC) are fixed-width
// little-endian: a reader needs their sizes before it can parse anything.
// Payloads encode every count, id, length and timestamp as a canonical
// unsigned LEB128 varint (signed values zigzag-mapped first); F64 keeps its
// 8 raw bytes and U8/Bool stay one byte. Fixed-width payloads were mostly
// zero padding: on the fleet benchmark (4.5k DTs, mostly NO_DATA refreshes)
// a NO_DATA refresh cost a 145-byte kRefresh plus a 123-byte kSchedRecord,
// and the checkpoint's refresh log and table versions were small integers in
// 8-byte words. Varints cut the bytes recovery reads there from 11.1 MB to
// about 4.6 MB. The Decoder accepts only canonical encodings, so every
// integer has exactly one encoding and an encoded SystemImage stays a
// byte-comparable recovery fingerprint.
//
// The Encoder / Decoder pair also knows the library's value types (Value,
// Row, Schema, HlcTimestamp, ChangeRow, TableVersion) so every persisted
// struct is built from one vocabulary.

#ifndef DVS_PERSIST_FORMAT_H_
#define DVS_PERSIST_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hlc.h"
#include "common/status.h"
#include "storage/versioned_table.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/value.h"

namespace dvs {
namespace persist {

constexpr uint32_t kWalMagic = 0x4C415744;         // "DWAL"
constexpr uint32_t kCheckpointMagic = 0x504B4344;  // "DCKP"
// v2: RefreshRecord payloads carry error_code/attempts/retry_backoff, the
// kRefreshFailure WAL record carries status code+message+transient, and DT
// images carry transient_failures. v3: payload integers and lengths are
// varints. Readers reject other versions, so stale directories fail loudly
// instead of decoding garbage.
constexpr uint32_t kFormatVersion = 3;

/// CRC32 (IEEE, reflected) over `n` bytes. Passing the CRC of a prefix as
/// `crc` continues it: Crc32(b, nb, Crc32(a, na)) is the CRC of a then b.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Append-only byte builder.
class Encoder {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { U64(v); }
  void U64(uint64_t v);  ///< Unsigned LEB128, 1-10 bytes.
  void I64(int64_t v);   ///< Zigzag, then LEB128.
  void I32(int32_t v) { I64(v); }
  void F64(double v);    ///< 8 raw bytes.
  void Str(std::string_view s);

  void Hlc(const HlcTimestamp& ts);
  void Val(const Value& v);
  void EncodeRow(const Row& r);
  void EncodeIdRow(const IdRow& r);
  void EncodeIdRows(const std::vector<IdRow>& rows);
  void EncodeChangeRow(const ChangeRow& c);
  void EncodeChangeSet(const ChangeSet& cs);
  void EncodeSchema(const Schema& s);
  void EncodeTableVersion(const TableVersion& v);

  const std::string& buf() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Deepest array nesting Decoder::Val() accepts. Val() recurses once per
/// nested kArray, so without a bound a CRC-valid payload of a million
/// nested one-element arrays (2 MB) overflows the stack inside Recover. The
/// engine builds nesting only through one array_construct call or one DT
/// layer per level, so 1,024 levels is far deeper than any value it writes.
constexpr int kMaxValueDepth = 1024;

/// Sequential reader over an encoded buffer. On underflow, a bad tag, a
/// value nested deeper than kMaxValueDepth arrays, or a non-canonical
/// varint (overlong, longer than 10 bytes, past 64 bits, or out of range for
/// a U32/I32 field) the decoder latches a failure and every further read
/// returns a zero value; callers decode a whole payload and then check ok()
/// once. Element counts never reserve more elements than bytes remain, since
/// every element takes at least one byte.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  uint8_t U8();
  bool Bool() { return U8() != 0; }
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  int32_t I32();
  double F64();
  std::string Str();

  HlcTimestamp Hlc();
  Value Val();
  Row DecodeRow();
  IdRow DecodeIdRow();
  std::vector<IdRow> DecodeIdRows();
  ChangeRow DecodeChangeRow();
  ChangeSet DecodeChangeSet();
  Schema DecodeSchema();
  TableVersion DecodeTableVersion();

  bool ok() const { return ok_; }
  /// True when the payload was fully consumed without errors.
  bool done() const { return ok_ && pos_ == data_.size(); }
  Status status() const {
    return ok_ ? OkStatus() : Corruption("malformed persist record");
  }

 private:
  bool Need(size_t n);
  /// `n` capped at the bytes left: every element takes at least one byte,
  /// so a count-driven reserve never exceeds what the payload can hold.
  size_t Reservable(uint32_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Arrays Val() is currently inside.
  bool ok_ = true;
};

/// One framed record as read back from a file.
struct FramedRecord {
  uint8_t type = 0;
  std::string payload;
  /// Byte offset one past this record's frame — the truncation points the
  /// crash-point property test cuts at.
  uint64_t end_offset = 0;
};

/// Append-only framed record file (WAL segment or checkpoint). Not
/// thread-safe; the WAL writer wraps it in a mutex.
class RecordFileWriter {
 public:
  RecordFileWriter() = default;
  ~RecordFileWriter() { Close(); }
  RecordFileWriter(const RecordFileWriter&) = delete;
  RecordFileWriter& operator=(const RecordFileWriter&) = delete;

  Status Open(const std::string& path, uint32_t magic, uint64_t seq);
  Status Append(uint8_t type, std::string_view payload);
  void Close();

  bool is_open() const { return file_ != nullptr; }
  /// Bytes written including the header and frame overhead.
  uint64_t bytes_written() const { return bytes_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;  ///< Fault-injection scope (and error messages).
  uint64_t bytes_ = 0;
  /// Set when a failed write left a torn frame that could not be rewound:
  /// the file ends mid-frame, so any further append would land *after* the
  /// corruption and be unreachable by recovery (which truncates at the first
  /// bad frame). Refusing further appends turns silent record loss into an
  /// explicit, surfaced durability stop.
  bool poisoned_ = false;
};

/// A fully parsed record file.
struct RecordFile {
  uint64_t seq = 0;
  std::vector<FramedRecord> records;
  /// True when parsing stopped at an incomplete/corrupt tail frame.
  bool torn_tail = false;
  /// Torn-tail diagnostics (`wal_dump --verify`): byte offset of the first
  /// bad frame and what check failed there ("CRC mismatch ...", "frame
  /// truncated ...").
  uint64_t torn_offset = 0;
  std::string torn_reason;
};

/// Reads a framed record file. With `tolerate_torn_tail` (WAL semantics) a
/// bad frame ends the record list and sets torn_tail; without it (checkpoint
/// semantics) a bad frame fails the whole read. A bad header always fails.
Result<RecordFile> ReadRecordFile(const std::string& path, uint32_t magic,
                                  bool tolerate_torn_tail);

}  // namespace persist
}  // namespace dvs

#endif  // DVS_PERSIST_FORMAT_H_
