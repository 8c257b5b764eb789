#include "persist/format.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "fault/injector.h"

namespace dvs {
namespace persist {

// The file and frame headers and F64 payloads are documented (and
// fingerprint-compared) as little-endian; they memcpy native byte order, so
// enforce the equivalence at compile time rather than silently writing a
// byte-swapped file on an exotic host.
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "persist file format requires a little-endian host");
#endif

namespace {

/// IEEE CRC32 table, generated at first use.
const uint32_t* CrcTable() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic, version, seq
constexpr size_t kFrameHeaderSize = 4 + 4;  // len, crc

/// Fixed-width little-endian fields of the file and frame headers.
template <typename T>
void PutFixed(char* out, T v) {
  std::memcpy(out, &v, sizeof(T));
}

template <typename T>
T GetFixed(const char* in) {
  T v;
  std::memcpy(&v, in, sizeof(T));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const uint32_t* table = CrcTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Encoder::U64(uint64_t v) {
  char b[10];
  size_t n = 0;
  while (v >= 0x80) {
    b[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  b[n++] = static_cast<char>(v);
  buf_.append(b, n);
}

void Encoder::I64(int64_t v) {
  // Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... so small magnitudes of
  // either sign take one byte.
  const uint64_t u = static_cast<uint64_t>(v);
  U64((u << 1) ^ (v < 0 ? ~uint64_t{0} : 0));
}

void Encoder::F64(double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  buf_.append(b, 8);
}

void Encoder::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void Encoder::Hlc(const HlcTimestamp& ts) {
  I64(ts.physical);
  U32(ts.logical);
}

void Encoder::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      Bool(v.bool_value());
      break;
    case DataType::kInt64:
      I64(v.int_value());
      break;
    case DataType::kDouble:
      F64(v.double_value());
      break;
    case DataType::kString:
      Str(v.string_value());
      break;
    case DataType::kTimestamp:
      I64(v.timestamp_value());
      break;
    case DataType::kArray: {
      const Array& a = v.array_value();
      U32(static_cast<uint32_t>(a.size()));
      for (const Value& item : a) Val(item);
      break;
    }
  }
}

void Encoder::EncodeRow(const Row& r) {
  U32(static_cast<uint32_t>(r.size()));
  for (const Value& v : r) Val(v);
}

void Encoder::EncodeIdRow(const IdRow& r) {
  U64(r.id);
  EncodeRow(r.values);
}

void Encoder::EncodeIdRows(const std::vector<IdRow>& rows) {
  U32(static_cast<uint32_t>(rows.size()));
  for (const IdRow& r : rows) EncodeIdRow(r);
}

void Encoder::EncodeChangeRow(const ChangeRow& c) {
  U8(c.action == ChangeAction::kInsert ? 0 : 1);
  U64(c.row_id);
  EncodeRow(c.values);
}

void Encoder::EncodeChangeSet(const ChangeSet& cs) {
  U32(static_cast<uint32_t>(cs.size()));
  for (const ChangeRow& c : cs) EncodeChangeRow(c);
}

void Encoder::EncodeSchema(const Schema& s) {
  U32(static_cast<uint32_t>(s.size()));
  for (const Column& c : s.columns()) {
    Str(c.name);
    U8(static_cast<uint8_t>(c.type));
  }
}

void Encoder::EncodeTableVersion(const TableVersion& v) {
  U64(v.id);
  Hlc(v.commit_ts);
  auto ids = [this](const std::vector<PartitionId>& pids) {
    U32(static_cast<uint32_t>(pids.size()));
    for (PartitionId p : pids) U64(p);
  };
  ids(v.live);
  ids(v.added);
  ids(v.removed);
  U64(v.row_count);
  Bool(v.data_equivalent);
}

bool Decoder::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

size_t Decoder::Reservable(uint32_t n) const {
  return std::min<size_t>(n, data_.size() - pos_);
}

uint8_t Decoder::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint64_t Decoder::U64() {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (!Need(1)) return 0;
    const uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    // The 10th byte holds bit 63 alone: anything more is past 64 bits or an
    // 11th byte.
    if (shift == 63 && b > 1) break;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // A zero final byte after the first is an overlong encoding.
      if (b == 0 && shift > 0) break;
      return v;
    }
  }
  ok_ = false;
  return 0;
}

uint32_t Decoder::U32() {
  const uint64_t v = U64();
  if (v > std::numeric_limits<uint32_t>::max()) {
    ok_ = false;
    return 0;
  }
  return static_cast<uint32_t>(v);
}

int64_t Decoder::I64() {
  const uint64_t u = U64();
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

int32_t Decoder::I32() {
  const int64_t v = I64();
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    ok_ = false;
    return 0;
  }
  return static_cast<int32_t>(v);
}

double Decoder::F64() {
  if (!Need(8)) return 0;
  double v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::string Decoder::Str() {
  uint32_t n = U32();
  if (!Need(n)) return "";
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

HlcTimestamp Decoder::Hlc() {
  HlcTimestamp ts;
  ts.physical = I64();
  ts.logical = U32();
  return ts;
}

Value Decoder::Val() {
  uint8_t tag = U8();
  if (!ok_) return Value::Null();
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(Bool());
    case DataType::kInt64:
      return Value::Int(I64());
    case DataType::kDouble:
      return Value::Double(F64());
    case DataType::kString:
      return Value::String(Str());
    case DataType::kTimestamp:
      return Value::Timestamp(I64());
    case DataType::kArray: {
      if (depth_ == kMaxValueDepth) break;
      uint32_t n = U32();
      Array items;
      ++depth_;
      for (uint32_t i = 0; i < n && ok_; ++i) items.push_back(Val());
      --depth_;
      return Value::MakeArray(std::move(items));
    }
  }
  ok_ = false;
  return Value::Null();
}

Row Decoder::DecodeRow() {
  uint32_t n = U32();
  Row r;
  r.reserve(Reservable(n));
  for (uint32_t i = 0; i < n && ok_; ++i) r.push_back(Val());
  return r;
}

IdRow Decoder::DecodeIdRow() {
  IdRow r;
  r.id = U64();
  r.values = DecodeRow();
  return r;
}

std::vector<IdRow> Decoder::DecodeIdRows() {
  uint32_t n = U32();
  std::vector<IdRow> rows;
  rows.reserve(Reservable(n));
  for (uint32_t i = 0; i < n && ok_; ++i) rows.push_back(DecodeIdRow());
  return rows;
}

ChangeRow Decoder::DecodeChangeRow() {
  ChangeRow c;
  c.action = U8() == 0 ? ChangeAction::kInsert : ChangeAction::kDelete;
  c.row_id = U64();
  c.values = DecodeRow();
  return c;
}

ChangeSet Decoder::DecodeChangeSet() {
  uint32_t n = U32();
  ChangeSet cs;
  cs.reserve(Reservable(n));
  for (uint32_t i = 0; i < n && ok_; ++i) cs.push_back(DecodeChangeRow());
  return cs;
}

Schema Decoder::DecodeSchema() {
  uint32_t n = U32();
  Schema s;
  for (uint32_t i = 0; i < n && ok_; ++i) {
    std::string name = Str();
    DataType type = static_cast<DataType>(U8());
    s.AddColumn(std::move(name), type);
  }
  return s;
}

TableVersion Decoder::DecodeTableVersion() {
  TableVersion v;
  v.id = U64();
  v.commit_ts = Hlc();
  auto ids = [this](std::vector<PartitionId>* out) {
    uint32_t n = U32();
    for (uint32_t i = 0; i < n && ok_; ++i) out->push_back(U64());
  };
  ids(&v.live);
  ids(&v.added);
  ids(&v.removed);
  v.row_count = U64();
  v.data_equivalent = Bool();
  return v;
}

Status RecordFileWriter::Open(const std::string& path, uint32_t magic,
                              uint64_t seq) {
  Close();
  // Chaos site: simulated open failure (disk full, permission flap). With a
  // scope_filter on the path it targets one file kind — e.g. checkpoint
  // rotation failure without touching the WAL.
  if (fault::FaultInjector* inj = fault::ActiveInjector()) {
    DVS_RETURN_IF_ERROR(inj->Check(fault::kSitePersistFileOpen, path));
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Internal("cannot open '" + path + "' for writing");
  }
  char header[kHeaderSize];
  PutFixed<uint32_t>(header, magic);
  PutFixed<uint32_t>(header + 4, kFormatVersion);
  PutFixed<uint64_t>(header + 8, seq);
  if (std::fwrite(header, 1, kHeaderSize, file_) != kHeaderSize) {
    Close();
    return Internal("short write of header to '" + path + "'");
  }
  std::fflush(file_);
  path_ = path;
  bytes_ = kHeaderSize;
  return OkStatus();
}

Status RecordFileWriter::Append(uint8_t type, std::string_view payload) {
  if (file_ == nullptr) return Internal("record file not open");
  if (poisoned_) {
    return Internal("record file has a torn frame after a failed write; "
                    "appends disabled");
  }
  // Chaos site: append-time faults, scoped by file path. kError fails before
  // touching the file; kShortWrite leaves a torn frame (driving the rewind /
  // poison path below); kCorruptByte flips a payload byte after the CRC is
  // computed, so the frame reads back as a CRC mismatch.
  bool simulate_short_write = false;
  bool corrupt_byte = false;
  if (fault::FaultInjector* inj = fault::ActiveInjector()) {
    if (auto fault = inj->Evaluate(fault::kSitePersistFileAppend, path_)) {
      switch (fault->kind) {
        case fault::FaultKind::kError:
          return fault->ToStatus();
        case fault::FaultKind::kShortWrite:
          simulate_short_write = true;
          break;
        case fault::FaultKind::kCorruptByte:
          corrupt_byte = true;
          break;
      }
    }
  }
  // The frame body is the type byte then the payload. The CRC chains over
  // both and they are written in place; only an injected corrupt byte
  // copies the body, to flip a byte of it after the CRC is computed.
  const char type_byte = static_cast<char>(type);
  const size_t body_size = payload.size() + 1;
  char head[kFrameHeaderSize];
  PutFixed<uint32_t>(head, static_cast<uint32_t>(body_size));
  const uint32_t crc =
      Crc32(payload.data(), payload.size(), Crc32(&type_byte, 1));
  PutFixed<uint32_t>(head + 4, crc);
  std::string_view first(&type_byte, 1);
  std::string_view rest = payload;
  std::string corrupted;
  if (corrupt_byte) {
    corrupted.reserve(body_size);
    corrupted.push_back(type_byte);
    corrupted.append(payload);
    char& flip = corrupted[body_size / 2];
    flip = static_cast<char>(flip ^ 0x40);
    first = corrupted;
    rest = {};
  }
  // A simulated short write stops after half the body.
  size_t budget = simulate_short_write ? body_size / 2 : body_size;
  auto put = [&](std::string_view piece) {
    const size_t n = std::min(piece.size(), budget);
    budget -= n;
    return n == 0 || std::fwrite(piece.data(), 1, n, file_) == n;
  };
  if (std::fwrite(head, 1, kFrameHeaderSize, file_) != kFrameHeaderSize ||
      !put(first) || !put(rest) || simulate_short_write) {
    // A short write leaves a torn frame. Rewind to the last intact record so
    // later appends stay inside the replayable prefix; if the rewind itself
    // fails, poison the writer — appending past the corruption would be
    // unreachable by recovery, which stops at the first bad frame.
    std::fflush(file_);
    if (::ftruncate(::fileno(file_), static_cast<off_t>(bytes_)) != 0 ||
        std::fseek(file_, static_cast<long>(bytes_), SEEK_SET) != 0) {
      poisoned_ = true;
    }
    return Internal("short write appending persist record");
  }
  std::fflush(file_);
  bytes_ += kFrameHeaderSize + body_size;
  return OkStatus();
}

void RecordFileWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

Result<RecordFile> ReadRecordFile(const std::string& path, uint32_t magic,
                                  bool tolerate_torn_tail) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("cannot open '" + path + "'");
  std::string data;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  std::fclose(f);

  if (data.size() < kHeaderSize) {
    return Corruption("'" + path + "' is shorter than a file header");
  }
  uint32_t got_magic = GetFixed<uint32_t>(data.data());
  uint32_t version = GetFixed<uint32_t>(data.data() + 4);
  RecordFile out;
  out.seq = GetFixed<uint64_t>(data.data() + 8);
  if (got_magic != magic) {
    return Corruption("'" + path + "' has wrong magic");
  }
  if (version != kFormatVersion) {
    return Unsupported("'" + path + "' uses format version " +
                       std::to_string(version));
  }

  size_t pos = kHeaderSize;
  while (pos < data.size()) {
    std::string bad;
    FramedRecord rec;
    if (data.size() - pos < kFrameHeaderSize) {
      bad = "incomplete frame header (" + std::to_string(data.size() - pos) +
            " of 8 bytes)";
    } else {
      uint32_t len = GetFixed<uint32_t>(data.data() + pos);
      uint32_t crc = GetFixed<uint32_t>(data.data() + pos + 4);
      size_t remain = data.size() - pos - kFrameHeaderSize;
      if (len < 1 || remain < len) {
        bad = "frame body truncated (declares " + std::to_string(len) +
              " bytes, " + std::to_string(remain) + " remain)";
      } else {
        std::string_view body =
            std::string_view(data).substr(pos + kFrameHeaderSize, len);
        uint32_t computed = Crc32(body.data(), body.size());
        if (computed != crc) {
          char why[64];
          std::snprintf(why, sizeof(why),
                        "CRC mismatch (stored %08x, computed %08x)", crc,
                        computed);
          bad = why;
        } else {
          rec.type = static_cast<uint8_t>(body[0]);
          rec.payload = std::string(body.substr(1));
          pos += kFrameHeaderSize + len;
          rec.end_offset = pos;
        }
      }
    }
    if (!bad.empty()) {
      if (!tolerate_torn_tail) {
        return Corruption("corrupt record frame in '" + path + "' at offset " +
                          std::to_string(pos) + ": " + bad);
      }
      out.torn_tail = true;
      out.torn_offset = pos;
      out.torn_reason = std::move(bad);
      break;
    }
    out.records.push_back(std::move(rec));
  }
  return out;
}

}  // namespace persist
}  // namespace dvs
