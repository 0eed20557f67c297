#include "src/viewstore/delta_log.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "src/observability/metrics.h"
#include "src/util/bytes.h"
#include "src/util/fileio.h"
#include "src/util/strings.h"

namespace svx {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'S', 'V', 'X', 'W'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 8;   // magic + version
constexpr size_t kFrameSize = 8;    // payload_len + crc32

std::string SegmentHeader() {
  std::string header(kMagic, sizeof(kMagic));
  PutU32(kVersion, &header);
  return header;
}

}  // namespace

uint32_t DeltaLog::Crc32(std::string_view bytes) {
  static const uint32_t* const table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string DeltaLog::SegmentFileName(uint64_t generation) {
  return StrFormat("wal.%llu.log", static_cast<unsigned long long>(generation));
}

bool DeltaLog::ParseSegmentFileName(std::string_view name,
                                    uint64_t* generation) {
  constexpr std::string_view kPrefix = "wal.";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  std::string_view digits =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  uint64_t gen = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  // Only SegmentFileName's own spelling names a generation: an overflowing
  // or zero-padded name would alias a live segment.
  if (SegmentFileName(gen) != name) return false;
  *generation = gen;
  return true;
}

std::string DeltaLog::EncodePayload(const WalRecord& record) {
  std::string out;
  PutU64(record.epoch, &out);
  PutU32(static_cast<uint32_t>(record.views.size()), &out);
  for (const WalViewDelta& v : record.views) {
    PutString(v.view, &out);
    PutString(v.extent, &out);
    PutString(v.stats, &out);
  }
  return out;
}

Result<WalRecord> DeltaLog::DecodePayload(std::string_view bytes) {
  ByteReader r(bytes);
  WalRecord record;
  uint32_t nviews = 0;
  // The count is held to the remaining input before anything is allocated
  // for it: a view entry takes at least 12 bytes.
  if (!r.GetU64(&record.epoch) || !r.GetU32(&nviews) ||
      nviews > r.Remaining() / 12) {
    return Status::ParseError("WAL record payload truncated");
  }
  record.views.resize(nviews);
  for (WalViewDelta& v : record.views) {
    if (!r.GetString(&v.view) || !r.GetString(&v.extent) ||
        !r.GetString(&v.stats)) {
      return Status::ParseError("WAL record payload truncated");
    }
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes in WAL record payload");
  }
  return record;
}

DeltaLog::~DeltaLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<DeltaLog>> DeltaLog::Open(const std::string& dir,
                                                 uint64_t generation) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(
        StrFormat("cannot create WAL directory %s: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  std::string path = (fs::path(dir) / SegmentFileName(generation)).string();
  // "a+b" creates when missing and positions every write at EOF, which is
  // exactly the append-only contract; ftell after a seek gives the resume
  // offset so we know whether the header is already present.
  std::FILE* f = std::fopen(path.c_str(), "a+b");
  if (f == nullptr) {
    return Status::Internal(
        StrFormat("cannot open WAL segment %s", path.c_str()));
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::Internal(StrFormat("cannot seek WAL %s", path.c_str()));
  }
  long size = std::ftell(f);
  if (size == 0) {
    const std::string header = SegmentHeader();
    if (std::fwrite(header.data(), 1, header.size(), f) != header.size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      return Status::Internal(
          StrFormat("cannot write WAL header to %s", path.c_str()));
    }
    metrics::WalBytesWritten()->Add(static_cast<int64_t>(header.size()));
  }
  return std::unique_ptr<DeltaLog>(
      new DeltaLog(std::move(path), generation, f));
}

Status DeltaLog::Append(const WalRecord& record) {
  std::string payload = EncodePayload(record);
  std::string frame;
  frame.reserve(kFrameSize + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  frame += payload;
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal(
        StrFormat("WAL append to %s failed", path_.c_str()));
  }
  ++records_appended_;
  bytes_appended_ += static_cast<int64_t>(frame.size());
  metrics::WalRecordsAppended()->Add(1);
  metrics::WalBytesWritten()->Add(static_cast<int64_t>(frame.size()));
  return Status::OK();
}

Result<std::vector<WalRecord>> DeltaLog::ReadSegment(const std::string& path,
                                                     bool truncate_torn_tail) {
  Result<std::string> bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();
  std::vector<WalRecord> records;
  size_t pos = kHeaderSize;
  if (truncate_torn_tail && bytes.size() < kHeaderSize &&
      SegmentHeader().compare(0, bytes.size(), bytes) == 0) {
    // A crash while Open creates the segment leaves a prefix of its header:
    // a torn write like a partial record (Open rewrites the header).
    pos = 0;
  } else {
    if (bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::ParseError(
          StrFormat("%s is not a WAL segment", path.c_str()));
    }
    ByteReader header(bytes, sizeof(kMagic));
    uint32_t version = 0;
    (void)header.GetU32(&version);
    if (version != kVersion) {
      return Status::ParseError(StrFormat("unsupported WAL version %u in %s",
                                          version, path.c_str()));
    }
  }
  while (pos < bytes.size()) {
    // A record is valid iff the frame fits, the checksum matches and the
    // payload parses; anything else from `pos` onward is the torn tail.
    bool torn = true;
    if (bytes.size() - pos >= kFrameSize) {
      ByteReader frame(bytes, pos);
      uint32_t len = 0;
      uint32_t crc = 0;
      (void)frame.GetU32(&len);
      (void)frame.GetU32(&crc);
      if (bytes.size() - pos - kFrameSize >= len) {
        std::string_view payload =
            std::string_view(bytes).substr(pos + kFrameSize, len);
        if (Crc32(payload) == crc) {
          Result<WalRecord> rec = DecodePayload(payload);
          if (rec.ok()) {
            records.push_back(std::move(rec).value());
            pos += kFrameSize + len;
            torn = false;
          }
        }
      }
    }
    if (torn) {
      if (!truncate_torn_tail) {
        return Status::ParseError(StrFormat(
            "torn or corrupt WAL record at offset %zu in %s", pos,
            path.c_str()));
      }
      std::error_code ec;
      fs::resize_file(path, pos, ec);
      if (ec) {
        return Status::Internal(
            StrFormat("cannot truncate torn WAL tail of %s: %s", path.c_str(),
                      ec.message().c_str()));
      }
      metrics::WalTornTruncations()->Add(1);
      break;
    }
  }
  return records;
}

Result<std::vector<WalRecord>> DeltaLog::Replay(const std::string& dir,
                                                uint64_t min_generation,
                                                uint64_t min_epoch) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (!ParseSegmentFileName(entry.path().filename().string(), &gen)) {
      continue;
    }
    if (gen < min_generation) continue;
    segments.emplace_back(gen, entry.path().string());
  }
  if (ec) {
    return Status::Internal(StrFormat("cannot list WAL directory %s: %s",
                                      dir.c_str(), ec.message().c_str()));
  }
  std::sort(segments.begin(), segments.end());

  std::vector<WalRecord> out;
  for (size_t i = 0; i < segments.size(); ++i) {
    bool newest = i + 1 == segments.size();
    Result<std::vector<WalRecord>> records =
        ReadSegment(segments[i].second, /*truncate_torn_tail=*/newest);
    if (!records.ok()) return records.status();
    for (WalRecord& r : records.value()) {
      if (r.epoch <= min_epoch) continue;
      out.push_back(std::move(r));
    }
  }
  metrics::WalReplays()->Add(static_cast<int64_t>(out.size()));
  return out;
}

int DeltaLog::SweepSegments(const std::string& dir, uint64_t keep_generation) {
  int removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (!ParseSegmentFileName(entry.path().filename().string(), &gen)) {
      continue;
    }
    if (gen >= keep_generation) continue;
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec)) ++removed;
  }
  return removed;
}

}  // namespace svx
