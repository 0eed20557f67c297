// Per-shard write-ahead delta log: the durability half of the sharded
// catalog. A maintenance pass appends one checksummed record holding, for
// every view it re-encoded, the bytes a checkpoint would write for that
// view's files; crash recovery installs the last logged entry of each view
// on top of the last persisted extents instead of re-materializing.
//
// On-disk format (little-endian), with the store's crash-safe conventions
// (generation-suffixed immutable names, sweep of unreferenced files):
//
//   segment file:  wal.<generation>.log
//     header:      "SVXW" u32(version = 2)
//     record*:     u32 payload_len, u32 crc32(payload), payload
//   payload:       u64 epoch, u32 nviews, per view:
//                    str view_name
//                    str extent (SerializeColumnarExtent, extent_io.h: the
//                                view's .extent file bytes)
//                    str stats  (ViewStatsToString, statistics.h: the
//                                view's .stats file text)
//   str = u32 length + bytes (src/util/bytes.h).
//
// Replay decodes, sorts and re-encodes nothing: the catalog installs each
// view's last logged entry through the same function that installs a
// manifest's .extent/.stats files, and the view stays cold until scanned.
// A segment of any other version (version 1 held tuple deltas) fails replay
// naming its version; such a store is rebuilt from the document.
//
// Torn-write contract: a record is visible iff its length prefix, checksum
// and payload all parse. A torn tail (partial final record, or a partial
// header of a segment being created, after a crash) is tolerated only in
// the newest segment, where ReadSegment truncates the file back to the last
// valid record (to zero bytes for a torn header; Open rewrites it); torn
// bytes in any older segment are corruption and fail recovery. Rotation on
// successful Save bumps the generation and the manifest's WAL floor, so
// stale segments are never replayed even if a crash leaves them on disk
// until the next sweep.
#ifndef SVX_VIEWSTORE_DELTA_LOG_H_
#define SVX_VIEWSTORE_DELTA_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace svx {

/// One view's entry in a WAL record: its state after the pass, as the bytes
/// a checkpoint would write for its .extent and .stats files.
struct WalViewDelta {
  std::string view;
  std::string extent;
  std::string stats;
};

/// One maintenance pass's durable delta: the epoch it published and every
/// view the pass re-encoded.
struct WalRecord {
  uint64_t epoch = 0;
  std::vector<WalViewDelta> views;
};

/// Append handle over one WAL segment. Not thread-safe: the owning catalog
/// serializes appends under its writer mutex.
class DeltaLog {
 public:
  ~DeltaLog();
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Opens segment wal.<generation>.log in `dir` for appending, writing the
  /// header if the file is new or empty. An existing non-empty segment is
  /// appended to (recovery reopens the replayed segment).
  [[nodiscard]] static Result<std::unique_ptr<DeltaLog>> Open(
      const std::string& dir, uint64_t generation);

  /// Appends one record and flushes it to the OS. Updates
  /// svx_wal_bytes_total / svx_wal_records_total.
  [[nodiscard]] Status Append(const WalRecord& record);

  uint64_t generation() const { return generation_; }
  const std::string& path() const { return path_; }
  /// Records appended through this handle (not counting pre-existing ones).
  int64_t records_appended() const { return records_appended_; }
  int64_t bytes_appended() const { return bytes_appended_; }

  // ---- Segment naming ----
  static std::string SegmentFileName(uint64_t generation);
  /// Parses a name SegmentFileName(generation) produces; returns false for
  /// any other name, zero-padded or overflowing generations included.
  static bool ParseSegmentFileName(std::string_view name,
                                   uint64_t* generation);

  // ---- Recovery-side static helpers ----

  /// Reads every valid record of one segment. With `truncate_torn_tail`,
  /// unparseable bytes at the end, or a file holding only a prefix of the
  /// header, are treated as a torn write: the file is truncated back to the
  /// last valid record (counted in svx_wal_torn_truncations_total) and the
  /// call succeeds; without it the same condition is a ParseError.
  [[nodiscard]] static Result<std::vector<WalRecord>> ReadSegment(
      const std::string& path, bool truncate_torn_tail);

  /// Replays `dir`'s segments with generation >= min_generation in
  /// generation order, returning records with epoch > min_epoch. A torn
  /// tail is tolerated (and truncated) only in the newest such segment.
  /// Counts returned records in svx_wal_replays_total.
  [[nodiscard]] static Result<std::vector<WalRecord>> Replay(
      const std::string& dir, uint64_t min_generation, uint64_t min_epoch);

  /// Deletes segments with generation < keep_generation (the orphan sweep
  /// run by Save and Load). Returns the number of files removed.
  static int SweepSegments(const std::string& dir, uint64_t keep_generation);

  /// CRC-32 (IEEE 802.3, poly 0xEDB88320) over `bytes`.
  static uint32_t Crc32(std::string_view bytes);

  /// Serializes / parses one record payload (exposed for tests).
  static std::string EncodePayload(const WalRecord& record);
  [[nodiscard]] static Result<WalRecord> DecodePayload(std::string_view bytes);

 private:
  DeltaLog(std::string path, uint64_t generation, std::FILE* file)
      : path_(std::move(path)), generation_(generation), file_(file) {}

  std::string path_;
  uint64_t generation_;
  std::FILE* file_;
  int64_t records_appended_ = 0;
  int64_t bytes_appended_ = 0;
};

}  // namespace svx

#endif  // SVX_VIEWSTORE_DELTA_LOG_H_
