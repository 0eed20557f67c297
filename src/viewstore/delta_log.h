// Per-shard write-ahead delta log: the durability half of the sharded
// catalog. A maintenance pass appends one checksummed record describing the
// tuple-level view deltas it is about to publish; crash recovery replays the
// log on top of the last persisted extents instead of re-materializing.
//
// On-disk format (little-endian), reusing the PR-5 crash-safe conventions
// (generation-suffixed immutable names, sweep of unreferenced files):
//
//   segment file:  wal.<generation>.log
//     header:      "SVXW" u32(version = 1)
//     record*:     u32 payload_len, u32 crc32(payload), payload
//   payload:       u64 epoch, u32 nviews, per view:
//                    str view_name
//                    u32 ndeletes, ndeletes x str delete_key (EncodeTupleKey)
//                    str inserts_bytes (SerializeColumnarExtent of the
//                                       inserted rows, extent_io.h; empty
//                                       when the view had no inserts)
//   str = u32 length + bytes (src/util/bytes.h).
//
// Insert payloads use the one extent format the store reads, so a segment
// written before it (version-1 row-major inserts) fails replay with the
// payload's extent-version error; such a store is rebuilt from the document
// unless a Save has emptied its log.
//
// Torn-write contract: a record is visible iff its length prefix, checksum
// and payload all parse. A torn tail (partial final record after a crash
// mid-append) is tolerated only in the newest segment, where ReadSegment
// truncates the file back to the last valid record; torn bytes in any older
// segment are corruption and fail recovery. Rotation on successful Save
// bumps the generation and the manifest's WAL floor, so stale segments are
// never replayed even if a crash leaves them on disk until the next sweep.
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

/// Tuple-level delta for one view inside one WAL record. Delete keys are
/// EncodeTupleKey encodings (rebind-invariant), inserts are a version-2
/// extent holding only the inserted rows.
struct WalViewDelta {
  std::string view;
  std::vector<std::string> delete_keys;
  std::string inserts_bytes;
};

/// One maintenance pass's durable delta: the epoch it published and the
/// per-view tuple changes relative to the previous epoch.
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
  /// unparseable bytes at the end are treated as a torn final record: the
  /// file is truncated back to the last valid record (counted in
  /// svx_wal_torn_truncations_total) and the call succeeds; without it the
  /// same condition is a ParseError.
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
