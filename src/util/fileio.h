// Whole-file read/write with Status error mapping, shared by the stores.
#ifndef SVX_UTIL_FILEIO_H_
#define SVX_UTIL_FILEIO_H_

#include <string>
#include <string_view>

#include "src/util/status.h"

namespace svx {

/// Writes `bytes` to `path`, truncating. Binary-safe.
[[nodiscard]] Status WriteFileBytes(const std::string& path,
                                    std::string_view bytes);

/// Writes `bytes` to `path` via `path`.tmp and a rename, so readers (and
/// crash recovery) never observe a half-written file.
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     std::string_view bytes);

/// Reads all of `path`. Binary-safe.
[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace svx

#endif  // SVX_UTIL_FILEIO_H_
