#include "src/util/fileio.h"

#include <filesystem>
#include <fstream>

#include "src/util/check.h"

namespace svx {

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal("short write: " + path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  SVX_RETURN_IF_ERROR(WriteFileBytes(tmp, bytes));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot rename " + tmp + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace svx
