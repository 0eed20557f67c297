// Byte primitives shared by every binary format the view store writes
// (extent files and their columnar payloads, WAL segments) and by
// Summary::StructureKey: little-endian fixed-width integers,
// u32-length-prefixed strings, LEB128 varints, and the one bounds-checked
// reader that parses them back. The writers are inline because the cell
// encoder runs on every maintenance pass.
#ifndef SVX_UTIL_BYTES_H_
#define SVX_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace svx {

inline void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// u32 length + bytes.
inline void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

/// LEB128: 7 bits per byte, low groups first, high bit = more follows.
inline void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Bounds-checked cursor over bytes written with the Put* functions above.
/// Every Get* returns false when the input ends first (or a varint runs past
/// 64 bits); the caller turns that into a ParseError. The reader does not
/// own the bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  bool GetU8(uint8_t* v) {
    if (Remaining() < 1) return false;
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint64_t wide = 0;
    if (!GetLittleEndian(4, &wide)) return false;
    *v = static_cast<uint32_t>(wide);
    return true;
  }
  bool GetU64(uint64_t* v) { return GetLittleEndian(8, v); }
  bool GetVarint(uint64_t* v) {
    uint64_t value = 0;
    for (size_t i = pos_, shift = 0; i < bytes_.size() && shift <= 63;
         ++i, shift += 7) {
      const uint8_t b = static_cast<uint8_t>(bytes_[i]);
      value |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        pos_ = i + 1;
        *v = value;
        return true;
      }
    }
    return false;
  }
  /// The next `n` bytes, in place: the view points into the reader's input.
  bool GetView(size_t n, std::string_view* out) {
    if (n > Remaining()) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  /// A PutString string: u32 length + bytes.
  bool GetString(std::string* s) {
    uint32_t len = 0;
    std::string_view view;
    if (!GetU32(&len) || !GetView(len, &view)) return false;
    s->assign(view);
    return true;
  }

  size_t pos() const { return pos_; }
  /// The bytes read since position `start`, in place.
  std::string_view ConsumedSince(size_t start) const {
    return bytes_.substr(start, pos_ - start);
  }
  /// Total input length, consumed or not.
  size_t size() const { return bytes_.size(); }
  size_t Remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  bool GetLittleEndian(size_t width, uint64_t* v) {
    if (Remaining() < width) return false;
    *v = 0;
    for (size_t i = 0; i < width; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
            << (8 * i);
    }
    pos_ += width;
    return true;
  }

  std::string_view bytes_;
  size_t pos_;
};

}  // namespace svx

#endif  // SVX_UTIL_BYTES_H_
