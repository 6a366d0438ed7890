#ifndef GANSWER_COMMON_BINARY_IO_H_
#define GANSWER_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace ganswer {

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) of \p n bytes. Chain blocks
/// by passing the previous result as \p seed. Slicing-by-8: eight table
/// lookups per 8-byte word, read little-endian on any host, so the value
/// equals the bytewise table CRC everywhere.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// \brief Append-only binary encoder backing the snapshot subsystem.
///
/// Fixed-width integers are written little-endian via memcpy (the snapshot
/// header carries a byte-order mark, so a snapshot written on a weird
/// platform is rejected rather than misread). Counts and lengths use LEB128
/// varints. Vectors of trivially-copyable structs are written as one
/// contiguous memcpy so the matching read is a single bulk copy.
///
/// In aligned mode (the snapshot container) every pod-vector payload is
/// padded to an 8-byte boundary relative to the start of the buffer. No
/// reader needs the padding; it is part of the container bytes.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      WriteU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    WriteU8(static_cast<uint8_t>(v));
  }

  /// Varint length + raw bytes.
  void WriteString(std::string_view s) {
    WriteVarint(s.size());
    WriteRaw(s.data(), s.size());
  }

  /// Raw bytes, no length prefix — for container magic and concatenating
  /// pre-encoded blobs.
  void WriteBytes(std::string_view s) { WriteRaw(s.data(), s.size()); }

  /// Varint count + one contiguous memcpy of the elements. In aligned mode
  /// the element payload starts on an 8-byte boundary.
  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteVarint(v.size());
    if (aligned_ && sizeof(T) > 1) AlignTo(8);
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Varint count + bit-packed payload (vector<bool> has no contiguous
  /// storage to memcpy).
  void WriteBoolVector(const std::vector<bool>& v);

  /// Zero-pads until size() is a multiple of \p alignment.
  void AlignTo(size_t alignment) {
    while (buffer_.size() % alignment != 0) buffer_.push_back('\0');
  }

  void WriteZeros(size_t n) { buffer_.append(n, '\0'); }

  /// Overwrites previously written bytes in place — used to back-patch the
  /// snapshot section table after its payloads (and their CRCs) are known.
  void PatchU32(size_t offset, uint32_t v) { PatchRaw(offset, &v, sizeof(v)); }
  void PatchU64(size_t offset, uint64_t v) { PatchRaw(offset, &v, sizeof(v)); }

  /// True iff this writer pads pod payloads to 8-byte boundaries.
  bool aligned() const { return aligned_; }
  void set_aligned(bool aligned) { aligned_ = aligned; }

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  void WriteRaw(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }
  void PatchRaw(size_t offset, const void* data, size_t n) {
    std::memcpy(buffer_.data() + offset, data, n);
  }

  std::string buffer_;
  bool aligned_ = false;
};

/// \brief Bounds-checked binary decoder over a caller-owned byte range.
///
/// Every read validates the remaining length first and fails with
/// Status::Corruption instead of reading past the end, so a truncated or
/// garbage snapshot can never crash the loader. Element counts are checked
/// against the bytes actually remaining before any allocation, so a corrupt
/// count cannot trigger a huge resize.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadDouble(double* out);
  Status ReadVarint(uint64_t* out);
  /// Reads a varint element count and rejects it with Status::Corruption
  /// when it exceeds remaining(): every element takes at least one byte, so
  /// a larger count is corrupt. Call it before reserving for the elements.
  Status ReadCount(uint64_t* out);
  Status ReadString(std::string* out);
  /// Zero-copy view of the next length-prefixed string; valid while the
  /// underlying bytes live.
  Status ReadStringView(std::string_view* out);

  /// Varint count + one bulk copy of the elements, skipping the writer's
  /// pad bytes in aligned mode.
  template <typename T>
  Status ReadPodVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    GANSWER_RETURN_NOT_OK(ReadVarint(&count));
    if (aligned_ && sizeof(T) > 1) GANSWER_RETURN_NOT_OK(SkipAlignment(8));
    if (count > remaining() / sizeof(T)) {
      return Status::Corruption("vector count exceeds remaining bytes");
    }
    out->resize(count);
    // memcpy requires non-null pointers even for zero bytes, and an empty
    // vector's data() may be null.
    if (count != 0) {
      std::memcpy(out->data(), data_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return Status::Ok();
  }

  Status ReadBoolVector(std::vector<bool>* out);

  /// Mirrors BinaryWriter::set_aligned: skip the writer's pad bytes before
  /// pod payloads. Must match the writer that produced the bytes.
  void set_aligned(bool aligned) { aligned_ = aligned; }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status SkipAlignment(size_t alignment) {
    size_t pad = (alignment - pos_ % alignment) % alignment;
    return Skip(pad);
  }

  Status Skip(size_t n) {
    GANSWER_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::Ok();
  }

  Status Need(size_t n) {
    if (n > remaining()) {
      return Status::Corruption("truncated input: need " + std::to_string(n) +
                                " bytes, have " + std::to_string(remaining()));
    }
    return Status::Ok();
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool aligned_ = false;
};

}  // namespace ganswer

#endif  // GANSWER_COMMON_BINARY_IO_H_
