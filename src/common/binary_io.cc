#include "common/binary_io.h"

#include <array>

namespace ganswer {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the reflected
// polynomial 0xEDB88320, and kCrcTables[k][b] is the CRC of byte b followed
// by k zero bytes, so eight table lookups fold one 8-byte word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Little-endian load, whatever the host's byte order: the CRC of a byte
// string must not depend on the host (WAL frames and fingerprints travel).
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const CrcTables& t = kCrcTables;
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void BinaryWriter::WriteBoolVector(const std::vector<bool>& v) {
  WriteVarint(v.size());
  uint8_t byte = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      WriteU8(byte);
      byte = 0;
    }
  }
  if (v.size() % 8 != 0) WriteU8(byte);
}

Status BinaryReader::ReadU8(uint8_t* out) {
  GANSWER_RETURN_NOT_OK(Need(1));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status BinaryReader::ReadU32(uint32_t* out) {
  GANSWER_RETURN_NOT_OK(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::Ok();
}

Status BinaryReader::ReadU64(uint64_t* out) {
  GANSWER_RETURN_NOT_OK(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::Ok();
}

Status BinaryReader::ReadDouble(double* out) {
  GANSWER_RETURN_NOT_OK(Need(sizeof(*out)));
  std::memcpy(out, data_.data() + pos_, sizeof(*out));
  pos_ += sizeof(*out);
  return Status::Ok();
}

Status BinaryReader::ReadVarint(uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = 0;
    GANSWER_RETURN_NOT_OK(ReadU8(&byte));
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return Status::Ok();
    }
  }
  return Status::Corruption("varint longer than 64 bits");
}

Status BinaryReader::ReadCount(uint64_t* out) {
  GANSWER_RETURN_NOT_OK(ReadVarint(out));
  if (*out > remaining()) {
    return Status::Corruption("element count " + std::to_string(*out) +
                              " exceeds remaining bytes");
  }
  return Status::Ok();
}

Status BinaryReader::ReadString(std::string* out) {
  std::string_view view;
  GANSWER_RETURN_NOT_OK(ReadStringView(&view));
  out->assign(view);
  return Status::Ok();
}

Status BinaryReader::ReadStringView(std::string_view* out) {
  uint64_t len = 0;
  GANSWER_RETURN_NOT_OK(ReadVarint(&len));
  GANSWER_RETURN_NOT_OK(Need(len));
  *out = data_.substr(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::ReadBoolVector(std::vector<bool>* out) {
  uint64_t count = 0;
  GANSWER_RETURN_NOT_OK(ReadVarint(&count));
  // Checked by division: count + 7 wraps for counts near 2^64.
  if (count / 8 > remaining()) {
    return Status::Corruption("bool vector count exceeds remaining bytes");
  }
  uint64_t bytes = count / 8 + (count % 8 != 0);
  GANSWER_RETURN_NOT_OK(Need(bytes));
  out->assign(count, false);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t byte = static_cast<uint8_t>(data_[pos_ + i / 8]);
    (*out)[i] = (byte >> (i % 8)) & 1;
  }
  pos_ += bytes;
  return Status::Ok();
}

}  // namespace ganswer
