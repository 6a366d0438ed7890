#include "common/binary_io.h"

#include <array>

namespace ganswer {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
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
