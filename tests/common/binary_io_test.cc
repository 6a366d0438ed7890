#include "common/binary_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace ganswer {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32(data.data(), data.size());
  uint32_t chained = Crc32(data.data(), 10);
  chained = Crc32(data.data() + 10, data.size() - 10, chained);
  EXPECT_EQ(chained, one_shot);
}

// The plain bytewise table CRC, one lookup per byte: the reference the
// slicing-by-8 Crc32 must equal on every length, alignment and seed.
uint32_t ReferenceCrc32(const void* data, size_t n, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-67 cover the word loop, the byte tail and both together;
  // start offsets 0-7 cover every alignment of the 8-byte loads.
  const std::vector<uint8_t> bytes = RandomBytes(8 + 67, 7);
  for (uint32_t seed : {0u, 0xdeadbeefu}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t n = 0; n <= 67; ++n) {
        ASSERT_EQ(Crc32(bytes.data() + offset, n, seed),
                  ReferenceCrc32(bytes.data() + offset, n, seed))
            << "seed " << seed << " offset " << offset << " length " << n;
      }
    }
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceOnOneMegabyte) {
  const std::vector<uint8_t> bytes = RandomBytes(1 << 20, 11);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            ReferenceCrc32(bytes.data(), bytes.size()));
  EXPECT_EQ(Crc32(bytes.data(), bytes.size(), 0x12345678u),
            ReferenceCrc32(bytes.data(), bytes.size(), 0x12345678u));
}

TEST(Crc32Test, ChainingMatchesOneShotAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(67, 13);
  const uint32_t one_shot = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(one_shot, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head),
              one_shot)
        << "split at " << split;
  }
}

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeefu);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteDouble(3.5);
  w.WriteString("hello");
  std::string bytes = w.Release();

  BinaryReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, VarintBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  BinaryWriter w;
  for (uint64_t v : values) w.WriteVarint(v);
  std::string bytes = w.Release();
  BinaryReader r(bytes);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.ReadVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, PodVectorRoundTrip) {
  struct Pair {
    uint32_t a;
    uint32_t b;
  };
  std::vector<Pair> in = {{1, 2}, {3, 4}, {0xffffffffu, 0}};
  BinaryWriter w;
  w.WritePodVector(in);
  std::string bytes = w.Release();
  BinaryReader r(bytes);
  std::vector<Pair> out;
  ASSERT_TRUE(r.ReadPodVector(&out).ok());
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].a, in[i].a);
    EXPECT_EQ(out[i].b, in[i].b);
  }
}

TEST(BinaryIoTest, BoolVectorRoundTrip) {
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 100u}) {
    std::vector<bool> in(n);
    for (size_t i = 0; i < n; ++i) in[i] = (i % 3) == 0;
    BinaryWriter w;
    w.WriteBoolVector(in);
    std::string bytes = w.Release();
    BinaryReader r(bytes);
    std::vector<bool> out;
    ASSERT_TRUE(r.ReadBoolVector(&out).ok());
    EXPECT_EQ(out, in) << "n=" << n;
  }
}

TEST(BinaryIoTest, TruncatedReadsFailWithCorruption) {
  BinaryWriter w;
  w.WriteU64(42);
  w.WriteString("payload");
  std::string bytes = w.Release();
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    BinaryReader r(std::string_view(bytes).substr(0, cut));
    uint64_t v = 0;
    std::string s;
    Status st = r.ReadU64(&v);
    if (st.ok()) st = r.ReadString(&s);
    EXPECT_FALSE(st.ok()) << "prefix length " << cut;
  }
}

TEST(BinaryIoTest, CorruptCountIsRejectedBeforeAllocation) {
  // A varint count far larger than the remaining bytes must not resize,
  // including counts near 2^64 where rounding up to whole bytes wraps.
  for (uint64_t count : {std::numeric_limits<uint64_t>::max() / 2,
                         std::numeric_limits<uint64_t>::max()}) {
    SCOPED_TRACE(count);
    BinaryWriter w;
    w.WriteVarint(count);
    w.WriteZeros(16);
    std::string bytes = w.Release();
    {
      BinaryReader r(bytes);
      std::vector<uint64_t> out;
      EXPECT_TRUE(r.ReadPodVector(&out).IsCorruption());
      EXPECT_TRUE(out.empty());
    }
    {
      BinaryReader r(bytes);
      std::vector<bool> out;
      EXPECT_TRUE(r.ReadBoolVector(&out).IsCorruption());
      EXPECT_TRUE(out.empty());
    }
    {
      BinaryReader r(bytes);
      uint64_t read = 0;
      EXPECT_TRUE(r.ReadCount(&read).IsCorruption());
    }
  }
  // ReadCount accepts a count of at most the remaining bytes.
  BinaryWriter w;
  w.WriteVarint(3);
  w.WriteZeros(3);
  std::string bytes = w.Release();
  BinaryReader r(bytes);
  uint64_t read = 0;
  ASSERT_TRUE(r.ReadCount(&read).ok());
  EXPECT_EQ(read, 3u);
}

TEST(BinaryIoTest, OverlongVarintIsRejected) {
  // 10 continuation bytes encode more than 64 bits.
  std::string bytes(11, static_cast<char>(0x80));
  bytes.back() = 0x01;
  BinaryReader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.ReadVarint(&v).ok());
}

TEST(BinaryIoTest, ReadStringViewIsZeroCopy) {
  BinaryWriter w;
  w.WriteString("abcdef");
  std::string bytes = w.Release();
  BinaryReader r(bytes);
  std::string_view sv;
  ASSERT_TRUE(r.ReadStringView(&sv).ok());
  EXPECT_EQ(sv, "abcdef");
  EXPECT_GE(sv.data(), bytes.data());
  EXPECT_LT(sv.data(), bytes.data() + bytes.size());
}

}  // namespace
}  // namespace ganswer
