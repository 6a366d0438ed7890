// The v3 storage tier: every (encoding, load mode) combination must
// reconstruct the same bundle, the compressed container must actually be
// smaller, legacy v2 containers must be rejected, and corruption in the
// compressed sections must be rejected — through the CRC and, when the CRC
// is forged, through the decoders' own validation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace store {
namespace {

struct TierWorld {
  testing::RandomGraphData data;
  nlp::Lexicon lexicon;
  std::unique_ptr<paraphrase::ParaphraseDictionary> dict;

  TierWorld() {
    testing::RandomGraphOptions opts;
    opts.num_vertices = 400;
    opts.num_predicates = 12;
    opts.num_triples = 3000;
    opts.num_classes = 4;
    opts.literal_rate = 0.15;
    data = testing::BuildRandomGraph(77, opts);
    dict = std::make_unique<paraphrase::ParaphraseDictionary>(&lexicon);
    rdf::TermId p0 = *data.graph.Find("p0");
    paraphrase::ParaphraseEntry entry;
    entry.path.steps = {{p0, true}};
    entry.confidence = 0.9;
    dict->AddPhrase("related to", {entry});
  }
};

TierWorld& World() {
  static TierWorld* world = new TierWorld();
  return *world;
}

std::string Write(const SnapshotWriteOptions& options,
                  SnapshotStats* stats = nullptr) {
  std::string bytes;
  Status st = WriteSnapshot(World().data.graph, *World().dict, &bytes, stats,
                            options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

std::string WriteToFile(const std::string& path,
                        const SnapshotWriteOptions& options) {
  std::string bytes = Write(options);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

// The strongest equality there is: re-serializing a loaded bundle (with
// fixed writer options) must reproduce identical bytes whatever encoding or
// load path produced it.
std::string Reserialize(const Snapshot& snapshot) {
  std::string bytes;
  Status st = WriteSnapshot(*snapshot.graph, *snapshot.signatures,
                            *snapshot.entity_index, *snapshot.dictionary,
                            &bytes, nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

TEST(StorageTierTest, AllEncodingsAndLoadModesReconstructIdentically) {
  std::string raw_path = "storage_tier_raw.snap";
  std::string compressed_path = "storage_tier_compressed.snap";
  WriteToFile(raw_path, {.compress = false});
  WriteToFile(compressed_path, {.compress = true});

  auto raw_read = ReadSnapshotFile(raw_path, &World().lexicon);
  auto raw_mmap = ReadSnapshotFile(raw_path, &World().lexicon,
                                   SnapshotLoadMode::kMmap);
  auto compressed = ReadSnapshotFile(compressed_path, &World().lexicon);
  auto compressed_mmap = ReadSnapshotFile(compressed_path, &World().lexicon,
                                          SnapshotLoadMode::kMmap);
  ASSERT_TRUE(raw_read.ok()) << raw_read.status().ToString();
  ASSERT_TRUE(raw_mmap.ok()) << raw_mmap.status().ToString();
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_TRUE(compressed_mmap.ok()) << compressed_mmap.status().ToString();

  std::string reference = Reserialize(*raw_read);
  EXPECT_EQ(reference, Reserialize(*raw_mmap));
  EXPECT_EQ(reference, Reserialize(*compressed));
  EXPECT_EQ(reference, Reserialize(*compressed_mmap));

  // A mapped load actually serves columns out of the mapping; a bulk read
  // or a compressed load does not.
  EXPECT_NE(raw_mmap->mapping, nullptr);
  EXPECT_GT(raw_mmap->column_mapped_bytes(), 0u);
  EXPECT_LT(raw_mmap->column_heap_bytes(), raw_read->column_heap_bytes());
  EXPECT_EQ(raw_read->mapping, nullptr);
  EXPECT_EQ(raw_read->column_mapped_bytes(), 0u);
  EXPECT_EQ(compressed_mmap->column_mapped_bytes(), 0u);

  // The fingerprint identifies content bytes, so it tracks the encoding,
  // but both load modes of one file agree on it.
  EXPECT_EQ(raw_read->fingerprint, raw_mmap->fingerprint);
  EXPECT_EQ(compressed->fingerprint, compressed_mmap->fingerprint);

  std::remove(raw_path.c_str());
  std::remove(compressed_path.c_str());
}

TEST(StorageTierTest, CompressedContainerIsSubstantiallySmaller) {
  SnapshotStats raw_stats, compressed_stats;
  Write({.compress = false}, &raw_stats);
  Write({.compress = true}, &compressed_stats);
  EXPECT_LT(compressed_stats.total_bytes * 2, raw_stats.total_bytes)
      << "compressed " << compressed_stats.total_bytes << " vs raw "
      << raw_stats.total_bytes;
  EXPECT_LT(compressed_stats.graph_bytes, raw_stats.graph_bytes);
  EXPECT_LT(compressed_stats.signature_bytes, raw_stats.signature_bytes);
  EXPECT_LT(compressed_stats.entity_index_bytes,
            raw_stats.entity_index_bytes);
  EXPECT_LT(compressed_stats.stats_bytes, raw_stats.stats_bytes);
}

TEST(StorageTierTest, LegacyVersionTwoContainerIsRejected) {
  // v3 is the only readable layout: a container claiming version 2 (the
  // u32 after the 8-byte magic and 4-byte byte-order mark) must fail with
  // the rebuild hint instead of being parsed with the narrower v2 table.
  std::string bytes = Write({});
  bytes[12] = 2;
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

// --- Corruption handling over the compressed sections. ---

struct SectionEntry {
  uint32_t id = 0;
  uint32_t encoding = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  size_t crc_at = 0;  // file offset of the crc field, for forging
};

std::vector<SectionEntry> ParseTable(const std::string& bytes) {
  // v3 header: magic(8) bom(4) version(4) count(4), then 28-byte entries.
  std::vector<SectionEntry> sections;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 16, sizeof(count));
  size_t at = 20;
  for (uint32_t i = 0; i < count; ++i, at += 28) {
    SectionEntry e;
    std::memcpy(&e.id, bytes.data() + at, 4);
    std::memcpy(&e.encoding, bytes.data() + at + 4, 4);
    std::memcpy(&e.offset, bytes.data() + at + 8, 8);
    std::memcpy(&e.size, bytes.data() + at + 16, 8);
    e.crc_at = at + 24;
    sections.push_back(e);
  }
  return sections;
}

TEST(StorageTierTest, BitFlipsInCompressedSectionsAreRejectedByCrc) {
  std::string bytes = Write({.compress = true});
  std::vector<SectionEntry> sections = ParseTable(bytes);
  ASSERT_EQ(sections.size(), 5u);
  for (const SectionEntry& section : sections) {
    if (section.encoding !=
        static_cast<uint32_t>(SectionEncoding::kCompressed)) {
      continue;
    }
    for (uint64_t step = 0; step < section.size;
         step += 1 + section.size / 23) {
      std::string mutated = bytes;
      mutated[section.offset + step] ^= 0x40;
      auto loaded = ReadSnapshot(mutated, &World().lexicon);
      EXPECT_FALSE(loaded.ok())
          << "flip at +" << step << " in section " << section.id
          << " survived";
    }
  }
}

TEST(StorageTierTest, ForgedCrcStillFailsInCompressedDecoders) {
  // Flip payload bytes AND recompute the section CRC, so the container
  // machinery accepts the bytes and the delta/front-coding decoders
  // themselves must catch the damage (or produce a consistent bundle —
  // never crash, never accept garbage silently as something it is not).
  std::string bytes = Write({.compress = true});
  std::vector<SectionEntry> sections = ParseTable(bytes);
  size_t rejected = 0, accepted = 0;
  for (const SectionEntry& section : sections) {
    if (section.encoding !=
        static_cast<uint32_t>(SectionEncoding::kCompressed)) {
      continue;
    }
    for (uint64_t step = 0; step < section.size;
         step += 1 + section.size / 57) {
      std::string mutated = bytes;
      mutated[section.offset + step] ^= 0x81;
      uint32_t crc = Crc32(mutated.data() + section.offset, section.size);
      std::memcpy(mutated.data() + section.crc_at, &crc, sizeof(crc));
      auto loaded = ReadSnapshot(mutated, &World().lexicon);
      if (loaded.ok()) {
        ++accepted;
        ASSERT_NE(loaded->graph, nullptr);
        EXPECT_TRUE(loaded->graph->finalized());
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  SUCCEED() << accepted << " lucky mutations re-validated";
}

TEST(StorageTierTest, EveryTruncationOfCompressedContainerIsRejected) {
  std::string bytes = Write({.compress = true});
  for (size_t n = 0; n < std::min<size_t>(bytes.size(), 200); ++n) {
    EXPECT_FALSE(ReadSnapshot(bytes.substr(0, n), &World().lexicon).ok());
  }
  for (size_t n = 200; n < bytes.size(); n += 41) {
    EXPECT_FALSE(ReadSnapshot(bytes.substr(0, n), &World().lexicon).ok());
  }
}

TEST(StorageTierTest, MmapLoadRejectsCorruptFile) {
  std::string path = "storage_tier_corrupt.snap";
  std::string bytes = WriteToFile(path, {.compress = false});
  std::vector<SectionEntry> sections = ParseTable(bytes);
  std::string mutated = bytes;
  mutated[sections[0].offset + sections[0].size / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  auto loaded =
      ReadSnapshotFile(path, &World().lexicon, SnapshotLoadMode::kMmap);
  EXPECT_FALSE(loaded.ok());
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  loaded = ReadSnapshotFile(path, &World().lexicon, SnapshotLoadMode::kMmap);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(StorageTierTest, MmapLoadRejectsEmptyFile) {
  std::string path = "storage_tier_empty.snap";
  { std::ofstream out(path, std::ios::binary); }
  auto loaded =
      ReadSnapshotFile(path, &World().lexicon, SnapshotLoadMode::kMmap);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace store
}  // namespace ganswer
