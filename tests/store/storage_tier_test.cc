// The storage tier: a file load must reconstruct the same bundle as the
// in-memory load, legacy v2, v3 and v4 containers and non-raw section
// encodings must be rejected, and corruption in any section must be rejected — through the
// CRC and, when the CRC is forged, through the section loaders' own
// validation. Paths that cannot be read are I/O errors.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

std::string Write() {
  std::string bytes;
  Status st = WriteSnapshot(World().data.graph, *World().dict, &bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

std::string WriteToFile(const std::string& path) {
  std::string bytes = Write();
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

// The strongest equality there is: re-serializing a loaded bundle must
// reproduce identical bytes whatever load path produced it.
std::string Reserialize(const Snapshot& snapshot) {
  std::string bytes;
  Status st = WriteSnapshot(*snapshot.graph, *snapshot.signatures,
                            *snapshot.entity_index, *snapshot.dictionary,
                            &bytes, nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

TEST(StorageTierTest, FileLoadReconstructsIdentically) {
  std::string path = "storage_tier_raw.snap";
  std::string bytes = WriteToFile(path);

  auto from_file = ReadSnapshotFile(path, &World().lexicon);
  auto from_bytes = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();

  EXPECT_EQ(bytes, Reserialize(*from_file));

  // The fingerprint identifies content bytes: the file and the in-memory
  // loads of one container agree on it.
  EXPECT_EQ(from_file->fingerprint, from_bytes->fingerprint);

  std::remove(path.c_str());
}

TEST(StorageTierTest, LegacyVersionTwoContainerIsRejected) {
  // v5 is the only readable layout: a container claiming version 2 (the
  // u32 after the 8-byte magic and 4-byte byte-order mark) must fail with
  // the rebuild hint instead of being parsed with the narrower v2 table.
  std::string bytes = Write();
  bytes[12] = 2;
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

TEST(StorageTierTest, LegacyVersionThreeContainerIsRejected) {
  // A v3 container has the same table but an entity index without the
  // flat label table and token spans: rebuild, never misparse.
  std::string bytes = Write();
  bytes[12] = 3;
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

TEST(StorageTierTest, LegacyVersionFourContainerIsRejected) {
  // A v4 container has the same table but an entity index whose postings
  // are a varint count of (key, list) records, not the sorted key tables:
  // rebuild, never misparse.
  std::string bytes = Write();
  bytes[12] = 4;
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

// --- Corruption handling over the sections. ---

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  size_t crc_at = 0;  // file offset of the crc field, for forging
};

std::vector<SectionEntry> ParseTable(const std::string& bytes) {
  // Header: magic(8) bom(4) version(4) count(4), then 28-byte entries.
  std::vector<SectionEntry> sections;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 16, sizeof(count));
  size_t at = 20;
  for (uint32_t i = 0; i < count; ++i, at += 28) {
    SectionEntry e;
    std::memcpy(&e.id, bytes.data() + at, 4);
    std::memcpy(&e.offset, bytes.data() + at + 8, 8);
    std::memcpy(&e.size, bytes.data() + at + 16, 8);
    e.crc_at = at + 24;
    sections.push_back(e);
  }
  return sections;
}

const SectionEntry& FindSection(const std::vector<SectionEntry>& sections,
                                uint32_t id) {
  for (const SectionEntry& section : sections) {
    if (section.id == id) return section;
  }
  ADD_FAILURE() << "section " << id << " missing";
  return sections.front();
}

// Re-forges a section's CRC after its payload was edited, so the container
// accepts the bytes and the section loader must catch the damage itself.
void ForgeCrc(std::string* bytes, const SectionEntry& section) {
  uint32_t crc = Crc32(bytes->data() + section.offset, section.size);
  std::memcpy(bytes->data() + section.crc_at, &crc, sizeof(crc));
}

constexpr uint32_t kGraphSectionId = 1;
constexpr uint32_t kEntityIndexSectionId = 3;
constexpr uint32_t kDictionarySectionId = 4;

TEST(StorageTierTest, NonRawSectionEncodingIsRejected) {
  // Raw is the only section encoding: a table entry carrying any other
  // value (the u32 after the section id) must fail with the rebuild hint
  // instead of having its payload decoded.
  std::string bytes = Write();
  uint32_t encoding = 1;
  std::memcpy(bytes.data() + 20 + 4, &encoding, sizeof(encoding));
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(StorageTierTest, BitFlipsInEverySectionAreRejectedByCrc) {
  std::string bytes = Write();
  std::vector<SectionEntry> sections = ParseTable(bytes);
  ASSERT_EQ(sections.size(), 5u);
  for (const SectionEntry& section : sections) {
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

TEST(StorageTierTest, ForgedCrcStillFailsInSectionLoaders) {
  // Flip payload bytes AND recompute the section CRC, so the container
  // machinery accepts the bytes and the section loaders themselves must
  // catch the damage (or produce a consistent bundle — never crash, never
  // read out of bounds, never allocate from a corrupt count).
  std::string bytes = Write();
  std::vector<SectionEntry> sections = ParseTable(bytes);
  ASSERT_EQ(sections.size(), 5u);
  size_t rejected = 0, accepted = 0;
  for (const SectionEntry& section : sections) {
    for (uint64_t step = 0; step < section.size;
         step += 1 + section.size / 57) {
      std::string mutated = bytes;
      mutated[section.offset + step] ^= 0x81;
      ForgeCrc(&mutated, section);
      auto loaded = ReadSnapshot(mutated, &World().lexicon);
      if (loaded.ok()) {
        ++accepted;
        const rdf::RdfGraph& graph = *loaded->graph;
        EXPECT_TRUE(graph.finalized());
        // An accepted bundle is safe to serve: every edge, in either
        // direction, names a vertex the graph has.
        const size_t n = graph.NumTerms();
        for (rdf::TermId v = 0; v < n; ++v) {
          for (auto edges : {graph.OutEdges(v), graph.InEdges(v)}) {
            for (const rdf::Edge& e : edges) {
              ASSERT_LT(e.predicate, n) << "section " << section.id;
              ASSERT_LT(e.neighbor, n) << "section " << section.id;
            }
          }
        }
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  SUCCEED() << accepted << " lucky mutations re-validated";
}

TEST(StorageTierTest, TermOffsetPastArenaIsRejected) {
  // The graph section opens with the term dictionary's offset column: a
  // varint count, pad to 8, then u64 offsets. Offset 2 is pushed far past
  // the arena while the last offset still equals the arena size, so only a
  // check of the whole column before the first term read rejects it.
  std::string bytes = Write();
  std::vector<SectionEntry> sections = ParseTable(bytes);
  const SectionEntry& graph = FindSection(sections, kGraphSectionId);
  BinaryReader count_reader(
      std::string_view(bytes).substr(graph.offset, graph.size));
  uint64_t num_offsets = 0;
  ASSERT_TRUE(count_reader.ReadVarint(&num_offsets).ok());
  ASSERT_GE(num_offsets, 4u);
  // The count varint is under 8 bytes, so the 8-aligned column starts at +8.
  size_t column_at = graph.offset + 8;
  uint64_t past_arena = uint64_t{1} << 40;
  std::memcpy(bytes.data() + column_at + 2 * sizeof(uint64_t), &past_arena,
              sizeof(past_arena));
  ForgeCrc(&bytes, graph);
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

// Where the entity index section keeps each array of one sorted key table
// (label or token postings), as file offsets.
struct KeyTableLayout {
  size_t keys = 0, key_offsets = 0, postings_offsets = 0, postings = 0;
  size_t keys_size = 0, num_keys = 0, num_postings = 0;
};

// Where the entity index section keeps the payload of each array of its
// key tables and its flat label table, as file offsets.
struct LabelTableLayout {
  KeyTableLayout label_keys, token_keys;
  size_t vertices = 0, vertex_rows = 0, text_offsets = 0, token_offsets = 0,
         token_ids = 0;
  size_t num_vertices = 0, text_size = 0, num_labels = 0, num_token_ids = 0;
  size_t vocabulary = 0;
};

LabelTableLayout ParseLabelTable(const std::string& bytes,
                                 const SectionEntry& section) {
  LabelTableLayout layout;
  std::string_view payload =
      std::string_view(bytes).substr(section.offset, section.size);
  BinaryReader r(payload);
  r.set_aligned(true);
  // File offset just past what r has read so far.
  auto at = [&] { return section.offset + section.size - r.remaining(); };
  std::vector<uint32_t> column;
  auto read_column = [&](size_t* offset, size_t* count) {
    EXPECT_TRUE(r.ReadPodVector(&column).ok());
    *offset = at() - column.size() * sizeof(uint32_t);
    if (count != nullptr) *count = column.size();
  };
  for (KeyTableLayout* table : {&layout.label_keys, &layout.token_keys}) {
    std::string keys;
    EXPECT_TRUE(r.ReadString(&keys).ok());
    table->keys_size = keys.size();
    table->keys = at() - keys.size();
    read_column(&table->key_offsets, &table->num_keys);
    --table->num_keys;
    read_column(&table->postings_offsets, nullptr);
    read_column(&table->postings, &table->num_postings);
  }
  layout.vocabulary = layout.token_keys.num_keys;
  read_column(&layout.vertices, &layout.num_vertices);
  read_column(&layout.vertex_rows, nullptr);
  std::string text;
  EXPECT_TRUE(r.ReadString(&text).ok());
  layout.text_size = text.size();
  read_column(&layout.text_offsets, &layout.num_labels);
  --layout.num_labels;
  read_column(&layout.token_offsets, nullptr);
  read_column(&layout.token_ids, &layout.num_token_ids);
  EXPECT_TRUE(r.AtEnd());
  return layout;
}

uint32_t GetU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}
void PutU32(std::string* bytes, size_t at, uint32_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

TEST(StorageTierTest, ForgedLabelTableArraysAreRejected) {
  // Targeted edits of every array of the entity index's key tables and
  // flat label table, each behind a forged CRC: the loader's own validation
  // must answer Corruption, never hand out a view past an array's end. The
  // KB's entities have multi-token names, so spans have several ids, and
  // <Blue_Lake_(film)> shares the label "blue lake", so some postings
  // lists have two vertices.
  rdf::RdfGraph graph;
  for (const char* name :
       {"Red_River_Valley", "Blue_Lake", "Green_Hill_Farm", "Old_Mill",
        "North_Gate_Tower", "Blue_Lake_(film)"}) {
    graph.AddTriple(name, "rdf:type", "Place");
  }
  ASSERT_TRUE(graph.Finalize().ok());
  paraphrase::ParaphraseDictionary no_phrases(&World().lexicon);
  std::string bytes;
  ASSERT_TRUE(WriteSnapshot(graph, no_phrases, &bytes).ok());
  ASSERT_TRUE(ReadSnapshot(bytes, &World().lexicon).ok());

  const std::vector<SectionEntry> sections = ParseTable(bytes);
  const SectionEntry& entities = FindSection(sections, kEntityIndexSectionId);
  const LabelTableLayout layout = ParseLabelTable(bytes, entities);
  ASSERT_GE(layout.num_vertices, 3u);
  ASSERT_GE(layout.num_labels, 3u);
  ASSERT_GT(layout.vocabulary, 0u);
  // A label with at least two token ids, for the span-order edit.
  size_t wide_begin = layout.num_token_ids;
  for (size_t i = 0; i < layout.num_labels; ++i) {
    uint32_t begin = GetU32(bytes, layout.token_offsets + 4 * i);
    uint32_t end = GetU32(bytes, layout.token_offsets + 4 * (i + 1));
    if (end - begin >= 2) {
      wide_begin = begin;
      break;
    }
  }
  ASSERT_LT(wide_begin, layout.num_token_ids);
  const KeyTableLayout& label_keys = layout.label_keys;
  const KeyTableLayout& token_keys = layout.token_keys;
  ASSERT_GE(label_keys.num_keys, 3u);
  ASSERT_GE(token_keys.num_keys, 3u);
  // A label key posted by two vertices, for the postings-order edit.
  size_t shared_begin = label_keys.num_postings;
  for (size_t i = 0; i < label_keys.num_keys; ++i) {
    uint32_t begin = GetU32(bytes, label_keys.postings_offsets + 4 * i);
    uint32_t end = GetU32(bytes, label_keys.postings_offsets + 4 * (i + 1));
    if (end - begin >= 2) {
      shared_begin = begin;
      break;
    }
  }
  ASSERT_LT(shared_begin, label_keys.num_postings);

  // Each edit names the check that must catch it.
  struct Edit {
    const char* what;
    const char* check;
    std::function<void(std::string*)> apply;
  };
  const Edit edits[] = {
      {"label text offset past the blob", "label text offsets not ascending",
       [&](std::string* b) {
         PutU32(b, layout.text_offsets + 4, uint32_t(layout.text_size) + 1);
       }},
      {"label text offsets descending", "label text offsets not ascending",
       [&](std::string* b) {
         PutU32(b, layout.text_offsets + 8,
                GetU32(*b, layout.text_offsets + 4) - 1);
       }},
      {"last label text offset short of the blob", "label text offsets do not span",
       [&](std::string* b) {
         PutU32(b, layout.text_offsets + 4 * layout.num_labels,
                uint32_t(layout.text_size) - 1);
       }},
      {"empty vertex label range", "vertex label ranges not ascending",
       [&](std::string* b) {
         PutU32(b, layout.vertex_rows + 4, 0);
       }},
      {"vertex label range past the labels", "vertex label ranges do not span",
       [&](std::string* b) {
         PutU32(b, layout.vertex_rows + 4 * layout.num_vertices,
                uint32_t(layout.num_labels) + 1);
       }},
      {"vertices not ascending", "vertices not sorted",
       [&](std::string* b) {
         uint32_t first = GetU32(*b, layout.vertices);
         PutU32(b, layout.vertices, GetU32(*b, layout.vertices + 4));
         PutU32(b, layout.vertices + 4, first);
       }},
      {"vertex out of the graph", "vertex out of range",
       [&](std::string* b) {
         PutU32(b, layout.vertices + 4 * (layout.num_vertices - 1),
                0x7fffffffu);
       }},
      {"token id at the vocabulary size", "token id out of range",
       [&](std::string* b) {
         PutU32(b, layout.token_ids, uint32_t(layout.vocabulary));
       }},
      {"token span not ascending", "label tokens not sorted",
       [&](std::string* b) {
         size_t at = layout.token_ids + 4 * wide_begin;
         uint32_t first = GetU32(*b, at);
         PutU32(b, at, GetU32(*b, at + 4));
         PutU32(b, at + 4, first);
       }},
      {"empty token span", "token offsets not ascending",
       [&](std::string* b) {
         PutU32(b, layout.token_offsets + 4, 0);
       }},
      {"token offsets past the ids", "token offsets do not span",
       [&](std::string* b) {
         PutU32(b, layout.token_offsets + 4 * layout.num_labels,
                uint32_t(layout.num_token_ids) + 1);
       }},
      {"label key offset past the blob", "label key offsets not ascending",
       [&](std::string* b) {
         PutU32(b, label_keys.key_offsets + 4,
                uint32_t(label_keys.keys_size) + 1);
       }},
      {"last token key offset short of the blob",
       "token key offsets do not span",
       [&](std::string* b) {
         PutU32(b, token_keys.key_offsets + 4 * token_keys.num_keys,
                uint32_t(token_keys.keys_size) - 1);
       }},
      {"label keys not ascending", "label keys not sorted",
       [&](std::string* b) { (*b)[label_keys.keys] = '\x7f'; }},
      {"token keys not ascending", "token keys not sorted",
       [&](std::string* b) { (*b)[token_keys.keys] = '\x7f'; }},
      {"token postings offset past the postings",
       "token postings offsets not ascending",
       [&](std::string* b) {
         PutU32(b, token_keys.postings_offsets + 4,
                uint32_t(token_keys.num_postings) + 1);
       }},
      {"last label postings offset short of the postings",
       "label postings offsets do not span",
       [&](std::string* b) {
         PutU32(b, label_keys.postings_offsets + 4 * label_keys.num_keys,
                uint32_t(label_keys.num_postings) - 1);
       }},
      {"token posting out of the graph", "token posting out of range",
       [&](std::string* b) { PutU32(b, token_keys.postings, 0x7fffffffu); }},
      {"label postings not ascending", "label postings not sorted",
       [&](std::string* b) {
         size_t at = label_keys.postings + 4 * shared_begin;
         uint32_t first = GetU32(*b, at);
         PutU32(b, at, GetU32(*b, at + 4));
         PutU32(b, at + 4, first);
       }},
  };
  for (const Edit& edit : edits) {
    std::string mutated = bytes;
    edit.apply(&mutated);
    ASSERT_NE(mutated, bytes) << edit.what;
    ForgeCrc(&mutated, entities);
    auto loaded = ReadSnapshot(mutated, &World().lexicon);
    ASSERT_FALSE(loaded.ok()) << edit.what;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << edit.what << ": " << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find(edit.check), std::string::npos)
        << edit.what << ": " << loaded.status().ToString();
  }
}

TEST(StorageTierTest, HugePhraseCountIsRejected) {
  // The dictionary section opens with the varint phrase count; 2^40 is far
  // more phrases than the section has bytes, and must be rejected before
  // anything is reserved for them.
  std::string bytes = Write();
  std::vector<SectionEntry> sections = ParseTable(bytes);
  const SectionEntry& dict = FindSection(sections, kDictionarySectionId);
  BinaryWriter count;
  count.WriteVarint(uint64_t{1} << 40);
  ASSERT_LE(count.size(), dict.size);
  std::memcpy(bytes.data() + dict.offset, count.buffer().data(),
              count.size());
  ForgeCrc(&bytes, dict);
  auto loaded = ReadSnapshot(bytes, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(StorageTierTest, FileLoadRejectsCorruptFile) {
  std::string path = "storage_tier_corrupt.snap";
  std::string bytes = WriteToFile(path);
  std::vector<SectionEntry> sections = ParseTable(bytes);
  std::string mutated = bytes;
  mutated[sections[0].offset + sections[0].size / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  auto loaded = ReadSnapshotFile(path, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  loaded = ReadSnapshotFile(path, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::remove(path.c_str());
}

// An empty file reads fine and is then no container; a missing path and a
// directory cannot be read at all.
TEST(StorageTierTest, FileLoadRejectsEmptyMissingOrDirectoryPath) {
  std::string path = "storage_tier_empty.snap";
  { std::ofstream out(path, std::ios::binary); }
  auto loaded = ReadSnapshotFile(path, &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::remove(path.c_str());

  loaded = ReadSnapshotFile("storage_tier_missing.snap", &World().lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();

  std::string dir = "storage_tier_dir.snap";
  std::filesystem::create_directory(dir);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  loaded = ReadSnapshotFile(dir, &World().lexicon);
  std::filesystem::remove(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
}

}  // namespace
}  // namespace store
}  // namespace ganswer
