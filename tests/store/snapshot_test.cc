#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "linking/entity_index.h"
#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "rdf/graph_stats.h"
#include "rdf/rdf_graph.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace store {
namespace {

// A small but structurally complete world: entities with labels, a class
// with instances, literals, and a dictionary with a single-predicate and a
// multi-hop phrase.
struct TestWorld {
  rdf::RdfGraph graph;
  nlp::Lexicon lexicon;
  std::unique_ptr<paraphrase::ParaphraseDictionary> dict;

  TestWorld() {
    graph.AddTriple("Alice", "knows", "Bob");
    graph.AddTriple("Bob", "knows", "Carol");
    graph.AddTriple("Alice", "rdf:type", "Person");
    graph.AddTriple("Bob", "rdf:type", "Person");
    graph.AddTriple("Carol", "rdf:type", "Person");
    graph.AddTriple("Alice", "rdfs:label", "Alice Smith",
                    rdf::TermKind::kLiteral);
    graph.AddTriple("Alice", "age", "34", rdf::TermKind::kLiteral);
    EXPECT_TRUE(graph.Finalize().ok());

    dict = std::make_unique<paraphrase::ParaphraseDictionary>(&lexicon);
    rdf::TermId knows = *graph.dict().LookupAny("knows");
    paraphrase::ParaphraseEntry direct;
    direct.path.steps = {{knows, true}};
    direct.confidence = 1.0;
    dict->AddPhrase("be familiar with", {direct});
    paraphrase::ParaphraseEntry two_hop;
    two_hop.path.steps = {{knows, true}, {knows, true}};
    two_hop.confidence = 0.5;
    dict->AddPhrase("know through a friend", {direct, two_hop});
  }
};

std::string WriteTestSnapshot(const TestWorld& world,
                              SnapshotStats* stats = nullptr) {
  std::string bytes;
  Status st = WriteSnapshot(world.graph, *world.dict, &bytes, stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  TestWorld world;
  SnapshotStats stats;
  std::string bytes = WriteTestSnapshot(world, &stats);
  EXPECT_GT(stats.graph_bytes, 0u);
  EXPECT_GT(stats.signature_bytes, 0u);
  EXPECT_GT(stats.entity_index_bytes, 0u);
  EXPECT_GT(stats.dictionary_bytes, 0u);
  EXPECT_GT(stats.stats_bytes, 0u);
  EXPECT_EQ(stats.total_bytes, bytes.size());
  EXPECT_NE(stats.fingerprint, 0u);

  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, stats.fingerprint);

  // Graph: terms, triples, adjacency and class info all survive.
  const rdf::RdfGraph& g = *loaded->graph;
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.NumTriples(), world.graph.NumTriples());
  ASSERT_EQ(g.dict().size(), world.graph.dict().size());
  for (rdf::TermId id = 0; id < g.dict().size(); ++id) {
    EXPECT_EQ(g.dict().text(id), world.graph.dict().text(id));
    EXPECT_EQ(g.dict().kind(id), world.graph.dict().kind(id));
  }
  rdf::TermId alice = *g.dict().LookupAny("Alice");
  rdf::TermId knows = *g.dict().LookupAny("knows");
  rdf::TermId bob = *g.dict().LookupAny("Bob");
  EXPECT_TRUE(g.HasTriple(alice, knows, bob));
  rdf::TermId person = *g.dict().LookupAny("Person");
  EXPECT_EQ(g.InstancesOf(person).size(), 3u);

  // Signature index: same signatures, vertex for vertex.
  ASSERT_NE(loaded->signatures, nullptr);
  rdf::SignatureIndex fresh_sigs(world.graph);
  ASSERT_EQ(loaded->signatures->NumVertices(), fresh_sigs.NumVertices());

  // Entity index: label and token postings answer identically.
  ASSERT_NE(loaded->entity_index, nullptr);
  linking::EntityIndex fresh_index(world.graph);
  const linking::EntityIndex& index = *loaded->entity_index;
  EXPECT_TRUE(std::ranges::equal(index.ExactMatches("Alice Smith"),
                                 fresh_index.ExactMatches("Alice Smith")));
  EXPECT_TRUE(std::ranges::equal(index.TokenMatches("alice"),
                                 fresh_index.TokenMatches("alice")));
  // Labels: same texts and the same interned token spans, row for row.
  linking::EntityIndex::LabelList got = loaded->entity_index->LabelsOf(alice);
  linking::EntityIndex::LabelList want = fresh_index.LabelsOf(alice);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
    EXPECT_TRUE(std::ranges::equal(got.Tokens(i), want.Tokens(i))) << want[i];
  }
  EXPECT_EQ(loaded->entity_index->MinLabelTokens(alice),
            fresh_index.MinLabelTokens(alice));
  EXPECT_EQ(loaded->entity_index->TokenIdEnd(), fresh_index.TokenIdEnd());

  // Dictionary: phrases, lemmas, entries, paths, inverted index.
  const paraphrase::ParaphraseDictionary& d = *loaded->dictionary;
  ASSERT_EQ(d.NumPhrases(), world.dict->NumPhrases());
  for (paraphrase::PhraseId id = 0; id < d.NumPhrases(); ++id) {
    EXPECT_EQ(d.PhraseText(id), world.dict->PhraseText(id));
    EXPECT_EQ(d.PhraseLemmas(id), world.dict->PhraseLemmas(id));
    const auto& got = d.Entries(id);
    const auto& want = world.dict->Entries(id);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].confidence, want[i].confidence);
      ASSERT_EQ(got[i].path.steps.size(), want[i].path.steps.size());
      for (size_t s = 0; s < got[i].path.steps.size(); ++s) {
        EXPECT_EQ(got[i].path.steps[s].predicate,
                  want[i].path.steps[s].predicate);
        EXPECT_EQ(got[i].path.steps[s].forward, want[i].path.steps[s].forward);
      }
    }
  }
  EXPECT_EQ(d.PhrasesContaining("familiar"),
            world.dict->PhrasesContaining("familiar"));

  // Graph statistics: the stats section round-trips to exactly what a
  // fresh Compute over the graph produces.
  ASSERT_NE(loaded->stats, nullptr);
  EXPECT_TRUE(*loaded->stats == rdf::GraphStats::Compute(world.graph));
}

TEST(SnapshotTest, RejectsVersionOneContainer) {
  TestWorld world;
  // Version 1 predates the statistics section and the v3 section table;
  // the reader no longer carries that layout, so a v1 header gets the
  // rebuild hint instead of a backward-compat load.
  std::string bytes = WriteTestSnapshot(world);
  bytes[12] = 1;
  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

TEST(SnapshotTest, RejectsVersionBelowSupportedRange) {
  TestWorld world;
  std::string bytes = WriteTestSnapshot(world);
  bytes[12] = 0;
  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

TEST(SnapshotTest, WritingTwiceIsByteIdentical) {
  TestWorld world;
  std::string first = WriteTestSnapshot(world);
  std::string second = WriteTestSnapshot(world);
  EXPECT_EQ(first, second);
}

TEST(SnapshotTest, FingerprintTracksContent) {
  TestWorld world;
  SnapshotStats stats_a;
  WriteTestSnapshot(world, &stats_a);

  TestWorld other;
  other.graph.AddTriple("Dave", "knows", "Alice");
  ASSERT_TRUE(other.graph.Finalize().ok());
  SnapshotStats stats_b;
  std::string bytes;
  ASSERT_TRUE(WriteSnapshot(other.graph, *other.dict, &bytes, &stats_b).ok());
  EXPECT_NE(stats_a.fingerprint, stats_b.fingerprint);
}

TEST(SnapshotTest, RejectsBadMagic) {
  TestWorld world;
  std::string bytes = WriteTestSnapshot(world);
  bytes[0] ^= 0x40;
  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("magic"), std::string::npos);
}

TEST(SnapshotTest, RejectsVersionMismatch) {
  TestWorld world;
  std::string bytes = WriteTestSnapshot(world);
  // Version u32 sits after the 8-byte magic and 4-byte byte-order mark.
  bytes[12] = static_cast<char>(kSnapshotVersion + 1);
  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("rebuild the snapshot"),
            std::string::npos);
}

TEST(SnapshotTest, RejectsCorruptPayloadByCrc) {
  TestWorld world;
  std::string bytes = WriteTestSnapshot(world);
  // Flip one bit in the middle of the payload region (well past the
  // header): some section's CRC must catch it.
  bytes[bytes.size() / 2] ^= 0x01;
  auto loaded = ReadSnapshot(bytes, &world.lexicon);
  ASSERT_FALSE(loaded.ok());
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  TestWorld world;
  std::string bytes = WriteTestSnapshot(world);
  // Sample prefixes across the whole container, including cuts inside the
  // header, the section table and each payload.
  for (size_t cut = 0; cut < bytes.size(); cut += 13) {
    auto loaded = ReadSnapshot(std::string_view(bytes).substr(0, cut),
                               &world.lexicon);
    EXPECT_FALSE(loaded.ok()) << "prefix length " << cut;
  }
}

TEST(SnapshotTest, RejectsEmptyAndGarbageInput) {
  TestWorld world;
  EXPECT_FALSE(ReadSnapshot("", &world.lexicon).ok());
  EXPECT_FALSE(ReadSnapshot("not a snapshot at all", &world.lexicon).ok());
  std::string zeros(4096, '\0');
  EXPECT_FALSE(ReadSnapshot(zeros, &world.lexicon).ok());
}

TEST(SnapshotTest, FileRoundTrip) {
  TestWorld world;
  std::string path = "ganswer_snapshot_test.snap";  // test working dir
  SnapshotStats stats;
  ASSERT_TRUE(
      WriteSnapshotFile(world.graph, *world.dict, path, &stats).ok());
  auto loaded = ReadSnapshotFile(path, &world.lexicon);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->fingerprint, stats.fingerprint);
  EXPECT_EQ(loaded->graph->NumTriples(), world.graph.NumTriples());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  nlp::Lexicon lexicon;
  auto loaded = ReadSnapshotFile("/nonexistent/ganswer.snap", &lexicon);
  ASSERT_FALSE(loaded.ok());
}

TEST(SnapshotTest, RequiresFinalizedGraph) {
  rdf::RdfGraph graph;
  graph.AddTriple("a", "p", "b");
  nlp::Lexicon lexicon;
  paraphrase::ParaphraseDictionary dict(&lexicon);
  std::string bytes;
  EXPECT_FALSE(WriteSnapshot(graph, dict, &bytes).ok());
}

}  // namespace
}  // namespace store
}  // namespace ganswer
