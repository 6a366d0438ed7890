#include "store/live/delta_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "store/snapshot.h"

namespace ganswer {
namespace store {
namespace live {
namespace {

using rdf::TermId;
using rdf::TermKind;
using rdf::UpdateOp;

/// In-memory snapshot round-trip of a small base graph — the delta always
/// overlays a loaded snapshot, exactly like production.
std::shared_ptr<const Snapshot> BaseSnapshot(nlp::Lexicon* lexicon) {
  rdf::RdfGraph graph;
  graph.AddTriple("Alice", "knows", "Bob");
  graph.AddTriple("Bob", "knows", "Carol");
  graph.AddTriple("Alice", "rdf:type", "Person");
  graph.AddTriple("Bob", "rdf:type", "Person");
  graph.AddTriple("Alice", "rdfs:label", "Alice Smith", TermKind::kLiteral);
  EXPECT_TRUE(graph.Finalize().ok());
  paraphrase::ParaphraseDictionary dict(lexicon);
  std::string bytes;
  EXPECT_TRUE(WriteSnapshot(graph, dict, &bytes).ok());
  auto loaded = ReadSnapshot(bytes, lexicon);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<Snapshot>(std::move(loaded).value());
}

/// Text-level edge set of one direction of a vertex, order-independent.
std::set<std::pair<std::string, std::string>> EdgeSet(
    const rdf::RdfGraph& g, std::string_view vertex, bool out) {
  std::set<std::pair<std::string, std::string>> edges;
  auto v = g.Find(vertex);
  if (!v.has_value()) return edges;
  for (const rdf::Edge& e : out ? g.OutEdges(*v) : g.InEdges(*v)) {
    edges.emplace(std::string(g.dict().text(e.predicate)),
                  std::string(g.dict().text(e.neighbor)));
  }
  return edges;
}

TEST(DeltaGraphTest, AddsAreVisibleAndDeletesMaskBaseEdges) {
  nlp::Lexicon lexicon;
  DeltaGraph delta(BaseSnapshot(&lexicon));
  DeltaGraph::BatchStats stats = delta.Apply({
      {"Carol", "knows", "Alice", TermKind::kIri, false},
      {"Alice", "knows", "Bob", TermKind::kIri, true},
  });
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.new_terms, 0u);

  DeltaGraph::View view = delta.BuildView();
  const rdf::RdfGraph& g = *view.graph;
  TermId alice = *g.Find("Alice");
  TermId bob = *g.Find("Bob");
  TermId carol = *g.Find("Carol");
  TermId knows = *g.dict().LookupAny("knows");
  EXPECT_TRUE(g.HasTriple(carol, knows, alice));
  EXPECT_FALSE(g.HasTriple(alice, knows, bob));
  EXPECT_TRUE(g.HasTriple(bob, knows, carol));  // untouched base edge
  EXPECT_EQ(g.NumTriples(), 5u);                // 5 - 1 + 1

  EXPECT_EQ(EdgeSet(g, "Carol", /*out=*/true),
            (std::set<std::pair<std::string, std::string>>{
                {"knows", "Alice"}}));
  EXPECT_EQ(EdgeSet(g, "Alice", /*out=*/true),
            (std::set<std::pair<std::string, std::string>>{
                {"rdf:type", "Person"}, {"rdfs:label", "Alice Smith"}}));
  // The reverse direction is maintained symmetrically.
  EXPECT_EQ(EdgeSet(g, "Alice", /*out=*/false),
            (std::set<std::pair<std::string, std::string>>{
                {"knows", "Carol"}}));
}

TEST(DeltaGraphTest, NewTermsExtendTheBaseDictionary) {
  nlp::Lexicon lexicon;
  auto base = BaseSnapshot(&lexicon);
  size_t base_terms = base->graph->dict().size();
  DeltaGraph delta(base);
  DeltaGraph::BatchStats stats = delta.Apply({
      {"Dave", "knows", "Alice", TermKind::kIri, false},
      {"Dave", "rdfs:label", "Dave Jones", TermKind::kLiteral, false},
  });
  EXPECT_EQ(stats.added, 2u);
  EXPECT_EQ(stats.new_terms, 2u);  // "Dave" and the label literal

  DeltaGraph::View view = delta.BuildView();
  const rdf::TermDictionary& dict = view.graph->dict();
  EXPECT_EQ(dict.size(), base_terms + 2);
  // Base ids and texts are untouched; new terms got fresh global ids.
  for (TermId id = 0; id < base_terms; ++id) {
    EXPECT_EQ(dict.text(id), base->graph->dict().text(id));
    EXPECT_EQ(dict.kind(id), base->graph->dict().kind(id));
  }
  auto dave = dict.Lookup("Dave", TermKind::kIri);
  ASSERT_TRUE(dave.has_value());
  EXPECT_GE(*dave, base_terms);
  EXPECT_EQ(dict.kind(*dave), TermKind::kIri);
  auto label = dict.Lookup("Dave Jones", TermKind::kLiteral);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(dict.kind(*label), TermKind::kLiteral);
}

TEST(DeltaGraphTest, SetSemanticsCountNoops) {
  nlp::Lexicon lexicon;
  DeltaGraph delta(BaseSnapshot(&lexicon));
  DeltaGraph::BatchStats stats = delta.Apply({
      {"Alice", "knows", "Bob", TermKind::kIri, false},   // already present
      {"Alice", "knows", "Zed", TermKind::kIri, true},    // never existed
      {"Alice", "likes", "Bob", TermKind::kIri, false},   // fresh add
      {"Alice", "likes", "Bob", TermKind::kIri, true},    // last-wins delete
  });
  EXPECT_EQ(stats.noop_adds, 1u);
  EXPECT_EQ(stats.noop_deletes, 1u);
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  DeltaGraph::View view = delta.BuildView();
  EXPECT_EQ(view.graph->NumTriples(), 5u);  // net unchanged
  // A failed delete of an unknown term must not intern it.
  EXPECT_FALSE(view.graph->Find("Zed").has_value());
}

TEST(DeltaGraphTest, ClassBitsAndPredicateFrequenciesTrackTheDelta) {
  nlp::Lexicon lexicon;
  DeltaGraph delta(BaseSnapshot(&lexicon));
  delta.Apply({
      {"Dog", "rdf:type", "Animal", TermKind::kIri, false},
      {"Alice", "knows", "Dave", TermKind::kIri, false},
  });
  DeltaGraph::View view = delta.BuildView();
  const rdf::RdfGraph& g = *view.graph;
  EXPECT_TRUE(g.IsClass(*g.Find("Animal")));
  EXPECT_TRUE(g.IsClass(*g.Find("Person")));  // base class bit survives
  EXPECT_FALSE(g.IsClass(*g.Find("Dog")));
  TermId knows = *g.dict().LookupAny("knows");
  EXPECT_EQ(g.PredicateFrequency(knows), 3u);  // 2 base + 1 delta
  TermId type = *g.dict().LookupAny("rdf:type");
  EXPECT_EQ(g.PredicateFrequency(type), 3u);
}

TEST(DeltaGraphTest, PublishedViewsAreImmutableUnderLaterBatches) {
  nlp::Lexicon lexicon;
  DeltaGraph delta(BaseSnapshot(&lexicon));
  delta.Apply({{"Carol", "knows", "Alice", TermKind::kIri, false}});
  DeltaGraph::View v1 = delta.BuildView();
  size_t v1_triples = v1.graph->NumTriples();
  auto v1_alice_in = EdgeSet(*v1.graph, "Alice", /*out=*/false);

  delta.Apply({
      {"Carol", "knows", "Alice", TermKind::kIri, true},
      {"Eve", "knows", "Alice", TermKind::kIri, false},
  });
  DeltaGraph::View v2 = delta.BuildView();

  // The old view still answers from its epoch: the delete and the new term
  // exist only in v2.
  EXPECT_EQ(v1.graph->NumTriples(), v1_triples);
  EXPECT_EQ(EdgeSet(*v1.graph, "Alice", /*out=*/false), v1_alice_in);
  EXPECT_FALSE(v1.graph->Find("Eve").has_value());
  ASSERT_TRUE(v2.graph->Find("Eve").has_value());
  EXPECT_EQ(EdgeSet(*v2.graph, "Alice", /*out=*/false),
            (std::set<std::pair<std::string, std::string>>{
                {"knows", "Eve"}}));
}

TEST(DeltaGraphTest, OverlayIndexesMatchFreshlyBuiltOnes) {
  nlp::Lexicon lexicon;
  DeltaGraph delta(BaseSnapshot(&lexicon));
  delta.Apply({
      {"Alice", "knows", "Bob", TermKind::kIri, true},
      {"Dave", "knows", "Alice", TermKind::kIri, false},
      {"Dave", "rdfs:label", "Dave Jones", TermKind::kLiteral, false},
      {"Bob", "rdfs:label", "Bobby", TermKind::kLiteral, false},
  });
  DeltaGraph::View view = delta.BuildView();
  const rdf::RdfGraph& g = *view.graph;

  // The overlay signature index equals one rebuilt from scratch over the
  // merged graph, vertex for vertex.
  rdf::SignatureIndex fresh_sigs(g);
  ASSERT_EQ(view.signatures->NumVertices(), fresh_sigs.NumVertices());
  for (TermId v = 0; v < fresh_sigs.NumVertices(); ++v) {
    EXPECT_EQ(view.signatures->OutSignature(v), fresh_sigs.OutSignature(v))
        << "out signature of " << g.dict().text(v);
    EXPECT_EQ(view.signatures->InSignature(v), fresh_sigs.InSignature(v))
        << "in signature of " << g.dict().text(v);
  }

  // Same for the entity index: postings answer identically (both ascending).
  linking::EntityIndex fresh_entities(g);
  for (const char* label : {"Alice Smith", "Dave Jones", "Bobby", "nope"}) {
    EXPECT_TRUE(std::ranges::equal(view.entities->ExactMatches(label),
                                   fresh_entities.ExactMatches(label)))
        << "exact matches of " << label;
  }
  for (const char* token : {"alice", "dave", "smith", "bobby"}) {
    EXPECT_TRUE(std::ranges::equal(view.entities->TokenMatches(token),
                                   fresh_entities.TokenMatches(token)))
        << "token matches of " << token;
  }
  // Labels and their token spans. Overlay ids legitimately differ from a
  // rebuild's ranks ("bobby" is new to the base), so spans are compared
  // by token string: each index's ids are translated back through its own
  // FindToken over every token of the merged graph's labels.
  std::set<std::string> vocabulary;
  for (TermId v = 0; v < g.dict().size(); ++v) {
    for (std::string_view label : fresh_entities.LabelsOf(v)) {
      for (std::string& token : SplitWhitespace(label)) {
        vocabulary.insert(std::move(token));
      }
    }
  }
  auto label_rows = [&](const linking::EntityIndex& index, TermId v) {
    std::map<uint32_t, std::string> token_of;
    for (const std::string& token : vocabulary) {
      auto entry = index.FindToken(token);
      if (entry) token_of[entry->id] = token;
    }
    std::vector<std::string> rows;
    linking::EntityIndex::LabelList labels = index.LabelsOf(v);
    for (size_t i = 0; i < labels.size(); ++i) {
      std::set<std::string> tokens;
      for (uint32_t id : labels.Tokens(i)) {
        auto it = token_of.find(id);
        tokens.insert(it != token_of.end() ? it->second : "<unknown id>");
      }
      rows.push_back(std::string(labels[i]) + " | " +
                     Join({tokens.begin(), tokens.end()}, " "));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (const char* name : {"Alice", "Bob", "Carol", "Dave"}) {
    TermId v = *g.Find(name);
    EXPECT_EQ(label_rows(*view.entities, v), label_rows(fresh_entities, v))
        << "labels of " << name;
    EXPECT_EQ(view.entities->MinLabelTokens(v), fresh_entities.MinLabelTokens(v))
        << "fewest label tokens of " << name;
  }
  ASSERT_TRUE(view.entities->FindToken("bobby").has_value());
  EXPECT_GE(view.entities->FindToken("bobby")->id,
            delta.base()->entity_index->TokenIdEnd());
  EXPECT_EQ(view.entities->FindToken("alice")->id,
            delta.base()->entity_index->FindToken("alice")->id);
}

}  // namespace
}  // namespace live
}  // namespace store
}  // namespace ganswer
