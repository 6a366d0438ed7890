#include "linking/entity_linker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/binary_io.h"
#include "linking/entity_index.h"
#include "oracle/link_oracle.h"
#include "test_support.h"

namespace ganswer {
namespace linking {
namespace {

class EntityLinkerTest : public ::testing::Test {
 protected:
  EntityLinkerTest()
      : index_(ganswer::testing::World().kb.graph), linker_(&index_) {}

  std::vector<std::string> CandidateNames(const std::string& phrase) {
    std::vector<std::string> out;
    for (const LinkCandidate& c : linker_.Link(phrase)) {
      out.emplace_back(index_.graph().dict().text(c.vertex));
    }
    return out;
  }

  bool Has(const std::vector<std::string>& names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  EntityIndex index_;
  EntityLinker linker_;
};

TEST_F(EntityLinkerTest, PhiladelphiaIsAmbiguousAcrossThreeEntities) {
  auto names = CandidateNames("Philadelphia");
  EXPECT_TRUE(Has(names, "Philadelphia"));
  EXPECT_TRUE(Has(names, "Philadelphia_(film)"));
  EXPECT_TRUE(Has(names, "Philadelphia_76ers"));
}

TEST_F(EntityLinkerTest, ExactMatchRanksAboveTokenMatch) {
  auto cands = linker_.Link("Philadelphia");
  ASSERT_GE(cands.size(), 2u);
  // The bare city (exact label match) outranks the film/team whose labels
  // only share tokens... but the film's stripped parenthetical also
  // normalizes to "philadelphia", so both can tie at full similarity. The
  // 76ers (partial token match) must rank strictly below.
  const auto& dict = index_.graph().dict();
  size_t seventysixers_rank = cands.size();
  size_t city_rank = cands.size();
  for (size_t i = 0; i < cands.size(); ++i) {
    if (dict.text(cands[i].vertex) == "Philadelphia_76ers") {
      seventysixers_rank = i;
    }
    if (dict.text(cands[i].vertex) == "Philadelphia") city_rank = i;
  }
  EXPECT_LT(city_rank, seventysixers_rank);
}

TEST_F(EntityLinkerTest, ActorLinksToClassAndEntity) {
  auto cands = linker_.Link("actor");
  bool saw_class = false, saw_book = false;
  const auto& dict = index_.graph().dict();
  for (const LinkCandidate& c : cands) {
    if (c.is_class && dict.text(c.vertex) == "Actor") saw_class = true;
    if (dict.text(c.vertex) == "An_Actor_Prepares") saw_book = true;
  }
  EXPECT_TRUE(saw_class) << "the class <Actor> must be a candidate";
  EXPECT_TRUE(saw_book) << "the paper's An_Actor_Prepares ambiguity";
}

TEST_F(EntityLinkerTest, PluralClassMentionLinksToClass) {
  auto cands = linker_.Link("movies");
  bool saw_film_class = false;
  for (const LinkCandidate& c : cands) {
    if (c.is_class && index_.graph().dict().text(c.vertex) == "Film") {
      saw_film_class = true;
    }
  }
  EXPECT_TRUE(saw_film_class);
}

TEST_F(EntityLinkerTest, MultiTokenNameResolves) {
  auto names = CandidateNames("Antonio Banderas");
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "Antonio_Banderas");
}

TEST_F(EntityLinkerTest, RdfsLabelAliasesWork) {
  // The_Prodigy carries rdfs:label "Prodigy".
  auto names = CandidateNames("Prodigy");
  EXPECT_TRUE(Has(names, "The_Prodigy"));
}

TEST_F(EntityLinkerTest, NameLikeLiteralsAreLinkable) {
  // "Scarface" is a nickname literal of Al_Capone.
  auto cands = linker_.Link("Scarface");
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(index_.graph().dict().text(cands[0].vertex), "Scarface");
  EXPECT_TRUE(index_.graph().dict().IsLiteral(cands[0].vertex));
}

TEST_F(EntityLinkerTest, UnknownPhraseGivesNoCandidates) {
  EXPECT_TRUE(linker_.Link("zxqv quux flibbertigibbet").empty());
  EXPECT_TRUE(linker_.Link("").empty());
}

TEST_F(EntityLinkerTest, CandidatesSortedByConfidenceAndCapped) {
  EntityLinker::Options opt;
  opt.max_candidates = 3;
  EntityLinker small(&index_, opt);
  auto cands = small.Link("Philadelphia");
  EXPECT_LE(cands.size(), 3u);
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].confidence, cands[i].confidence);
  }
}

TEST_F(EntityLinkerTest, ConfidencesAreProbabilityLike) {
  for (const LinkCandidate& c : linker_.Link("Berlin")) {
    EXPECT_GT(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0);
  }
}

TEST(EntityIndexTest, IndexesIriAndLabelForms) {
  const auto& world = ganswer::testing::World();
  EntityIndex index(world.kb.graph);
  EXPECT_FALSE(index.ExactMatches("antonio banderas").empty());
  EXPECT_FALSE(index.ExactMatches("Antonio_Banderas").empty());
  EXPECT_FALSE(index.TokenMatches("banderas").empty());
  EXPECT_TRUE(index.ExactMatches("no such thing at all").empty());
  EXPECT_GT(index.NumIndexedVertices(), 1000u);
}

TEST(EntityIndexTest, ClassLabelsAreIndexed) {
  const auto& world = ganswer::testing::World();
  EntityIndex index(world.kb.graph);
  auto matches = index.ExactMatches("basketball team");
  ASSERT_FALSE(matches.empty());
  EXPECT_TRUE(world.kb.graph.IsClass(matches[0]));
}

// One sorted key table of the entity index section: the key blob, key
// offsets, postings offsets and one postings array.
struct KeyTable {
  std::string keys;
  std::vector<uint32_t> key_offsets{0};
  std::vector<uint32_t> postings_offsets{0};
  std::vector<rdf::TermId> postings;

  /// The keys \p names in the given order, each posted by \p list.
  static KeyTable Of(const std::vector<std::string>& names,
                     const std::vector<rdf::TermId>& list) {
    KeyTable table;
    for (const std::string& name : names) {
      table.keys += name;
      table.key_offsets.push_back(static_cast<uint32_t>(table.keys.size()));
      table.postings.insert(table.postings.end(), list.begin(), list.end());
      table.postings_offsets.push_back(
          static_cast<uint32_t>(table.postings.size()));
    }
    return table;
  }
  void Write(BinaryWriter* out) const {
    out->WriteString(keys);
    out->WritePodVector(key_offsets);
    out->WritePodVector(postings_offsets);
    out->WritePodVector(postings);
  }
};

// A hand-built entity-index payload over two vertices that share the one
// label "shared": the label and token key tables, each with the one key
// "shared" posted by both vertices, and the flat label table. Each test
// edits one array and loads it.
struct IndexPayload {
  KeyTable labels;
  KeyTable tokens;
  std::vector<rdf::TermId> vertices;
  std::vector<uint32_t> vertex_rows{0, 1, 2};
  std::string text = "sharedshared";
  std::vector<uint32_t> text_offsets{0, 6, 12};
  std::vector<uint32_t> token_offsets{0, 1, 2};
  std::vector<uint32_t> token_ids{0, 0};
};

class IndexLoader {
 public:
  IndexLoader() {
    graph_.AddTriple("Alpha", "rdf:type", "Thing");
    graph_.AddTriple("Beta", "rdf:type", "Thing");
    EXPECT_TRUE(graph_.Finalize().ok());
    low_ = std::min(*graph_.Find("Alpha"), *graph_.Find("Beta"));
    high_ = std::max(*graph_.Find("Alpha"), *graph_.Find("Beta"));
    valid_.labels = KeyTable::Of({"shared"}, {low_, high_});
    valid_.tokens = KeyTable::Of({"shared"}, {low_, high_});
    valid_.vertices = {low_, high_};
  }

  Status Load(const IndexPayload& p) {
    BinaryWriter out;
    p.labels.Write(&out);
    p.tokens.Write(&out);
    out.WritePodVector(p.vertices);
    out.WritePodVector(p.vertex_rows);
    out.WriteString(p.text);
    out.WritePodVector(p.text_offsets);
    out.WritePodVector(p.token_offsets);
    out.WritePodVector(p.token_ids);
    BinaryReader in(out.buffer());
    auto index = EntityIndex::LoadBinary(graph_, &in);
    if (index.ok()) {
      EXPECT_EQ((*index)->LabelsOf(low_).size(), 1u);
      EXPECT_EQ((*index)->LabelsOf(high_)[0], "shared");
      EXPECT_EQ((*index)->MinLabelTokens(high_), 1u);
    }
    return index.status();
  }
  Status::Code LoadWith(void (*edit)(IndexPayload*)) {
    IndexPayload p = valid_;
    edit(&p);
    return Load(p).code();
  }
  const IndexPayload& valid() const { return valid_; }
  rdf::TermId low() const { return low_; }
  rdf::TermId high() const { return high_; }

 private:
  rdf::RdfGraph graph_;
  rdf::TermId low_ = 0;
  rdf::TermId high_ = 0;
  IndexPayload valid_;
};

TEST(EntityIndexTest, LoadRejectsUnsortedPostings) {
  // The linker merges postings by vertex id, so a loaded list must be
  // strictly ascending, in the token table and the label table alike.
  IndexLoader loader;
  EXPECT_TRUE(loader.Load(loader.valid()).ok())
      << loader.Load(loader.valid()).ToString();
  IndexPayload p = loader.valid();
  p.tokens.postings = {loader.high(), loader.low()};
  EXPECT_EQ(loader.Load(p).code(), Status::Code::kCorruption);
  p.tokens.postings = {loader.low(), loader.low()};
  EXPECT_EQ(loader.Load(p).code(), Status::Code::kCorruption);
  p = loader.valid();
  p.labels.postings = {loader.high(), loader.low()};
  EXPECT_EQ(loader.Load(p).code(), Status::Code::kCorruption);
  // Postings name vertices of the graph.
  p = loader.valid();
  p.tokens.postings = {loader.low(), 1u << 30};
  EXPECT_EQ(loader.Load(p).code(), Status::Code::kCorruption);
}

// Every array of the flat label table is validated before any view is
// handed out, so a forged payload fails with Corruption, never a crash.
TEST(EntityIndexTest, LoadRejectsMalformedLabelTable) {
  constexpr auto kCorruption = Status::Code::kCorruption;
  IndexLoader loader;
  // Token keys: strictly ascending, since a token's id is its rank.
  IndexPayload two_tokens = loader.valid();
  two_tokens.tokens =
      KeyTable::Of({"alpha", "shared"}, {loader.low(), loader.high()});
  EXPECT_TRUE(loader.Load(two_tokens).ok());
  two_tokens.tokens =
      KeyTable::Of({"shared", "alpha"}, {loader.low(), loader.high()});
  EXPECT_EQ(loader.Load(two_tokens).code(), kCorruption);
  two_tokens.tokens =
      KeyTable::Of({"shared", "shared"}, {loader.low(), loader.high()});
  EXPECT_EQ(loader.Load(two_tokens).code(), kCorruption);
  // Label text offsets: monotone, from 0 to the blob's end.
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->text_offsets = {0, 7, 6}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->text_offsets = {0, 6, 13}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->text_offsets = {1, 6, 12}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->text_offsets.clear(); }),
            kCorruption);
  // Per-vertex label ranges: non-empty, ending at the label count.
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->vertex_rows = {0, 2, 2}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->vertex_rows = {0, 1, 3}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->vertex_rows = {0, 2}; }),
            kCorruption);
  // The vertex list: strictly ascending and inside the graph.
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) {
              std::swap(p->vertices[0], p->vertices[1]);
            }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->vertices[1] = 1u << 30; }),
            kCorruption);
  // Spans: non-empty, strictly ascending, ids below the vocabulary size.
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) {
              p->token_offsets = {0, 0, 2};
              p->token_ids = {0, 0};
            }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) {
              p->token_offsets = {0, 2, 3};
              p->token_ids = {0, 0, 0};
            }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->token_ids = {0, 1}; }),
            kCorruption);
  // Span offsets: one per label plus one, ending at the id count.
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->token_offsets = {0, 2}; }),
            kCorruption);
  EXPECT_EQ(loader.LoadWith([](IndexPayload* p) { p->token_offsets = {0, 1, 3}; }),
            kCorruption);
}

// The label and token key tables: key offsets span the key blob, postings
// offsets match the keys and span the postings, and label keys strictly
// ascend like token keys.
TEST(EntityIndexTest, LoadRejectsMalformedKeyTables) {
  constexpr auto kCorruption = Status::Code::kCorruption;
  IndexLoader loader;
  for (KeyTable IndexPayload::*table :
       {&IndexPayload::labels, &IndexPayload::tokens}) {
    auto load_with = [&](void (*edit)(KeyTable*)) {
      IndexPayload p = loader.valid();
      edit(&(p.*table));
      return loader.Load(p).code();
    };
    // Key offsets: from 0, monotone, ending at the blob's end.
    EXPECT_EQ(load_with([](KeyTable* t) { t->key_offsets = {1, 6}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->key_offsets = {0, 7}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->key_offsets = {0, 5}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->key_offsets = {0, 7, 6}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->key_offsets.clear(); }),
              kCorruption);
    // Postings offsets: one per key plus one, monotone, from 0 to the end
    // of the postings.
    EXPECT_EQ(load_with([](KeyTable* t) { t->postings_offsets = {0, 2, 2}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->postings_offsets = {0, 3}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->postings_offsets = {0, 1}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->postings_offsets = {1, 2}; }),
              kCorruption);
    EXPECT_EQ(load_with([](KeyTable* t) { t->postings_offsets.clear(); }),
              kCorruption);
  }
  // Descending postings offsets over three keys.
  IndexPayload p = loader.valid();
  p.tokens = KeyTable::Of({"alpha", "beta", "shared"},
                          {loader.low(), loader.high()});
  EXPECT_TRUE(loader.Load(p).ok());
  p.tokens.postings_offsets = {0, 5, 1, 6};
  EXPECT_EQ(loader.Load(p).code(), kCorruption);
  // Label keys strictly ascend too: lookups binary-search them.
  p = loader.valid();
  p.labels = KeyTable::Of({"shared", "alpha"}, {loader.low(), loader.high()});
  EXPECT_EQ(loader.Load(p).code(), kCorruption);
  p.labels = KeyTable::Of({"alpha", "shared"}, {loader.low(), loader.high()});
  EXPECT_TRUE(loader.Load(p).ok());
}

TEST(EntityIndexTest, NumericLiteralsAreNotIndexed) {
  const auto& world = ganswer::testing::World();
  EntityIndex index(world.kb.graph);
  EXPECT_TRUE(index.ExactMatches("1.98").empty());
}

// Boundary cases of the pruned linker. Each builds a small KB whose
// candidate count and scores sit on one of the pruning rules' edges, and
// checks both the intended outcome and equality with the unpruned
// reference linker (tests/oracle/link_oracle.h).
class LinkerBoundaryTest : public ::testing::Test {
 protected:
  /// An entity of class Thing, with optional lowercase rdfs:label literals
  /// (lowercase, so the literals are not indexed as vertices of their own).
  void AddEntity(const std::string& iri,
                 const std::vector<std::string>& labels = {}) {
    graph_.AddTriple(iri, "rdf:type", "Thing");
    for (const std::string& label : labels) {
      graph_.AddTriple(iri, "rdfs:label", label, rdf::TermKind::kLiteral);
    }
  }
  /// \p n entities Filler_<tag>_<i> whose IRI labels share \p tag with the
  /// phrases below.
  void AddFillers(const std::string& tag, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      AddEntity("Filler_" + tag + "_f" + std::to_string(i));
    }
  }
  void Finalize() {
    ASSERT_TRUE(graph_.Finalize().ok());
    index_ = std::make_unique<EntityIndex>(graph_);
  }

  size_t NumCandidates(const std::string& phrase) {
    return ganswer::testing::ShapeOf(*index_, phrase).candidates;
  }
  /// Links \p phrase and checks the result against the reference.
  std::vector<LinkCandidate> Link(const std::string& phrase,
                                  EntityLinker::Options options = {}) {
    std::vector<LinkCandidate> got =
        EntityLinker(index_.get(), options).Link(phrase);
    std::vector<LinkCandidate> want =
        ganswer::testing::ReferenceLink(*index_, options, phrase);
    EXPECT_EQ(got.size(), want.size()) << phrase;
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      EXPECT_EQ(got[i].vertex, want[i].vertex) << phrase << " rank " << i;
      EXPECT_EQ(got[i].is_class, want[i].is_class) << phrase << " rank " << i;
      EXPECT_EQ(got[i].confidence, want[i].confidence)
          << phrase << " rank " << i;
    }
    return got;
  }
  bool Has(const std::vector<LinkCandidate>& cands, const std::string& iri) {
    rdf::TermId v = *graph_.Find(iri);
    return std::any_of(cands.begin(), cands.end(),
                       [v](const LinkCandidate& c) { return c.vertex == v; });
  }
  double Popularity(const std::string& iri) {
    double degree = static_cast<double>(graph_.Degree(*graph_.Find(iri)));
    return std::log(1.0 + degree) /
           std::log(1.0 + static_cast<double>(graph_.MaxDegree()));
  }

  rdf::RdfGraph graph_;
  std::unique_ptr<EntityIndex> index_;
};

// "abcd efgh a" and "cd efgh abc" are rotations of one cyclic string, so
// their bigram Dice is exactly 1 and the fuzzy pass lifts the near-miss to
// 0.3 + 0.4 = 0.7, which survives exact-match dominance. Its token score
// (one shared token of three) is below 0.7, and 2s < q. The fuzzy pass runs
// at 32 candidates and not at 33, so the near-miss is a candidate at 32
// and erased at 33: only the full candidate count may gate pruning.
class FuzzyGateTest : public LinkerBoundaryTest,
                      public ::testing::WithParamInterface<size_t> {};

TEST_P(FuzzyGateTest, FuzzyNearMissSurvivesOnlyWhenTheFuzzyPassRuns) {
  const size_t total = GetParam();
  AddEntity("Abcd_efgh_a");
  AddEntity("Near", {"cd efgh abc"});
  AddFillers("efgh", total - 2);
  Finalize();
  ASSERT_EQ(NumCandidates("abcd efgh a"), total);
  EntityLinker::Options options;
  options.max_candidates = 64;
  auto cands = Link("abcd efgh a", options);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Abcd_efgh_a"));
  EXPECT_EQ(Has(cands, "Near"), total <= 32);
  // Everything else shares one token of three and is erased.
  EXPECT_EQ(cands.size(), total <= 32 ? 2u : 1u);
}

INSTANTIATE_TEST_SUITE_P(ThirtyTwoAndThirtyThree, FuzzyGateTest,
                         ::testing::Values(32, 33));

TEST_F(LinkerBoundaryTest, PermutedLabelDominatesWithoutExactMatch) {
  AddEntity("Permuted", {"gamma alpha beta"});
  AddEntity("Partial", {"alpha beta delta"});
  AddFillers("alpha", 40);
  Finalize();
  ASSERT_GT(NumCandidates("alpha beta gamma"), 32u);
  auto cands = Link("alpha beta gamma");
  ASSERT_EQ(cands.size(), 2u);
  // The permuted label has similarity 1 and no discount.
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Permuted"));
  EXPECT_DOUBLE_EQ(cands[0].confidence, 0.75 + 0.25 * Popularity("Permuted"));
  // Two of three tokens: similarity 0.758 survives at a 0.6 discount; the
  // one-token fillers are erased.
  EXPECT_EQ(cands[1].vertex, *graph_.Find("Partial"));
}

TEST_F(LinkerBoundaryTest, TwelveTokenPhraseWithElevenSharedReachesDominance) {
  const std::string phrase =
      "t01 t02 t03 t04 t05 t06 t07 t08 t09 t10 t11 t12";
  // s = 11 of q = 12 with an 11-token label: 0.4 + 0.35·11/12 + 0.25·11/12
  // is exactly 0.95, so this vertex must be scored before dominance is
  // decided even though it is not an exact match.
  AddEntity("Eleven", {"t01 t02 t03 t04 t05 t06 t07 t08 t09 t10 t11"});
  AddEntity("Six", {"t01 t02 t03 t04 t05 t06"});
  AddFillers("t01", 40);
  Finalize();
  ASSERT_GT(NumCandidates(phrase), 32u);
  auto cands = Link(phrase);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Eleven"));
  EXPECT_DOUBLE_EQ(cands[0].confidence,
                   0.75 * 0.95 + 0.25 * Popularity("Eleven"));
  // 2s = q sits exactly on the pruning edge: 0.4 + 0.175 + 0.125 = 0.7
  // survives dominance (at a discount), so it must not be skipped. The
  // one-token fillers are erased.
  EXPECT_EQ(cands[1].vertex, *graph_.Find("Six"));
}

TEST_F(LinkerBoundaryTest, DuplicateQueryTokensCountOnce) {
  AddEntity("New_York");
  AddEntity("New_Jersey");
  AddFillers("new", 40);
  Finalize();
  ASSERT_GT(NumCandidates("new new york"), 32u);
  auto cands = Link("new new york");
  ASSERT_FALSE(cands.empty());
  // q = 2 distinct tokens, both in "new york": similarity 1.
  EXPECT_EQ(cands[0].vertex, *graph_.Find("New_York"));
  EXPECT_DOUBLE_EQ(cands[0].confidence, 0.75 + 0.25 * Popularity("New_York"));
  EXPECT_FALSE(Has(cands, "New_Jersey"));
}

TEST_F(LinkerBoundaryTest, SingularOnlyMatchDominates) {
  AddEntity("Red_widget");
  // A singular match whose own token score (a permuted label) beats 0.95.
  AddEntity("Widget_red", {"red widget", "widgets red"});
  AddEntity("Red_gadgets");
  AddFillers("red", 40);
  Finalize();
  ASSERT_TRUE(index_->ExactMatches("red widgets").empty());
  ASSERT_GT(NumCandidates("red widgets"), 32u);
  auto cands = Link("red widgets");
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Widget_red"));
  EXPECT_DOUBLE_EQ(cands[0].confidence,
                   0.75 + 0.25 * Popularity("Widget_red"));
  EXPECT_TRUE(Has(cands, "Red_widget"));
  EXPECT_FALSE(Has(cands, "Filler_red_f0"));
}

TEST_F(LinkerBoundaryTest, TwoTokenPhraseWithHubTokenPrunesNothing) {
  // q = 2: every posting has 2s >= q, so dominance pruning skips nothing
  // and each hub vertex is scored; the result must still match.
  AddEntity("Acme_2");
  AddEntity("Acme_corp", {"2 acme corp"});
  AddFillers("2", 60);
  Finalize();
  ASSERT_GT(NumCandidates("acme 2"), 32u);
  auto cands = Link("acme 2");
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Acme_2"));
  EXPECT_EQ(cands[1].vertex, *graph_.Find("Acme_corp"));
  // Without the exact match, MaxScore ranks hub vertices by their bound.
  EntityLinker::Options one;
  one.max_candidates = 1;
  auto top = Link("acme 2 corp", one);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].vertex, *graph_.Find("Acme_corp"));
}

TEST_F(LinkerBoundaryTest, TwoTokenHubPhraseKeepsOnlyOneTokenLabels) {
  // q = 2 with an exact match: a hub vertex shares s = 1 token, and under
  // dominance it survives only through a label with one distinct token
  // (0.4 + 0.175 + 0.25·1/2 = 0.7). Lmin(v) >= 2 bounds every other label
  // below 0.7, so those hub vertices are dropped unscored.
  AddEntity("Mystic_mystic_2");
  AddEntity("2");                          // the hub token alone
  AddEntity("Double_two", {"2 2"});        // one distinct token
  AddEntity("Solo", {"solo 2"});           // Lmin 1, but no 0.7 label
  AddFillers("2", 60);                     // only multi-token labels
  Finalize();
  ASSERT_GT(NumCandidates("mystic mystic 2"), 32u);
  ASSERT_EQ(index_->MinLabelTokens(*graph_.Find("Double_two")), 1u);
  ASSERT_EQ(index_->MinLabelTokens(*graph_.Find("Filler_2_f0")), 3u);
  auto cands = Link("mystic mystic 2");
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Mystic_mystic_2"));
  EXPECT_TRUE(Has(cands, "2"));
  EXPECT_TRUE(Has(cands, "Double_two"));
  EXPECT_FALSE(Has(cands, "Solo"));
  EXPECT_FALSE(Has(cands, "Filler_2_f0"));
}

// q = 3 with a hub token and a seed: only vertices with s >= 2 can be
// emitted, so the two short lists generate them and the hub is probed.
// Vertices in both short lists and in one short list plus the hub are
// found; hub-only and single-short-list vertices are never generated.
TEST_F(LinkerBoundaryTest, ThreeTokenHubPhraseWithExactSeed) {
  AddEntity("Alma_banik_2");
  AddEntity("Alma_banik");                 // both short lists
  AddEntity("Alma_2");                     // one short list + hub
  AddEntity("Banik_x_y_z_w_2");            // s = 2, a long label
  AddEntity("Alma_only");                  // one short list
  AddFillers("2", 60);                     // hub only
  Finalize();
  ASSERT_TRUE(ganswer::testing::ShapeOf(*index_, "alma banik 2").exact);
  ASSERT_GT(NumCandidates("alma banik 2"), 32u);
  auto cands = Link("alma banik 2");
  ASSERT_EQ(cands.size(), 4u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Alma_banik_2"));
  EXPECT_TRUE(Has(cands, "Alma_banik"));
  EXPECT_TRUE(Has(cands, "Alma_2"));
  // 0.4 + 0.35·2/3 + 0.25·2/7 = 0.705 survives dominance.
  EXPECT_TRUE(Has(cands, "Banik_x_y_z_w_2"));
  EXPECT_FALSE(Has(cands, "Alma_only"));
  EXPECT_FALSE(Has(cands, "Filler_2_f0"));
}

TEST_F(LinkerBoundaryTest, ThreeTokenHubPhraseWithSingularSeed) {
  // "alma 2 baniks" names nothing exactly; its singular "alma 2 banik"
  // does, at 0.95, which settles dominance just the same.
  AddEntity("Alma_2_banik");
  AddEntity("Alma_baniks");                // both short lists
  AddEntity("Baniks_2");                   // one short list + hub
  AddEntity("Baniks_only");                // one short list
  AddFillers("2", 60);                     // hub only
  Finalize();
  ASSERT_TRUE(index_->ExactMatches("alma 2 baniks").empty());
  ASSERT_TRUE(ganswer::testing::ShapeOf(*index_, "alma 2 baniks").exact);
  ASSERT_GT(NumCandidates("alma 2 baniks"), 32u);
  auto cands = Link("alma 2 baniks");
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[0].vertex, *graph_.Find("Alma_2_banik"));
  EXPECT_DOUBLE_EQ(cands[0].confidence,
                   0.75 * 0.95 + 0.25 * Popularity("Alma_2_banik"));
  EXPECT_TRUE(Has(cands, "Alma_baniks"));
  EXPECT_TRUE(Has(cands, "Baniks_2"));
  EXPECT_FALSE(Has(cands, "Baniks_only"));
  EXPECT_FALSE(Has(cands, "Filler_2_f0"));
}

}  // namespace
}  // namespace linking
}  // namespace ganswer
