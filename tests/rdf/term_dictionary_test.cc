#include "rdf/term_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {
namespace {

TEST(TermDictionaryTest, InternAssignsDenseIds) {
  TermDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  TermId a = dict.Intern("a");
  TermId b = dict.Intern("b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TermDictionaryTest, ReInternReturnsSameId) {
  TermDictionary dict;
  TermId a = dict.Intern("thing");
  EXPECT_EQ(dict.Intern("thing"), a);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(TermDictionaryTest, LookupFindsInterned) {
  TermDictionary dict;
  TermId a = dict.Intern("x");
  ASSERT_TRUE(dict.Lookup("x").has_value());
  EXPECT_EQ(*dict.Lookup("x"), a);
  EXPECT_FALSE(dict.Lookup("y").has_value());
}

TEST(TermDictionaryTest, TextRoundTrips) {
  TermDictionary dict;
  TermId a = dict.Intern("Antonio_Banderas");
  EXPECT_EQ(dict.text(a), "Antonio_Banderas");
}

TEST(TermDictionaryTest, IriAndLiteralSpacesAreSeparate) {
  // The literal "country" (a label value) and the IRI <country> (a
  // predicate) are distinct terms — the collision that would otherwise
  // corrupt serialization.
  TermDictionary dict;
  TermId lit = dict.Intern("country", TermKind::kLiteral);
  TermId iri = dict.Intern("country", TermKind::kIri);
  EXPECT_NE(lit, iri);
  EXPECT_TRUE(dict.IsLiteral(lit));
  EXPECT_FALSE(dict.IsLiteral(iri));
  EXPECT_EQ(dict.text(lit), dict.text(iri));
  EXPECT_EQ(*dict.Lookup("country", TermKind::kLiteral), lit);
  EXPECT_EQ(*dict.Lookup("country", TermKind::kIri), iri);
  EXPECT_EQ(*dict.LookupAny("country"), iri) << "IRI preferred";
  // Re-interning each kind is idempotent.
  EXPECT_EQ(dict.Intern("country", TermKind::kLiteral), lit);
  EXPECT_EQ(dict.Intern("country", TermKind::kIri), iri);
}

TEST(TermDictionaryTest, EmptyStringIsValidTerm) {
  TermDictionary dict;
  TermId e = dict.Intern("", TermKind::kLiteral);
  EXPECT_EQ(dict.text(e), "");
  EXPECT_TRUE(dict.Lookup("", TermKind::kLiteral).has_value());
  EXPECT_FALSE(dict.Lookup("", TermKind::kIri).has_value());
}

TEST(TermDictionaryTest, ManyTermsStayConsistent) {
  TermDictionary dict;
  for (int i = 0; i < 1000; ++i) {
    dict.Intern("t" + std::to_string(i));
  }
  EXPECT_EQ(dict.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    std::string name = "t" + std::to_string(i);
    auto id = dict.Lookup(name);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(dict.text(*id), name);
  }
}

// Save/load through the snapshot encoding; the copy's table is filled by
// the load's own pass, not by Intern.
void RoundTrip(const TermDictionary& dict, TermDictionary* out) {
  BinaryWriter w;
  dict.SaveBinary(&w);
  BinaryReader r(w.buffer());
  Status st = out->LoadBinary(&r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(r.AtEnd());
}

TEST(TermDictionaryTest, IriAndLiteralStayDistinctAfterRoundTrip) {
  TermDictionary dict;
  TermId lit = dict.Intern("country", TermKind::kLiteral);
  TermId iri = dict.Intern("country", TermKind::kIri);
  TermDictionary loaded;
  RoundTrip(dict, &loaded);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Lookup("country", TermKind::kLiteral), lit);
  EXPECT_EQ(loaded.Lookup("country", TermKind::kIri), iri);
  EXPECT_TRUE(loaded.IsLiteral(lit));
  EXPECT_FALSE(loaded.IsLiteral(iri));
  // Interning into the loaded dictionary finds the loaded terms.
  EXPECT_EQ(loaded.Intern("country", TermKind::kLiteral), lit);
  EXPECT_EQ(loaded.Intern("country", TermKind::kIri), iri);
  EXPECT_EQ(loaded.size(), 2u);
}

// A payload in the section layout: offsets, arena, kinds.
Status LoadPayload(const std::vector<uint64_t>& offsets,
                   const std::string& arena,
                   const std::vector<uint8_t>& kinds) {
  BinaryWriter w;
  w.WritePodVector(offsets);
  w.WriteString(arena);
  w.WritePodVector(kinds);
  BinaryReader r(w.buffer());
  TermDictionary dict;
  return dict.LoadBinary(&r);
}

TEST(TermDictionaryTest, LoadRejectsDuplicateTerm) {
  const uint8_t iri = static_cast<uint8_t>(TermKind::kIri);
  const uint8_t lit = static_cast<uint8_t>(TermKind::kLiteral);
  EXPECT_TRUE(LoadPayload({0, 3, 6}, "abcxyz", {iri, iri}).ok());
  // The same text in both spaces is two terms, not a duplicate.
  EXPECT_TRUE(LoadPayload({0, 3, 6}, "abcabc", {iri, lit}).ok());
  Status st = LoadPayload({0, 3, 6, 9}, "abcxyzabc", {lit, iri, lit});
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  st = LoadPayload({0, 0, 0}, "", {iri, iri});
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(TermDictionaryTest, LookupsSurviveTableGrowth) {
  // 120,000 terms grow the table from 16 to 262,144 slots; every
  // term stays findable in its own space, before and after a round trip.
  constexpr int kTerms = 60000;
  TermDictionary dict;
  std::vector<TermId> iris, literals;
  for (int i = 0; i < kTerms; ++i) {
    iris.push_back(dict.Intern("t" + std::to_string(i)));
    literals.push_back(
        dict.Intern("t" + std::to_string(i), TermKind::kLiteral));
  }
  ASSERT_EQ(dict.size(), 2u * kTerms);
  TermDictionary loaded;
  RoundTrip(dict, &loaded);
  for (const TermDictionary* d : {&dict, &loaded}) {
    for (int i = 0; i < kTerms; ++i) {
      const std::string name = "t" + std::to_string(i);
      ASSERT_EQ(d->Lookup(name), iris[i]) << name;
      ASSERT_EQ(d->Lookup(name, TermKind::kLiteral), literals[i]) << name;
    }
    EXPECT_FALSE(d->Lookup("t" + std::to_string(kTerms)).has_value());
    EXPECT_FALSE(d->Lookup("").has_value());
  }
}

TEST(TermDictionaryTest, InternOfItsOwnTextSurvivesArenaGrowth) {
  // A view into the arena, interned as a new term (another kind, or a
  // substring), must be copied before the arena reallocates.
  TermDictionary dict;
  for (int i = 0; i < 100; ++i) {
    TermId a = dict.Intern("term_number_" + std::to_string(i));
    TermId lit = dict.Intern(dict.text(a), TermKind::kLiteral);
    TermId tail = dict.Intern(dict.text(a).substr(5));
    EXPECT_EQ(dict.text(lit), "term_number_" + std::to_string(i));
    EXPECT_EQ(dict.text(tail), "number_" + std::to_string(i));
  }
  EXPECT_EQ(dict.size(), 300u);
}

TEST(TermDictionaryTest, ExtensionOverLoadedBase) {
  TermDictionary built;
  built.Intern("Alice");
  built.Intern("Bob");
  built.Intern("Bob", TermKind::kLiteral);
  TermDictionary base;
  RoundTrip(built, &base);

  TermDictionary ext;
  ext.InitExtension(&base);
  ASSERT_EQ(ext.base_size(), 3u);
  // Base terms resolve to their base ids and add nothing locally.
  EXPECT_EQ(ext.Intern("Alice"), *base.Lookup("Alice"));
  EXPECT_EQ(ext.Intern("Bob", TermKind::kLiteral),
            *base.Lookup("Bob", TermKind::kLiteral));
  EXPECT_EQ(ext.size(), 3u);
  // New terms get the next dense ids above the base, in both spaces.
  TermId carol = ext.Intern("Carol");
  TermId alice_lit = ext.Intern("Alice", TermKind::kLiteral);
  EXPECT_EQ(carol, 3u);
  EXPECT_EQ(alice_lit, 4u);
  for (int i = 0; i < 100; ++i) ext.Intern("x" + std::to_string(i));
  EXPECT_EQ(ext.Intern("Carol"), carol);
  EXPECT_EQ(ext.Lookup("Alice", TermKind::kLiteral), alice_lit);
  EXPECT_EQ(ext.Lookup("Bob"), base.Lookup("Bob"));
  EXPECT_EQ(ext.text(carol), "Carol");
  EXPECT_TRUE(ext.IsLiteral(alice_lit));
  EXPECT_EQ(ext.size(), 105u);
  // The base never sees the extension's terms.
  EXPECT_FALSE(base.Lookup("Carol").has_value());
  EXPECT_EQ(base.size(), 3u);
}

}  // namespace
}  // namespace rdf
}  // namespace ganswer
