#include "nlp/lexicon.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ganswer {
namespace nlp {
namespace {

class LexiconTest : public ::testing::Test {
 protected:
  Lexicon lex_;
};

TEST_F(LexiconTest, ClosedClassMembership) {
  EXPECT_TRUE(lex_.IsWhWord("who"));
  EXPECT_TRUE(lex_.IsWhWord("which"));
  EXPECT_FALSE(lex_.IsWhWord("actor"));
  EXPECT_TRUE(lex_.IsAux("was"));
  EXPECT_TRUE(lex_.IsAux("did"));
  EXPECT_FALSE(lex_.IsAux("play"));
  EXPECT_TRUE(lex_.IsDeterminer("the"));
  EXPECT_TRUE(lex_.IsDeterminer("all"));
  EXPECT_TRUE(lex_.IsPreposition("in"));
  EXPECT_TRUE(lex_.IsPreposition("through"));
  EXPECT_TRUE(lex_.IsPronoun("me"));
  EXPECT_TRUE(lex_.IsPronoun("that"));
  EXPECT_TRUE(lex_.IsConjunction("and"));
  EXPECT_FALSE(lex_.IsConjunction("in"));
  EXPECT_TRUE(lex_.IsAdjective("tall"));
  EXPECT_TRUE(lex_.IsAdjective("youngest"));
}

TEST_F(LexiconTest, NounsIncludingPlurals) {
  EXPECT_TRUE(lex_.IsNoun("actor"));
  EXPECT_TRUE(lex_.IsNoun("actors"));
  EXPECT_TRUE(lex_.IsNoun("movies"));
  EXPECT_TRUE(lex_.IsNoun("cities"));  // -ies -> y
  EXPECT_FALSE(lex_.IsNoun("zzzz"));
}

struct LemmaCase {
  const char* form;
  const char* lemma;
};

// Prints the case by value so the discovered ctest names stay the same
// from build to build (gtest would otherwise print the pointer bytes).
void PrintTo(const LemmaCase& c, std::ostream* os) {
  *os << c.form << "->" << c.lemma;
}

class LemmatizeTest : public ::testing::TestWithParam<LemmaCase> {
 protected:
  Lexicon lex_;
};

TEST_P(LemmatizeTest, ProducesBaseForm) {
  EXPECT_EQ(lex_.Lemmatize(GetParam().form), GetParam().lemma);
}

INSTANTIATE_TEST_SUITE_P(
    Verbs, LemmatizeTest,
    ::testing::Values(LemmaCase{"married", "marry"},
                      LemmaCase{"starred", "star"},
                      LemmaCase{"starring", "star"},
                      LemmaCase{"played", "play"},
                      LemmaCase{"plays", "play"},
                      LemmaCase{"was", "be"}, LemmaCase{"were", "be"},
                      LemmaCase{"is", "be"}, LemmaCase{"did", "do"},
                      LemmaCase{"born", "bear"},
                      LemmaCase{"wrote", "write"},
                      LemmaCase{"written", "write"},
                      LemmaCase{"died", "die"}, LemmaCase{"lived", "live"},
                      LemmaCase{"founded", "found"},
                      LemmaCase{"directed", "direct"},
                      LemmaCase{"developed", "develop"},
                      LemmaCase{"crosses", "cross"},
                      LemmaCase{"flows", "flow"}));

INSTANTIATE_TEST_SUITE_P(
    NounsAndUnknown, LemmatizeTest,
    ::testing::Values(LemmaCase{"movies", "movie"},
                      LemmaCase{"cities", "city"},
                      LemmaCase{"actors", "actor"},
                      LemmaCase{"members", "member"},
                      LemmaCase{"children", "children"},
                      LemmaCase{"philadelphia", "philadelphia"},
                      LemmaCase{"banderas", "banderas"}));

TEST_F(LexiconTest, VerbFormRecognition) {
  EXPECT_TRUE(lex_.IsVerbForm("played"));
  EXPECT_TRUE(lex_.IsVerbForm("starred"));
  EXPECT_TRUE(lex_.IsVerbForm("marry"));
  EXPECT_TRUE(lex_.IsVerbForm("born"));
  EXPECT_FALSE(lex_.IsVerbForm("philadelphia"));
  EXPECT_FALSE(lex_.IsVerbForm("quarreled")) << "unknown verb stays unknown";
}

TEST_F(LexiconTest, PastParticipleDetection) {
  EXPECT_TRUE(lex_.IsPastParticiple("married"));
  EXPECT_TRUE(lex_.IsPastParticiple("directed"));
  EXPECT_TRUE(lex_.IsPastParticiple("born"));
  EXPECT_TRUE(lex_.IsPastParticiple("written"));
  EXPECT_FALSE(lex_.IsPastParticiple("marry"));
  EXPECT_FALSE(lex_.IsPastParticiple("wrote"));
}

TEST_F(LexiconTest, VocabularyExtension) {
  EXPECT_FALSE(lex_.IsVerbForm("zonkify"));
  lex_.AddVerb("zonkify");
  EXPECT_TRUE(lex_.IsVerbForm("zonkify"));
  EXPECT_TRUE(lex_.IsVerbForm("zonkified"));
  EXPECT_EQ(lex_.Lemmatize("zonkified"), "zonkify");

  lex_.AddNoun("gadget");
  EXPECT_TRUE(lex_.IsNoun("gadgets"));
  lex_.AddAdjective("frumious");
  EXPECT_TRUE(lex_.IsAdjective("frumious"));
}

TEST_F(LexiconTest, LoadVocabularyFromStream) {
  std::istringstream in(
      "# domain vocabulary\n"
      "noun spaceship\n"
      "verb zorch\n"
      "adjective quantal\n"
      "\n");
  ASSERT_TRUE(lex_.LoadVocabulary(&in).ok());
  EXPECT_TRUE(lex_.IsNoun("spaceship"));
  EXPECT_TRUE(lex_.IsNoun("spaceships"));
  EXPECT_TRUE(lex_.IsVerbForm("zorched"));
  EXPECT_EQ(lex_.Lemmatize("zorched"), "zorch");
  EXPECT_TRUE(lex_.IsAdjective("quantal"));
}

TEST_F(LexiconTest, LoadVocabularyRejectsMalformed) {
  std::istringstream missing("noun\n");
  EXPECT_TRUE(lex_.LoadVocabulary(&missing).IsCorruption());
  std::istringstream kind("adverb quickly\n");
  EXPECT_TRUE(lex_.LoadVocabulary(&kind).IsCorruption());
  EXPECT_TRUE(lex_.LoadVocabulary(nullptr).IsInvalidArgument());
}

}  // namespace
}  // namespace nlp
}  // namespace ganswer
