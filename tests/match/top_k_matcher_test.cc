#include "match/top_k_matcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"

namespace ganswer {
namespace match {
namespace {

paraphrase::ParaphraseEntry Entry(const rdf::RdfGraph& g, const char* pred,
                                  bool fwd, double conf) {
  paraphrase::ParaphraseEntry e;
  e.path.steps = {{*g.Find(pred), fwd}};
  e.confidence = conf;
  return e;
}

linking::LinkCandidate Cand(const rdf::RdfGraph& g, const char* name,
                            double conf, bool is_class = false) {
  linking::LinkCandidate c;
  c.vertex = *g.Find(name);
  c.confidence = conf;
  c.is_class = is_class;
  return c;
}

rdf::RdfGraph RunningExampleGraph() {
  rdf::RdfGraph g;
  g.AddTriple("Melanie", "spouse", "Antonio");
  g.AddTriple("Antonio", "rdf:type", "Actor");
  g.AddTriple("Melanie", "rdf:type", "Actor");
  g.AddTriple("Philadelphia_(film)", "starring", "Antonio");
  g.AddTriple("Philadelphia_76ers", "locationCity", "Philadelphia");
  g.AddTriple("Philadelphia", "country", "US");
  g.AddTriple("Jamie", "playForTeam", "Philadelphia_76ers");
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

// Q^S of the running example: who --married to-- actor --play in-- Phila.
QueryGraph RunningExampleQuery(const rdf::RdfGraph& g) {
  QueryGraph q;
  QueryVertex who;
  who.wildcard = true;
  QueryVertex actor;
  actor.candidates = {Cand(g, "Actor", 1.0, true)};
  QueryVertex phila;
  phila.candidates = {Cand(g, "Philadelphia_(film)", 0.9),
                      Cand(g, "Philadelphia", 0.9),
                      Cand(g, "Philadelphia_76ers", 0.8)};
  q.vertices = {who, actor, phila};
  QueryEdge married;
  married.from = 0;
  married.to = 1;
  married.candidates = {Entry(g, "spouse", true, 1.0)};
  QueryEdge play;
  play.from = 1;
  play.to = 2;
  play.candidates = {Entry(g, "starring", false, 1.0),
                     Entry(g, "playForTeam", true, 0.5)};
  q.edges = {married, play};
  return q;
}

TEST(TopKMatcherTest, RunningExampleResolvesAmbiguityFromData) {
  rdf::RdfGraph g = RunningExampleGraph();
  TopKMatcher matcher(&g);
  auto matches = matcher.FindTopK(RunningExampleQuery(g));
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_EQ(matches->size(), 1u)
      << "only the film interpretation yields a subgraph match";
  const Match& m = (*matches)[0];
  EXPECT_EQ(m.assignment[0], *g.Find("Melanie"));
  EXPECT_EQ(m.assignment[1], *g.Find("Antonio"));
  EXPECT_EQ(m.assignment[2], *g.Find("Philadelphia_(film)"));
}

TEST(TopKMatcherTest, ScoreFollowsDefinitionSix) {
  rdf::RdfGraph g = RunningExampleGraph();
  TopKMatcher matcher(&g);
  auto matches = matcher.FindTopK(RunningExampleQuery(g));
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  // log(1.0 [wh]) + log(1.0 [class actor]) + log(0.9 [film cand])
  // + log(1.0 [spouse]) + log(1.0 [starring]).
  EXPECT_NEAR((*matches)[0].score, std::log(0.9), 1e-9);
}

TEST(TopKMatcherTest, AllWildcardQueryIsRejected) {
  rdf::RdfGraph g = RunningExampleGraph();
  QueryGraph q;
  QueryVertex a, b;
  a.wildcard = b.wildcard = true;
  q.vertices = {a, b};
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.wildcard = true;
  q.edges = {e};
  TopKMatcher matcher(&g);
  EXPECT_TRUE(matcher.FindTopK(q).status().IsInvalidArgument());
}

TEST(TopKMatcherTest, SingleVertexQueryListsDomain) {
  rdf::RdfGraph g = RunningExampleGraph();
  QueryGraph q;
  QueryVertex actors;
  actors.candidates = {Cand(g, "Actor", 0.8, true)};
  q.vertices = {actors};
  TopKMatcher matcher(&g);
  auto matches = matcher.FindTopK(q);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 2u) << "Antonio and Melanie";
}

TEST(TopKMatcherTest, EmptyQueryIsRejected) {
  rdf::RdfGraph g = RunningExampleGraph();
  TopKMatcher matcher(&g);
  EXPECT_FALSE(matcher.FindTopK(QueryGraph{}).ok());
}

TEST(TopKMatcherTest, PrunedToNothingGivesEmptyResult) {
  rdf::RdfGraph g = RunningExampleGraph();
  QueryGraph q = RunningExampleQuery(g);
  // Restrict the Philadelphia vertex to the city only: pruning kills it.
  q.vertices[2].candidates = {Cand(g, "Philadelphia", 0.9)};
  TopKMatcher matcher(&g);
  auto matches = matcher.FindTopK(q);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(TopKMatcherTest, KLimitsAndTiesAreKept) {
  rdf::RdfGraph g;
  for (int i = 0; i < 8; ++i) {
    g.AddTriple("hub", "p", "n" + std::to_string(i));
  }
  ASSERT_TRUE(g.Finalize().ok());
  QueryGraph q;
  QueryVertex hub;
  hub.candidates = {Cand(g, "hub", 1.0)};
  QueryVertex other;
  other.wildcard = true;
  q.vertices = {hub, other};
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "p", true, 0.9)};
  q.edges = {e};

  TopKMatcher::Options opt;
  opt.k = 3;
  TopKMatcher matcher(&g, opt);
  auto matches = matcher.FindTopK(q);
  ASSERT_TRUE(matches.ok());
  // All 8 matches share the same score: ties with the k-th are all kept
  // (the paper returns more than k on equal scores).
  EXPECT_EQ(matches->size(), 8u);
}

// The cut rule itself, on a hand-built list: MatchOrder ranks by score
// descending and breaks ties by assignment ascending, and every match tied
// with the k-th score survives the cut.
TEST(TopKMatcherTest, SortAndCutTopKOrdersTiesAndKeepsThem) {
  std::vector<Match> matches = {
      {{5, 1}, -1.0}, {{2, 9}, -0.5}, {{4, 0}, -1.0},
      {{3, 3}, -2.0}, {{1, 7}, -1.0}, {{6, 6}, -0.5},
  };
  std::vector<Match> cut = matches;
  SortAndCutTopK(&cut, 3);
  const std::vector<std::vector<rdf::TermId>> want = {
      {2, 9}, {6, 6}, {1, 7}, {4, 0}, {5, 1}};
  ASSERT_EQ(cut.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(cut[i].assignment, want[i]) << "rank " << i;
  }
  EXPECT_EQ(cut.back().score, -1.0);

  // k = 0 sorts without cutting.
  std::vector<Match> all = matches;
  SortAndCutTopK(&all, 0);
  ASSERT_EQ(all.size(), matches.size());
  EXPECT_EQ(all.back().assignment, (std::vector<rdf::TermId>{3, 3}));
}

// ---------------------------------------------------------------------------
// Property: TA early termination returns exactly the same top-k as the
// exhaustive run, on randomized graphs and candidate lists.
// ---------------------------------------------------------------------------

class TopKPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKPropertyTest, EarlyStopEqualsExhaustive) {
  Rng rng(GetParam());
  rdf::RdfGraph g;
  std::vector<std::string> vs;
  for (int i = 0; i < 12; ++i) vs.push_back("v" + std::to_string(i));
  std::vector<std::string> ps{"p", "q", "r"};
  for (int i = 0; i < 30; ++i) {
    g.AddTriple(rng.Pick(vs), rng.Pick(ps), rng.Pick(vs));
  }
  // A name no triple drew still gets an id: as a candidate it matches
  // nothing.
  for (const std::string& v : vs) g.dict().Intern(v);
  for (const std::string& p : ps) g.dict().Intern(p);
  ASSERT_TRUE(g.Finalize().ok());

  QueryGraph query;
  QueryVertex a;
  for (int i = 0; i < 5; ++i) {
    a.candidates.push_back(
        Cand(g, vs[rng.Next(vs.size())].c_str(), 0.3 + 0.1 * rng.Next(7)));
  }
  QueryVertex b;
  b.wildcard = true;
  query.vertices = {a, b};
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "p", true, 0.9), Entry(g, "q", false, 0.6)};
  query.edges = {e};

  TopKMatcher::Options with_ta;
  with_ta.k = 4;
  with_ta.ta_early_stop = true;
  TopKMatcher::Options without_ta = with_ta;
  without_ta.ta_early_stop = false;

  auto fast = TopKMatcher(&g, with_ta).FindTopK(query);
  auto slow = TopKMatcher(&g, without_ta).FindTopK(query);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(fast->size(), slow->size()) << "seed=" << GetParam();
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_DOUBLE_EQ((*fast)[i].score, (*slow)[i].score);
    EXPECT_EQ((*fast)[i].assignment, (*slow)[i].assignment);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28, 29,
                                           30));

}  // namespace
}  // namespace match
}  // namespace ganswer
