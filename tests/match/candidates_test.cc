#include "match/candidates.h"

#include <gtest/gtest.h>

namespace ganswer {
namespace match {
namespace {

// The paper's Figure 2 neighborhood: three "Philadelphia"s, only the film
// has a starring edge.
rdf::RdfGraph Figure2Graph() {
  rdf::RdfGraph g;
  g.AddTriple("Philadelphia_(film)", "starring", "Antonio");
  g.AddTriple("Philadelphia_76ers", "locationCity", "Philadelphia");
  g.AddTriple("Philadelphia", "country", "United_States");
  g.AddTriple("Antonio", "rdf:type", "Actor");
  g.AddTriple("Melanie", "spouse", "Antonio");
  g.AddTriple("Melanie", "rdf:type", "Actor");
  // The paper's other "play in" predicate: a known term, but no triple of
  // this excerpt uses it.
  g.dict().Intern("playForTeam");
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

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

TEST(CandidateSpaceTest, EntityCandidatesBecomeDomainItems) {
  rdf::RdfGraph g = Figure2Graph();
  QueryGraph q;
  QueryVertex v;
  v.candidates = {Cand(g, "Philadelphia_(film)", 0.9),
                  Cand(g, "Philadelphia", 0.8)};
  q.vertices.push_back(v);
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  ASSERT_EQ(space.domain(0).items.size(), 2u);
  EXPECT_EQ(space.domain(0).items[0].confidence, 0.9);
}

TEST(CandidateSpaceTest, ClassCandidatesExpandToInstances) {
  rdf::RdfGraph g = Figure2Graph();
  QueryGraph q;
  QueryVertex v;
  v.candidates = {Cand(g, "Actor", 0.7, /*is_class=*/true)};
  q.vertices.push_back(v);
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  EXPECT_EQ(space.domain(0).items.size(), 2u) << "Antonio and Melanie";
  for (const auto& item : space.domain(0).items) {
    EXPECT_DOUBLE_EQ(item.confidence, 0.7) << "class confidence inherited";
  }
}

TEST(CandidateSpaceTest, NeighborhoodPruningDropsU5) {
  // Paper, Sec. 4.2.2: <Philadelphia> (the city, u5) has no adjacent
  // predicate mapping "play in", so it is pruned from C_v3.
  rdf::RdfGraph g = Figure2Graph();
  QueryGraph q;
  QueryVertex actor;
  actor.candidates = {Cand(g, "Actor", 1.0, true)};
  QueryVertex phila;
  phila.candidates = {Cand(g, "Philadelphia_(film)", 0.9),
                      Cand(g, "Philadelphia", 0.9),
                      Cand(g, "Philadelphia_76ers", 0.8)};
  q.vertices = {actor, phila};
  QueryEdge play;
  play.from = 0;
  play.to = 1;
  play.candidates = {Entry(g, "starring", false, 1.0),
                     Entry(g, "playForTeam", true, 0.4)};
  q.edges = {play};

  CandidateSpace unpruned = CandidateSpace::Build(g, q, false);
  EXPECT_EQ(unpruned.domain(1).items.size(), 3u);

  CandidateSpace pruned = CandidateSpace::Build(g, q, true);
  ASSERT_EQ(pruned.domain(1).items.size(), 1u)
      << "only the film has an incident starring/playForTeam edge";
  EXPECT_EQ(pruned.domain(1).items[0].vertex, *g.Find("Philadelphia_(film)"));
}

TEST(CandidateSpaceTest, WildcardDomainsStayEmpty) {
  rdf::RdfGraph g = Figure2Graph();
  QueryGraph q;
  QueryVertex wh;
  wh.wildcard = true;
  q.vertices.push_back(wh);
  CandidateSpace space = CandidateSpace::Build(g, q, true);
  EXPECT_TRUE(space.domain(0).wildcard);
  EXPECT_TRUE(space.domain(0).items.empty());
  EXPECT_TRUE(space.VertexDelta(0, *g.Find("Antonio")).has_value());
}

TEST(CandidateSpaceTest, VertexDeltaReflectsBestCandidate) {
  rdf::RdfGraph g = Figure2Graph();
  QueryGraph q;
  QueryVertex v;
  v.candidates = {Cand(g, "Antonio", 0.5), Cand(g, "Antonio", 0.8),
                  Cand(g, "Actor", 0.3, true)};
  q.vertices.push_back(v);
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  auto delta = space.VertexDelta(0, *g.Find("Antonio"));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 0.8) << "max of duplicate/class contributions";
  EXPECT_FALSE(space.VertexDelta(0, *g.Find("Philadelphia")).has_value());
}

TEST(CandidateSpaceTest, EdgeDeltaSinglePredicateEitherDirection) {
  rdf::RdfGraph g = Figure2Graph();
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "spouse", true, 0.9)};
  rdf::TermId mel = *g.Find("Melanie");
  rdf::TermId ant = *g.Find("Antonio");
  EXPECT_TRUE(CandidateSpace::EdgeDelta(g, e, 0, mel, ant).has_value());
  EXPECT_TRUE(CandidateSpace::EdgeDelta(g, e, 0, ant, mel).has_value())
      << "Definition 3 admits either direction";
  EXPECT_FALSE(
      CandidateSpace::EdgeDelta(g, e, 0, mel, *g.Find("Philadelphia"))
          .has_value());
}

TEST(CandidateSpaceTest, EdgeDeltaWildcardNeedsDirectEdge) {
  rdf::RdfGraph g = Figure2Graph();
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.wildcard = true;
  e.wildcard_confidence = 0.25;
  auto delta = CandidateSpace::EdgeDelta(g, e, 0, *g.Find("Melanie"),
                                         *g.Find("Antonio"));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 0.25);
  EXPECT_FALSE(CandidateSpace::EdgeDelta(g, e, 0, *g.Find("Melanie"),
                                         *g.Find("Philadelphia"))
                   .has_value());
}

TEST(CandidateSpaceTest, EdgeDeltaPicksBestConnectingCandidate) {
  rdf::RdfGraph g = Figure2Graph();
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "starring", true, 0.9),
                  Entry(g, "spouse", true, 0.6)};
  auto delta = CandidateSpace::EdgeDelta(g, e, 0, *g.Find("Melanie"),
                                         *g.Find("Antonio"));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 0.6) << "starring does not connect them";
}

TEST(CandidateSpaceTest, ExpandFollowsPredicatePaths) {
  rdf::RdfGraph g = Figure2Graph();
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  paraphrase::ParaphraseEntry two_hop;
  two_hop.path.steps = {{*g.Find("spouse"), true},
                        {*g.Find("starring"), false}};
  two_hop.confidence = 0.5;
  e.candidates = {two_hop};
  // Melanie -spouse-> Antonio <-starring- Philadelphia_(film).
  auto ends = CandidateSpace::Expand(g, e, 0, *g.Find("Melanie"));
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], *g.Find("Philadelphia_(film)"));
  // From the 'to' side the path runs reversed.
  auto back = CandidateSpace::Expand(g, e, 1, *g.Find("Philadelphia_(film)"));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], *g.Find("Melanie"));
}

}  // namespace
}  // namespace match
}  // namespace ganswer
