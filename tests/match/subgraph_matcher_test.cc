#include "match/subgraph_matcher.h"

#include <gtest/gtest.h>

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

rdf::RdfGraph TriangleGraph() {
  rdf::RdfGraph g;
  g.AddTriple("a", "p", "b");
  g.AddTriple("b", "p", "c");
  g.AddTriple("c", "p", "a");
  g.AddTriple("a", "q", "x");
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(SubgraphMatcherTest, AnchoredSearchFindsAllMatchesContainingAnchor) {
  rdf::RdfGraph g = TriangleGraph();
  QueryGraph q;
  QueryVertex u, v;
  u.wildcard = v.wildcard = false;
  u.candidates = {Cand(g, "a", 1.0), Cand(g, "b", 1.0), Cand(g, "c", 1.0)};
  v.candidates = u.candidates;
  q.vertices = {u, v};
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "p", true, 1.0)};
  q.edges = {e};

  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("a"), 0, &out);
  // a participates as arg1 in (a,b) via forward and (a,c) via Def-3 reverse.
  EXPECT_EQ(out.size(), 2u);
}

TEST(SubgraphMatcherTest, InjectivityForbidsVertexReuse) {
  rdf::RdfGraph g;
  g.AddTriple("n", "loop", "n");
  g.AddTriple("n", "loop", "m");
  ASSERT_TRUE(g.Finalize().ok());
  QueryGraph q;
  QueryVertex u, v;
  u.candidates = {Cand(g, "n", 1.0)};
  v.wildcard = true;
  q.vertices = {u, v};
  QueryEdge e;
  e.from = 0;
  e.to = 1;
  e.candidates = {Entry(g, "loop", true, 1.0)};
  q.edges = {e};
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("n"), 0, &out);
  ASSERT_EQ(out.size(), 1u) << "the self-loop n->n is not a valid match";
  EXPECT_EQ(out[0].assignment[1], *g.Find("m"));
}

TEST(SubgraphMatcherTest, AnchorOutsideDomainYieldsNothing) {
  rdf::RdfGraph g = TriangleGraph();
  QueryGraph q;
  QueryVertex u;
  u.candidates = {Cand(g, "a", 1.0)};
  q.vertices = {u};
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("b"), 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SubgraphMatcherTest, MultipleBackEdgesAllChecked) {
  // Query triangle u-v-w; data has one triangle and one open path.
  rdf::RdfGraph g = TriangleGraph();
  QueryGraph q;
  QueryVertex u, v, w;
  u.wildcard = v.wildcard = w.wildcard = true;
  u.wildcard = false;
  u.candidates = {Cand(g, "a", 1.0), Cand(g, "x", 1.0)};
  q.vertices = {u, v, w};
  QueryEdge e1{0, 1, {Entry(g, "p", true, 1.0)}, false, 0.3};
  QueryEdge e2{1, 2, {Entry(g, "p", true, 1.0)}, false, 0.3};
  QueryEdge e3{2, 0, {Entry(g, "p", true, 1.0)}, false, 0.3};
  q.edges = {e1, e2, e3};
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("a"), 0, &out);
  // Triangle a-b-c closes (Def-3 either-direction makes rotations valid);
  // x has no p-edges at all, so anchoring at a only.
  ASSERT_FALSE(out.empty());
  for (const Match& m : out) {
    std::set<rdf::TermId> used(m.assignment.begin(), m.assignment.end());
    EXPECT_EQ(used.size(), 3u);
    EXPECT_FALSE(used.count(*g.Find("x")));
  }
}

TEST(SubgraphMatcherTest, LimitStopsEnumeration) {
  rdf::RdfGraph g;
  for (int i = 0; i < 10; ++i) {
    g.AddTriple("hub", "p", "n" + std::to_string(i));
  }
  ASSERT_TRUE(g.Finalize().ok());
  QueryGraph q;
  QueryVertex hub;
  hub.candidates = {Cand(g, "hub", 1.0)};
  QueryVertex other;
  other.wildcard = true;
  q.vertices = {hub, other};
  QueryEdge e{0, 1, {Entry(g, "p", true, 1.0)}, false, 0.3};
  q.edges = {e};
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("hub"), 4, &out);
  EXPECT_EQ(out.size(), 4u);
}

TEST(SubgraphMatcherTest, DisconnectedQueryMatchesAnchorComponentOnly) {
  rdf::RdfGraph g = TriangleGraph();
  QueryGraph q;
  QueryVertex u, v, lonely;
  u.candidates = {Cand(g, "a", 1.0)};
  v.wildcard = true;
  lonely.candidates = {Cand(g, "x", 1.0)};
  q.vertices = {u, v, lonely};
  QueryEdge e{0, 1, {Entry(g, "p", true, 1.0)}, false, 0.3};
  q.edges = {e};
  CandidateSpace space = CandidateSpace::Build(g, q, false);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  SubgraphMatcher matcher(&g, &q, &space, stats);
  std::vector<Match> out;
  matcher.FindMatchesFrom(0, *g.Find("a"), 0, &out);
  ASSERT_FALSE(out.empty());
  for (const Match& m : out) {
    EXPECT_EQ(m.assignment[2], rdf::kInvalidTerm)
        << "the disconnected vertex stays unassigned";
  }
}

}  // namespace
}  // namespace match
}  // namespace ganswer
