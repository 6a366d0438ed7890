#include "rdf/rdf_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ganswer {
namespace rdf {
namespace {

RdfGraph SmallGraph() {
  RdfGraph g;
  g.AddTriple("Melanie", "spouse", "Antonio");
  g.AddTriple("Philadelphia_film", "starring", "Antonio");
  g.AddTriple("Antonio", "rdf:type", "Actor");
  g.AddTriple("Actor", "rdfs:subClassOf", "Person");
  g.AddTriple("Melanie", "rdf:type", "Actor");
  g.AddTriple("Antonio", "height", "1.80", TermKind::kLiteral);
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(RdfGraphTest, CountsTriplesAndPredicates) {
  RdfGraph g = SmallGraph();
  EXPECT_EQ(g.NumTriples(), 6u);
  // spouse, starring, rdf:type, rdfs:subClassOf, height.
  EXPECT_EQ(g.NumPredicates(), 5u);
}

TEST(RdfGraphTest, DuplicateTriplesAreDeduplicated) {
  RdfGraph g;
  g.AddTriple("a", "p", "b");
  g.AddTriple("a", "p", "b");
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(RdfGraphTest, OutAndInEdges) {
  RdfGraph g = SmallGraph();
  TermId antonio = *g.Find("Antonio");
  TermId melanie = *g.Find("Melanie");
  TermId spouse = *g.Find("spouse");
  EXPECT_EQ(g.OutDegree(melanie), 2u);  // spouse + rdf:type
  // Antonio has in-edges: spouse (Melanie), starring (film).
  EXPECT_EQ(g.InDegree(antonio), 2u);
  bool found = false;
  for (const Edge& e : g.InEdges(antonio)) {
    if (e.predicate == spouse && e.neighbor == melanie) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RdfGraphTest, HasTripleAndObjectsSubjects) {
  RdfGraph g = SmallGraph();
  TermId m = *g.Find("Melanie");
  TermId a = *g.Find("Antonio");
  TermId spouse = *g.Find("spouse");
  EXPECT_TRUE(g.HasTriple(m, spouse, a));
  EXPECT_FALSE(g.HasTriple(a, spouse, m));
  EXPECT_EQ(g.Objects(m, spouse), std::vector<TermId>{a});
  EXPECT_EQ(g.Subjects(spouse, a), std::vector<TermId>{m});
  EXPECT_TRUE(g.Objects(a, spouse).empty());
}

TEST(RdfGraphTest, ClassDetection) {
  RdfGraph g = SmallGraph();
  EXPECT_TRUE(g.IsClass(*g.Find("Actor")));
  EXPECT_TRUE(g.IsClass(*g.Find("Person")));
  EXPECT_FALSE(g.IsClass(*g.Find("Antonio")));
  EXPECT_FALSE(g.IsClass(*g.Find("spouse")));
}

TEST(RdfGraphTest, EntityDetection) {
  RdfGraph g = SmallGraph();
  EXPECT_TRUE(g.IsEntity(*g.Find("Antonio")));
  EXPECT_FALSE(g.IsEntity(*g.Find("Actor"))) << "classes are not entities";
  EXPECT_FALSE(g.IsEntity(*g.FindTerm("1.80"))) << "literals are not entities";
  EXPECT_FALSE(g.IsEntity(*g.Find("spouse")))
      << "predicate-only terms are not entities";
}

TEST(RdfGraphTest, DirectTypesAndInstanceOfWithSubclassClosure) {
  RdfGraph g = SmallGraph();
  TermId antonio = *g.Find("Antonio");
  TermId actor = *g.Find("Actor");
  TermId person = *g.Find("Person");
  EXPECT_EQ(g.DirectTypes(antonio), std::vector<TermId>{actor});
  EXPECT_TRUE(g.IsInstanceOf(antonio, actor));
  EXPECT_TRUE(g.IsInstanceOf(antonio, person)) << "subclass closure";
  EXPECT_FALSE(g.IsInstanceOf(antonio, *g.Find("spouse")));
}

TEST(RdfGraphTest, InstancesOfIncludesSubclassInstances) {
  RdfGraph g;
  g.AddTriple("Actor", "rdfs:subClassOf", "Person");
  g.AddTriple("a1", "rdf:type", "Actor");
  g.AddTriple("p1", "rdf:type", "Person");
  ASSERT_TRUE(g.Finalize().ok());
  auto persons = g.InstancesOf(*g.Find("Person"));
  EXPECT_EQ(persons.size(), 2u);
  auto actors = g.InstancesOf(*g.Find("Actor"));
  EXPECT_EQ(actors.size(), 1u);
}

TEST(RdfGraphTest, InstancesOfListsInstanceTypedByClassAndSubclassOnce) {
  RdfGraph g;
  g.AddTriple("Actor", "rdfs:subClassOf", "Person");
  g.AddTriple("a1", "rdf:type", "Actor");
  g.AddTriple("a1", "rdf:type", "Person");
  g.AddTriple("p1", "rdf:type", "Person");
  ASSERT_TRUE(g.Finalize().ok());
  auto persons = g.InstancesOf(*g.Find("Person"));
  ASSERT_EQ(persons.size(), 2u);
  EXPECT_EQ(std::count(persons.begin(), persons.end(), *g.Find("a1")), 1);
  EXPECT_EQ(std::count(persons.begin(), persons.end(), *g.Find("p1")), 1);
}

TEST(RdfGraphTest, InstancesOfIsAscending) {
  // Instances interned in an order that interleaves the classes' runs:
  // some typed by the class and a subclass, some by a subclass only, one
  // through a subclass of a subclass, one by two sibling subclasses. The
  // subClassOf cycle must not loop.
  RdfGraph g;
  g.AddTriple("Actor", "rdfs:subClassOf", "Person");
  g.AddTriple("Writer", "rdfs:subClassOf", "Person");
  g.AddTriple("Poet", "rdfs:subClassOf", "Writer");
  g.AddTriple("Person", "rdfs:subClassOf", "Poet");
  const char* const types[][2] = {
      {"w1", "Writer"}, {"a1", "Actor"},  {"a1", "Person"}, {"p1", "Person"},
      {"w2", "Writer"}, {"a2", "Actor"},  {"q1", "Poet"},   {"x1", "Actor"},
      {"x1", "Writer"}, {"a3", "Actor"},  {"a3", "Person"}, {"w3", "Writer"},
  };
  for (const auto& [inst, cls] : types) g.AddTriple(inst, "rdf:type", cls);
  ASSERT_TRUE(g.Finalize().ok());
  std::vector<TermId> want;
  for (const char* name : {"w1", "a1", "p1", "w2", "a2", "q1", "x1", "a3",
                           "w3"}) {
    want.push_back(*g.Find(name));
  }
  std::sort(want.begin(), want.end());
  for (const char* cls : {"Person", "Writer", "Poet"}) {
    EXPECT_EQ(g.InstancesOf(*g.Find(cls)), want) << cls << " (cycle)";
  }
  std::vector<TermId> actors = g.InstancesOf(*g.Find("Actor"));
  EXPECT_TRUE(std::is_sorted(actors.begin(), actors.end()));
  EXPECT_EQ(actors.size(), 4u);
}

TEST(RdfGraphTest, SuperClassesIncludesSelfAndTransitive) {
  RdfGraph g;
  g.AddTriple("A", "rdfs:subClassOf", "B");
  g.AddTriple("B", "rdfs:subClassOf", "C");
  ASSERT_TRUE(g.Finalize().ok());
  auto supers = g.SuperClassesOf(*g.Find("A"));
  EXPECT_EQ(supers.size(), 3u);
}

TEST(RdfGraphTest, PredicateFrequency) {
  RdfGraph g = SmallGraph();
  EXPECT_EQ(g.PredicateFrequency(*g.Find("spouse")), 1u);
  EXPECT_EQ(g.PredicateFrequency(*g.Find("rdf:type")), 2u);
  EXPECT_EQ(g.PredicateFrequency(*g.Find("Antonio")), 0u);
}

TEST(RdfGraphTest, MaxDegreeTracksBusiestVertex) {
  RdfGraph g;
  for (int i = 0; i < 5; ++i) {
    g.AddTriple("hub", "p", "n" + std::to_string(i));
  }
  g.AddTriple("x", "p", "hub");
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.MaxDegree(), 6u);
}

TEST(RdfGraphTest, EdgesAreSortedByPredicateThenNeighbor) {
  RdfGraph g;
  g.AddTriple("s", "p2", "b");
  g.AddTriple("s", "p1", "c");
  g.AddTriple("s", "p1", "a");
  ASSERT_TRUE(g.Finalize().ok());
  auto edges = g.OutEdges(*g.Find("s"));
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(edges[0] < edges[1]);
  EXPECT_TRUE(edges[1] < edges[2]);
}

TEST(RdfGraphTest, RefinalizeAfterMoreTriples) {
  RdfGraph g;
  g.AddTriple("a", "p", "b");
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.NumTriples(), 1u);
  g.AddTriple("b", "p", "c");
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.NumTriples(), 2u);
  EXPECT_TRUE(g.HasTriple(*g.Find("a"), *g.Find("p"), *g.Find("b")));
  EXPECT_TRUE(g.HasTriple(*g.Find("b"), *g.Find("p"), *g.Find("c")));
}

TEST(RdfGraphTest, UnknownVertexQueriesAreSafe) {
  RdfGraph g = SmallGraph();
  TermId bogus = static_cast<TermId>(100000);
  EXPECT_TRUE(g.OutEdges(bogus).empty());
  EXPECT_TRUE(g.InEdges(bogus).empty());
  EXPECT_FALSE(g.IsClass(bogus));
  EXPECT_EQ(g.PredicateFrequency(bogus), 0u);
}

}  // namespace
}  // namespace rdf
}  // namespace ganswer
