// Differential test: CandidateSpace::Build (flat sorted domains, pruning
// straight on the adjacency, rarest-predicate-first edge order) and
// RdfGraph::InstancesOf (merged sorted type runs) vs the map-based
// reference in oracle/candidate_oracle.h. Over randomized query graphs on
// the demo KB and the 4x KB, mixing entity and class candidates (classes
// whose instances are also typed by a subclass, and classes whose
// subclasses hold disjoint instances) with single-predicate, multi-hop and
// wildcard edges, every domain must agree item for item (vertex,
// confidence and order), and VertexDelta must agree on every graph vertex,
// with pruning on and off, with and without signatures and statistics.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/schema.h"
#include "match/candidates.h"
#include "oracle/candidate_oracle.h"
#include "oracle/large_kb.h"
#include "prop/prop_support.h"
#include "rdf/graph_stats.h"
#include "rdf/signature_index.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

using match::CandidateSpace;
using match::QueryEdge;
using match::QueryGraph;
using match::QueryVertex;

struct Vocabulary {
  std::vector<rdf::TermId> entities;
  std::vector<rdf::TermId> classes;
  std::vector<rdf::TermId> predicates;
};

Vocabulary VocabularyOf(const rdf::RdfGraph& g) {
  Vocabulary vocab;
  for (rdf::TermId v = 0; v < g.dict().size(); ++v) {
    if (g.IsClass(v)) {
      vocab.classes.push_back(v);
    } else if (g.IsEntity(v)) {
      vocab.entities.push_back(v);
    }
  }
  vocab.predicates.assign(g.Predicates().begin(), g.Predicates().end());
  return vocab;
}

/// A random vertex of \p qv's unpruned domain, or kInvalidTerm.
rdf::TermId SomeDomainVertex(Rng& rng, const rdf::RdfGraph& g,
                             const QueryVertex& qv) {
  if (qv.wildcard || qv.candidates.empty()) return rdf::kInvalidTerm;
  const linking::LinkCandidate& c = rng.Pick(qv.candidates);
  if (!c.is_class) return c.vertex;
  std::vector<rdf::TermId> instances = g.InstancesOf(c.vertex);
  return instances.empty() ? rdf::kInvalidTerm : rng.Pick(instances);
}

/// Mostly a predicate incident to some domain vertex of \p qv, so pruning
/// keeps part of the domain; otherwise any predicate of the graph.
rdf::TermId PickPredicate(Rng& rng, const rdf::RdfGraph& g,
                          const Vocabulary& vocab, const QueryVertex& qv) {
  rdf::TermId u = SomeDomainVertex(rng, g, qv);
  if (u != rdf::kInvalidTerm && rng.Chance(0.8)) {
    std::vector<rdf::TermId> incident;
    for (const rdf::Edge& e : g.OutEdges(u)) incident.push_back(e.predicate);
    for (const rdf::Edge& e : g.InEdges(u)) incident.push_back(e.predicate);
    if (!incident.empty()) return rng.Pick(incident);
  }
  return rng.Pick(vocab.predicates);
}

/// 2-4 query vertices (class candidates, entity lists, mixes of both,
/// wildcards; the first is concrete) joined by a random tree plus an
/// optional extra edge. Edges are wildcards, or carry 1-3 candidates, each
/// a single predicate or a 2-3 step path in random directions.
QueryGraph RandomQueryGraph(Rng& rng, const rdf::RdfGraph& g,
                            const Vocabulary& vocab) {
  const double confs[] = {0.9, 0.8, 0.8, 0.6, 0.5, 0.3};
  auto conf = [&] { return confs[rng.Next(6)]; };
  auto entity = [&] {
    linking::LinkCandidate c;
    c.vertex = rng.Pick(vocab.entities);
    c.confidence = conf();
    return c;
  };
  auto cls = [&] {
    linking::LinkCandidate c;
    c.vertex = rng.Pick(vocab.classes);
    c.is_class = true;
    c.confidence = conf();
    return c;
  };

  QueryGraph query;
  size_t num_vertices = 2 + rng.Next(3);
  for (size_t i = 0; i < num_vertices; ++i) {
    QueryVertex v;
    double kind = rng.NextDouble();
    if (i > 0 && kind < 0.2) {
      v.wildcard = true;
      v.wildcard_confidence = conf();
    } else if (kind < 0.55) {
      v.candidates.push_back(cls());
      // A second class, or an entity that may duplicate an instance.
      if (rng.Chance(0.3)) v.candidates.push_back(cls());
      if (rng.Chance(0.3)) v.candidates.push_back(entity());
    } else {
      size_t n = 1 + rng.Next(4);
      for (size_t j = 0; j < n; ++j) v.candidates.push_back(entity());
      // Repeat a vertex at another confidence: one item, the best one.
      if (rng.Chance(0.3)) {
        linking::LinkCandidate dup = v.candidates.front();
        dup.confidence = conf();
        v.candidates.push_back(dup);
      }
    }
    query.vertices.push_back(v);
  }

  auto make_edge = [&](int from, int to) {
    QueryEdge e;
    e.from = from;
    e.to = to;
    if (rng.Chance(0.15)) {
      e.wildcard = true;
      e.wildcard_confidence = conf();
      return e;
    }
    size_t n = 1 + rng.Next(3);
    for (size_t j = 0; j < n; ++j) {
      paraphrase::ParaphraseEntry entry;
      entry.confidence = conf();
      const QueryVertex& head = query.vertices[from];
      const QueryVertex& tail = query.vertices[to];
      if (rng.Chance(0.65)) {
        entry.path.steps = {{PickPredicate(rng, g, vocab, head), true}};
      } else {
        size_t len = 2 + rng.Next(2);
        for (size_t s = 0; s < len; ++s) {
          rdf::TermId p = s == 0         ? PickPredicate(rng, g, vocab, head)
                          : s + 1 == len ? PickPredicate(rng, g, vocab, tail)
                                         : rng.Pick(vocab.predicates);
          entry.path.steps.push_back({p, rng.Chance(0.5)});
        }
      }
      e.candidates.push_back(entry);
    }
    return e;
  };
  for (size_t i = 1; i < num_vertices; ++i) {
    int from = static_cast<int>(rng.Next(i)), to = static_cast<int>(i);
    if (rng.Chance(0.5)) std::swap(from, to);
    query.edges.push_back(make_edge(from, to));
  }
  if (rng.Chance(0.3)) {
    int a = static_cast<int>(rng.Next(num_vertices));
    int b = static_cast<int>(rng.Next(num_vertices));
    if (a != b) query.edges.push_back(make_edge(a, b));
  }
  return query;
}

/// Builds \p query under every configuration and checks the flat space
/// against the reference: same domains item for item, and the same
/// VertexDelta for every graph vertex.
void ExpectSameAsReference(const rdf::RdfGraph& g,
                           const rdf::SignatureIndex& signatures,
                           const rdf::GraphStats& stats,
                           const QueryGraph& query) {
  for (bool pruning : {true, false}) {
    for (const rdf::SignatureIndex* sig :
         {&signatures, static_cast<const rdf::SignatureIndex*>(nullptr)}) {
      for (const rdf::GraphStats* st :
           {&stats, static_cast<const rdf::GraphStats*>(nullptr)}) {
        SCOPED_TRACE(std::string("pruning=") + (pruning ? "on" : "off") +
                     " signatures=" + (sig ? "on" : "off") +
                     " stats=" + (st ? "on" : "off"));
        CandidateSpace got = CandidateSpace::Build(g, query, pruning, sig, st);
        CandidateOracle want =
            CandidateOracle::Build(g, query, pruning, sig, st);
        ASSERT_EQ(got.NumVertices(), query.vertices.size());
        for (size_t i = 0; i < query.vertices.size(); ++i) {
          int qv = static_cast<int>(i);
          const CandidateSpace::VertexDomain& dom = got.domain(qv);
          EXPECT_EQ(dom.wildcard, want.wildcard(qv));
          const auto& items = want.items(qv);
          ASSERT_EQ(dom.items.size(), items.size()) << "query vertex " << qv;
          for (size_t j = 0; j < items.size(); ++j) {
            ASSERT_EQ(dom.items[j].vertex, items[j].vertex)
                << "query vertex " << qv << " item " << j;
            ASSERT_EQ(dom.items[j].confidence, items[j].confidence)
                << "query vertex " << qv << " item " << j;
          }
          for (rdf::TermId u = 0; u < g.dict().size(); ++u) {
            ASSERT_EQ(got.VertexDelta(qv, u), want.VertexDelta(qv, u))
                << "query vertex " << qv << " graph vertex " << u;
          }
        }
      }
    }
  }
}

void RunOracle(const rdf::RdfGraph& g, uint64_t base_seed, size_t count) {
  const Vocabulary vocab = VocabularyOf(g);
  ASSERT_FALSE(vocab.entities.empty());
  ASSERT_FALSE(vocab.classes.empty());
  const rdf::SignatureIndex signatures(g);
  const rdf::GraphStats stats = rdf::GraphStats::Compute(g);
  ForEachSeed(base_seed, count, [&](uint64_t seed) {
    Rng rng(seed);
    ExpectSameAsReference(g, signatures, stats,
                          RandomQueryGraph(rng, g, vocab));
  });
}

/// The worst-case shape: a class whose instances are all also typed by
/// one of its subclasses, pruned by a common and a rare single predicate,
/// next to a class whose subclasses hold instances it lacks itself, under
/// a multi-hop path and a wildcard edge.
QueryGraph PersonQuery(const rdf::RdfGraph& g) {
  auto id = [&](std::string_view name) { return *g.Find(name); };
  auto single = [&](std::string_view pred, double conf) {
    paraphrase::ParaphraseEntry e;
    e.path.steps = {{id(pred), true}};
    e.confidence = conf;
    return e;
  };
  QueryGraph query;
  QueryVertex person, place, work, who;
  person.candidates = {{id(datagen::cls::kPerson), true, 0.9}};
  place.candidates = {{id(datagen::cls::kCity), true, 0.8}};
  work.candidates = {{id(datagen::cls::kWork), true, 0.7}};
  who.wildcard = true;
  query.vertices = {person, place, work, who};
  QueryEdge born{.from = 0, .to = 1};
  born.candidates = {single(datagen::pred::kBirthPlace, 0.9)};
  QueryEdge died{.from = 0, .to = 1};
  died.candidates = {single(datagen::pred::kDeathPlace, 0.8)};
  QueryEdge starring{.from = 2, .to = 0};
  paraphrase::ParaphraseEntry two_hop;
  two_hop.path.steps = {{id(datagen::pred::kStarring), true},
                        {id(datagen::pred::kBirthPlace), true}};
  two_hop.confidence = 0.5;
  starring.candidates = {single(datagen::pred::kStarring, 0.6), two_hop};
  QueryEdge any{.from = 2, .to = 3};
  any.wildcard = true;
  query.edges = {born, died, starring, any};
  return query;
}

TEST(CandidateOracleTest, InstancesOfMatchesReferenceOnEveryClass) {
  for (const rdf::RdfGraph* g : {&World().kb.graph, &LargeKb().graph}) {
    size_t subclass_typed_too = 0, subclass_only = 0;
    for (rdf::TermId cls : VocabularyOf(*g).classes) {
      std::vector<rdf::TermId> got = g->InstancesOf(cls);
      ASSERT_EQ(got, CandidateOracle::InstancesOf(*g, cls))
          << g->dict().text(cls);
      size_t direct = g->Subjects(g->type_predicate(), cls).size();
      bool has_subclass = !g->Subjects(g->subclass_predicate(), cls).empty();
      if (has_subclass && direct == got.size() && direct > 0) {
        ++subclass_typed_too;
      }
      if (has_subclass && direct < got.size()) ++subclass_only;
    }
    // Both merge shapes occur: subclass runs inside the class's own run
    // (Person), and subclass runs the class's run lacks (Work).
    EXPECT_GT(subclass_typed_too, 0u);
    EXPECT_GT(subclass_only, 0u);
    // Entities and unknown ids have no instances.
    EXPECT_TRUE(g->InstancesOf(VocabularyOf(*g).entities.front()).empty());
    EXPECT_TRUE(g->InstancesOf(static_cast<rdf::TermId>(g->dict().size()))
                    .empty());
  }
}

TEST(CandidateOracleTest, PersonBirthAndDeathPlaceDemoKb) {
  const rdf::RdfGraph& g = World().kb.graph;
  ExpectSameAsReference(g, rdf::SignatureIndex(g), rdf::GraphStats::Compute(g),
                        PersonQuery(g));
}

TEST(CandidateOracleTest, PersonBirthAndDeathPlaceLargeKb) {
  const rdf::RdfGraph& g = LargeKb().graph;
  ExpectSameAsReference(g, rdf::SignatureIndex(g), rdf::GraphStats::Compute(g),
                        PersonQuery(g));
}

TEST(CandidateOracleTest, RandomQueriesDemoKb) {
  RunOracle(World().kb.graph, 19000, 150);
}

TEST(CandidateOracleTest, RandomQueriesLargeKb) {
  RunOracle(LargeKb().graph, 19100, 60);
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
