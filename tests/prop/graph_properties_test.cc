// Structural properties of RdfGraph's CSR against a reference adjacency
// built straight from the raw triple list, plus the N-Triples text and
// snapshot round-trips. These are the invariants every other component
// leans on (sorted spans, exact triple membership, degree accounting, type
// closure).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <set>
#include <sstream>
#include <vector>

#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "prop/prop_support.h"
#include "rdf/ntriples.h"
#include "rdf/rdf_graph.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

using rdf::Edge;
using rdf::TermId;

struct RefAdjacency {
  std::set<std::array<TermId, 3>> triples;
  std::map<TermId, std::vector<Edge>> out, in;
};

RefAdjacency BuildReference(const rdf::RdfGraph& g,
                            const std::vector<RawTriple>& raw) {
  RefAdjacency ref;
  for (const RawTriple& t : raw) {
    auto s = g.dict().Lookup(t.s, rdf::TermKind::kIri);
    auto p = g.dict().Lookup(t.p, rdf::TermKind::kIri);
    auto o = g.dict().Lookup(t.o, t.object_kind);
    if (!s || !p || !o) std::abort();
    if (!ref.triples.insert({*s, *p, *o}).second) continue;
    ref.out[*s].push_back({*p, *o});
    ref.in[*o].push_back({*p, *s});
  }
  for (auto* side : {&ref.out, &ref.in}) {
    for (auto& [v, edges] : *side) std::sort(edges.begin(), edges.end());
  }
  return ref;
}

TEST(GraphPropertyTest, CsrMatchesReferenceAdjacency) {
  ForEachSeed(6000, 30, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_vertices = 5 + rng.Next(12);
    gopts.num_predicates = 1 + rng.Next(4);
    gopts.num_triples = 8 + rng.Next(40);
    gopts.literal_rate = rng.Chance(0.5) ? 0.2 : 0.0;
    gopts.duplicate_rate = 0.2;  // stress Finalize() dedup
    RandomGraphData data = BuildRandomGraph(seed * 5 + 4, gopts);
    RefAdjacency ref = BuildReference(data.graph, data.triples);

    EXPECT_EQ(data.graph.NumTriples(), ref.triples.size());

    size_t max_degree = 0;
    for (TermId v = 0; v < data.graph.NumTerms(); ++v) {
      std::span<const Edge> out = data.graph.OutEdges(v);
      std::span<const Edge> in = data.graph.InEdges(v);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()))
          << "OutEdges(" << v << ") not sorted by (predicate, neighbor)";
      EXPECT_TRUE(std::is_sorted(in.begin(), in.end()))
          << "InEdges(" << v << ") not sorted by (predicate, neighbor)";
      std::vector<Edge> got_out(out.begin(), out.end());
      std::vector<Edge> got_in(in.begin(), in.end());
      EXPECT_EQ(got_out, ref.out[v]) << "OutEdges mismatch at v=" << v;
      EXPECT_EQ(got_in, ref.in[v]) << "InEdges mismatch at v=" << v;
      EXPECT_EQ(data.graph.Degree(v), got_out.size() + got_in.size());
      max_degree = std::max(max_degree, data.graph.Degree(v));
    }
    EXPECT_EQ(data.graph.MaxDegree(), max_degree);

    // HasTriple / Objects / Subjects agree with the reference set on both
    // present and absent triples.
    for (const auto& t : ref.triples) {
      EXPECT_TRUE(data.graph.HasTriple(t[0], t[1], t[2]));
      auto objs = data.graph.Objects(t[0], t[1]);
      EXPECT_TRUE(std::find(objs.begin(), objs.end(), t[2]) != objs.end());
      auto subs = data.graph.Subjects(t[1], t[2]);
      EXPECT_TRUE(std::find(subs.begin(), subs.end(), t[0]) != subs.end());
    }
    for (int i = 0; i < 20; ++i) {
      TermId s = rng.Next(data.graph.NumTerms());
      TermId p = rng.Next(data.graph.NumTerms());
      TermId o = rng.Next(data.graph.NumTerms());
      EXPECT_EQ(data.graph.HasTriple(s, p, o),
                ref.triples.count({s, p, o}) > 0);
    }
  });
}

// IsInstanceOf must equal the reflexive-transitive closure computed naively
// over the raw rdf:type / rdfs:subClassOf triples.
TEST(GraphPropertyTest, TypeClosureMatchesNaiveClosure) {
  ForEachSeed(6100, 15, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_classes = 3;
    gopts.type_rate = 0.6;
    RandomGraphData data = BuildRandomGraph(seed * 3 + 8, gopts);
    // Add a subclass chain and refinalize (Finalize supports rebuilds).
    data.graph.AddTriple("C0", rdf::kSubClassOfPredicate, "C1");
    data.graph.AddTriple("C1", rdf::kSubClassOfPredicate, "C2");
    data.triples.push_back({"C0", std::string(rdf::kSubClassOfPredicate), "C1",
                            rdf::TermKind::kIri});
    data.triples.push_back({"C1", std::string(rdf::kSubClassOfPredicate), "C2",
                            rdf::TermKind::kIri});
    std::sort(data.triples.begin(), data.triples.end());
    ASSERT_TRUE(data.graph.Finalize().ok());

    // Naive closure from raw triples.
    std::map<TermId, std::set<TermId>> direct, subclass;
    TermId type_p = *data.graph.Find(rdf::kTypePredicate);
    TermId sub_p = *data.graph.Find(rdf::kSubClassOfPredicate);
    for (const RawTriple& t : data.triples) {
      auto s = data.graph.dict().Lookup(t.s, rdf::TermKind::kIri);
      auto p = data.graph.dict().Lookup(t.p, rdf::TermKind::kIri);
      auto o = data.graph.dict().Lookup(t.o, t.object_kind);
      if (!s || !p || !o) continue;
      if (*p == type_p) direct[*s].insert(*o);
      if (*p == sub_p) subclass[*s].insert(*o);
    }
    auto closed_instance_of = [&](TermId v, TermId cls) {
      auto it = direct.find(v);
      if (it == direct.end()) return false;
      std::vector<TermId> stack(it->second.begin(), it->second.end());
      std::set<TermId> seen(stack.begin(), stack.end());
      while (!stack.empty()) {
        TermId c = stack.back();
        stack.pop_back();
        if (c == cls) return true;
        auto sit = subclass.find(c);
        if (sit == subclass.end()) continue;
        for (TermId super : sit->second) {
          if (seen.insert(super).second) stack.push_back(super);
        }
      }
      return false;
    };

    for (TermId v = 0; v < data.graph.NumTerms(); ++v) {
      for (int c = 0; c < 3; ++c) {
        auto cls = data.graph.Find("C" + std::to_string(c));
        if (!cls.has_value()) continue;
        EXPECT_EQ(data.graph.IsInstanceOf(v, *cls),
                  closed_instance_of(v, *cls))
            << "v=" << data.graph.dict().text(v) << " cls=C" << c;
      }
    }
  });
}

// Write -> parse -> Finalize must reproduce the exact triple set.
TEST(GraphPropertyTest, NtriplesRoundTripPreservesTriples) {
  ForEachSeed(6200, 15, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_triples = 10 + rng.Next(30);
    gopts.literal_rate = 0.2;
    RandomGraphData data = BuildRandomGraph(seed * 9 + 6, gopts);

    std::ostringstream text;
    ASSERT_TRUE(rdf::NTriplesWriter::Write(data.graph, &text).ok());
    rdf::RdfGraph reparsed;
    ASSERT_TRUE(rdf::NTriplesReader::ParseString(text.str(), &reparsed).ok());
    ASSERT_TRUE(reparsed.Finalize().ok());

    ASSERT_EQ(reparsed.NumTriples(), data.graph.NumTriples());
    // Every raw triple is present in the reparsed graph (text-keyed, so
    // TermId renumbering cannot hide a mismatch).
    for (const RawTriple& t : data.triples) {
      auto s = reparsed.dict().Lookup(t.s, rdf::TermKind::kIri);
      auto p = reparsed.dict().Lookup(t.p, rdf::TermKind::kIri);
      auto o = reparsed.dict().Lookup(t.o, t.object_kind);
      ASSERT_TRUE(s.has_value() && p.has_value() && o.has_value())
          << t.s << " " << t.p << " " << t.o;
      EXPECT_TRUE(reparsed.HasTriple(*s, *p, *o));
    }
  });
}

// Write -> ReadSnapshot must reproduce the exact term dictionary and
// triple set.
TEST(GraphPropertyTest, SnapshotRoundTripPreservesTriples) {
  ForEachSeed(6300, 24, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_vertices = 8 + rng.Next(8);
    gopts.num_predicates = 2 + rng.Next(3);
    gopts.num_triples = 20 + rng.Next(30);
    gopts.literal_rate = 0.15;
    RandomGraphData data = BuildRandomGraph(seed * 17 + 5, gopts);

    nlp::Lexicon lexicon;
    paraphrase::ParaphraseDictionary dict(&lexicon);
    std::string bytes;
    ASSERT_TRUE(store::WriteSnapshot(data.graph, dict, &bytes).ok());
    auto snapshot = store::ReadSnapshot(bytes, &lexicon);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const rdf::RdfGraph& loaded = *snapshot->graph;

    ASSERT_EQ(loaded.dict().size(), data.graph.dict().size());
    for (TermId id = 0; id < loaded.dict().size(); ++id) {
      ASSERT_EQ(loaded.dict().text(id), data.graph.dict().text(id));
      ASSERT_EQ(loaded.dict().kind(id), data.graph.dict().kind(id));
    }
    ASSERT_EQ(loaded.NumTriples(), data.graph.NumTriples());
    for (TermId v = 0; v < data.graph.dict().size(); ++v) {
      auto want = data.graph.OutEdges(v);
      auto got = loaded.OutEdges(v);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "out-edges of " << data.graph.dict().text(v);
    }
  });
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
