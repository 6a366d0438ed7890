// Differential test: TopKMatcher (TA rounds, cursor fan-out, neighborhood
// pruning, signature pre-checks, the statistics-planned anchored search) vs
// the exhaustive enumerate-and-rank oracle, over randomized graphs and
// randomized connected query graphs, triangles and 2-hop predicate paths
// among them. The matcher must return the same top-k score multiset in the
// pinned MatchOrder whatever its configuration (serial / parallel / pruning
// on or off / TA on or off / signatures on or off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "match/top_k_matcher.h"
#include "oracle/match_oracle.h"
#include "prop/prop_support.h"
#include "rdf/signature_index.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

using match::Match;
using match::QueryEdge;
using match::QueryGraph;
using match::QueryVertex;

constexpr double kScoreTol = 1e-9;

// Log-score sums may associate differently between the matcher (plan
// order) and the oracle (vertex-index order), so equal-score ties can land
// kScoreTol apart. Compare rank-by-rank scores with tolerance and compare
// assignments as sets within each near-equal-score block.
void ExpectTopKEquals(const std::vector<Match>& got,
                      std::vector<Match> want_all, size_t k) {
  std::vector<Match> want = std::move(want_all);
  match::SortAndCutTopK(&want, k);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                             [](const Match& a, const Match& b) {
                               return match::MatchOrder(a, b);
                             }))
      << "matcher result violates the pinned MatchOrder";
  size_t i = 0;
  while (i < got.size()) {
    size_t j = i;
    while (j < got.size() &&
           std::abs(want[j].score - want[i].score) <= kScoreTol) {
      ++j;
    }
    std::vector<std::vector<rdf::TermId>> ga, wa;
    for (size_t t = i; t < j; ++t) {
      EXPECT_NEAR(got[t].score, want[t].score, kScoreTol) << "rank " << t;
      ga.push_back(got[t].assignment);
      wa.push_back(want[t].assignment);
    }
    std::sort(ga.begin(), ga.end());
    std::sort(wa.begin(), wa.end());
    EXPECT_EQ(ga, wa) << "assignment block starting at rank " << i;
    i = j;
  }
}

// The terms of the generated vocabulary actually interned in the graph.
// A vertex/predicate name the random generator never used in a triple has
// no TermId — picking blindly by name would inject garbage ids that no
// engine is expected to handle.
std::vector<rdf::TermId> PresentTerms(const rdf::RdfGraph& g,
                                      const char* prefix, size_t count) {
  std::vector<rdf::TermId> out;
  for (size_t i = 0; i < count; ++i) {
    auto id = g.Find(std::string(prefix) + std::to_string(i));
    if (id.has_value()) out.push_back(*id);
  }
  return out;
}

// Random connected query graph over the generated graph's vocabulary:
// 2-3 vertices (entity lists / classes / wildcards, at least one concrete),
// path / star / triangle topology, edges carrying single predicates,
// occasional 2-hop paths or wildcards.
QueryGraph RandomQueryGraph(Rng& rng, const rdf::RdfGraph& g,
                            const RandomGraphOptions& gopts) {
  QueryGraph query;
  const double confs[] = {0.9, 0.8, 0.7, 0.5, 0.4};
  const std::vector<rdf::TermId> vertices =
      PresentTerms(g, "v", gopts.num_vertices);
  const std::vector<rdf::TermId> predicates =
      PresentTerms(g, "p", gopts.num_predicates);
  const std::vector<rdf::TermId> classes =
      PresentTerms(g, "C", gopts.num_classes);

  auto entity_candidate = [&]() {
    linking::LinkCandidate c;
    c.vertex = rng.Pick(vertices);
    c.confidence = confs[rng.Next(5)];
    return c;
  };
  auto make_vertex = [&](bool allow_wildcard) {
    QueryVertex v;
    if (allow_wildcard && rng.Chance(0.35)) {
      v.wildcard = true;
      return v;
    }
    if (!classes.empty() && rng.Chance(0.3)) {
      linking::LinkCandidate c;
      c.vertex = rng.Pick(classes);
      c.is_class = true;
      c.confidence = confs[rng.Next(5)];
      v.candidates.push_back(c);
      return v;
    }
    size_t n = 1 + rng.Next(3);
    for (size_t i = 0; i < n; ++i) v.candidates.push_back(entity_candidate());
    return v;
  };
  auto make_edge = [&](int from, int to) {
    QueryEdge e;
    e.from = from;
    e.to = to;
    if (rng.Chance(0.12)) {
      e.wildcard = true;
      return e;
    }
    size_t n = 1 + rng.Next(2);
    for (size_t i = 0; i < n; ++i) {
      paraphrase::ParaphraseEntry entry;
      rdf::TermId p = rng.Pick(predicates);
      if (rng.Chance(0.25)) {
        rdf::TermId p2 = rng.Pick(predicates);
        entry.path.steps = {{p, rng.Chance(0.5)}, {p2, rng.Chance(0.5)}};
      } else {
        entry.path.steps = {{p, true}};
      }
      entry.confidence = confs[rng.Next(5)];
      e.candidates.push_back(entry);
    }
    return e;
  };

  size_t num_vertices = 2 + rng.Next(2);
  query.vertices.push_back(make_vertex(/*allow_wildcard=*/false));
  for (size_t i = 1; i < num_vertices; ++i) {
    query.vertices.push_back(make_vertex(/*allow_wildcard=*/true));
  }
  // Connected topology: a path, plus an optional closing edge (triangle).
  for (size_t i = 1; i < num_vertices; ++i) {
    int from = static_cast<int>(i - 1), to = static_cast<int>(i);
    if (rng.Chance(0.5)) std::swap(from, to);
    query.edges.push_back(make_edge(from, to));
  }
  if (num_vertices == 3 && rng.Chance(0.3)) {
    query.edges.push_back(make_edge(2, 0));
  }
  return query;
}

// 48 randomized (graph, query) instances at fixed seeds, each checked
// against the oracle under five matcher configurations.
TEST(MatchOracleTest, TopKEqualsEnumerateAndRank) {
  ForEachSeed(7000, 48, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_vertices = 7 + rng.Next(4);
    gopts.num_predicates = 2 + rng.Next(2);
    gopts.num_triples = 14 + rng.Next(14);
    RandomGraphData data = BuildRandomGraph(seed * 31 + 3, gopts);
    QueryGraph query = RandomQueryGraph(rng, data.graph, gopts);
    MatchOracle oracle(data.graph, data.triples);
    std::vector<Match> all = oracle.AllMatches(query);

    rdf::SignatureIndex signatures(data.graph);
    size_t k = 1 + rng.Next(8);

    struct Config {
      const char* name;
      bool pruning;
      bool ta;
      int threads;
      bool use_signatures;
    };
    const Config configs[] = {
        {"serial", true, true, 1, false},
        {"parallel", true, true, 4, true},
        {"no-pruning", false, true, 1, false},
        {"exhaustive", true, false, 1, true},
        {"no-pruning-exhaustive", false, false, 1, false},
    };
    for (const Config& c : configs) {
      SCOPED_TRACE(c.name);
      match::TopKMatcher::Options opt;
      opt.k = k;
      opt.neighborhood_pruning = c.pruning;
      opt.ta_early_stop = c.ta;
      opt.max_matches_per_anchor = 0;  // no caps: oracle has none
      opt.exec.threads = c.threads;
      opt.signatures = c.use_signatures ? &signatures : nullptr;
      auto got = match::TopKMatcher(&data.graph, opt).FindTopK(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTopKEquals(*got, all, k);
    }
  });
}

// Single-vertex queries (no edges) take a separate code path in the
// matcher: the concrete vertex's domain is the answer set.
TEST(MatchOracleTest, SingleVertexQueriesMatchOracle) {
  ForEachSeed(7200, 12, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    RandomGraphData data = BuildRandomGraph(seed * 17 + 9, gopts);
    QueryGraph query;
    QueryVertex v;
    auto cls = data.graph.Find("C0");
    if (cls.has_value() && rng.Chance(0.5)) {
      linking::LinkCandidate c;
      c.vertex = *cls;
      c.is_class = true;
      c.confidence = 0.8;
      v.candidates.push_back(c);
    } else {
      std::vector<rdf::TermId> vertices =
          PresentTerms(data.graph, "v", gopts.num_vertices);
      ASSERT_FALSE(vertices.empty());
      for (int i = 0; i < 2; ++i) {
        linking::LinkCandidate c;
        c.vertex = rng.Pick(vertices);
        c.confidence = 0.5 + 0.1 * static_cast<double>(rng.Next(5));
        v.candidates.push_back(c);
      }
    }
    query.vertices.push_back(v);

    MatchOracle oracle(data.graph, data.triples);
    std::vector<Match> all = oracle.AllMatches(query);
    match::TopKMatcher::Options opt;
    opt.k = 4;
    auto got = match::TopKMatcher(&data.graph, opt).FindTopK(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTopKEquals(*got, all, opt.k);
  });
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
