// Differential test: SparqlEngine (predicate index, greedy join reordering,
// ASK short-circuit) vs the naive nested-loop oracle, over randomized
// graphs and randomized SPARQL-lite queries. Also round-trips every query
// through ToString() + SparqlParser to pin the text syntax to the same
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "oracle/sparql_oracle.h"
#include "prop/prop_support.h"
#include "rdf/sparql_engine.h"
#include "rdf/sparql_parser.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

using rdf::PatternTerm;
using rdf::SparqlQuery;
using rdf::TriplePattern;

// Random query over the generated graph's vocabulary. Mostly satisfiable
// shapes, with deliberate unknown constants and unbound selected variables
// mixed in to exercise the error/empty paths.
SparqlQuery RandomQuery(Rng& rng, const RandomGraphOptions& gopts) {
  SparqlQuery q;
  std::vector<std::string> var_pool{"a", "b", "c", "x"};
  auto vertex_name = [&]() -> std::string {
    if (rng.Chance(0.06)) return "zz_unknown";  // never interned
    return "v" + std::to_string(rng.Next(gopts.num_vertices));
  };
  auto pred_name = [&]() -> std::string {
    if (rng.Chance(0.05)) return "zz_unknown_pred";
    return "p" + std::to_string(rng.Next(gopts.num_predicates));
  };
  auto term = [&](bool predicate_pos) -> PatternTerm {
    if (predicate_pos) {
      if (rng.Chance(0.2)) return PatternTerm::Var(rng.Pick(var_pool));
      return PatternTerm::Iri(pred_name());
    }
    if (rng.Chance(0.55)) return PatternTerm::Var(rng.Pick(var_pool));
    return PatternTerm::Iri(vertex_name());
  };

  size_t num_patterns = 1 + rng.Next(3);
  for (size_t i = 0; i < num_patterns; ++i) {
    TriplePattern tp;
    tp.subject = term(false);
    tp.predicate = term(true);
    tp.object = term(false);
    q.patterns.push_back(std::move(tp));
  }

  std::vector<std::string> used;
  for (const TriplePattern& tp : q.patterns) {
    for (const PatternTerm* t : {&tp.subject, &tp.predicate, &tp.object}) {
      if (t->is_var &&
          std::find(used.begin(), used.end(), t->text) == used.end()) {
        used.push_back(t->text);
      }
    }
  }

  if (rng.Chance(0.2)) {
    q.form = SparqlQuery::Form::kAsk;
    return q;
  }
  q.form = SparqlQuery::Form::kSelect;
  q.distinct = rng.Chance(0.4);
  if (used.empty() || rng.Chance(0.3)) {
    q.select_all = true;
  } else {
    size_t n = 1 + rng.Next(used.size());
    rng.Shuffle(&used);
    q.select_vars.assign(used.begin(), used.begin() + n);
    if (rng.Chance(0.08)) q.select_vars.push_back("unbound_var");
  }
  if (!q.select_vars.empty() && rng.Chance(0.25)) {
    SparqlQuery::OrderBy ob;
    ob.var = rng.Pick(q.select_vars);
    ob.descending = rng.Chance(0.5);
    q.order_by = ob;
  }
  if (rng.Chance(0.25)) q.limit = rng.Next(6);
  if (rng.Chance(0.15)) q.offset = rng.Next(4);
  return q;
}

void CheckAgainstOracle(const rdf::SparqlEngine& engine,
                        const rdf::RdfGraph& graph,
                        const std::vector<RawTriple>& raw,
                        const SparqlQuery& q) {
  SCOPED_TRACE("query: " + q.ToString());
  auto got = engine.Execute(q);
  SparqlOracleResult want = NaiveSparqlEvaluate(graph, raw, q);

  ASSERT_EQ(got.ok(), want.ok) << (got.ok() ? "engine ok, oracle rejected"
                                            : got.status().ToString());
  if (!want.ok) return;

  if (q.form == SparqlQuery::Form::kAsk) {
    EXPECT_EQ(got->ask_result, want.ask_result);
    return;
  }
  ASSERT_EQ(got->var_names, want.var_names);

  std::vector<std::vector<rdf::TermId>> got_rows = got->rows;
  std::vector<std::vector<rdf::TermId>> want_rows = want.rows;

  if (!q.limit.has_value() && !q.offset.has_value()) {
    // Full result: same multiset of rows.
    std::sort(got_rows.begin(), got_rows.end());
    std::sort(want_rows.begin(), want_rows.end());
    EXPECT_EQ(got_rows, want_rows);
  } else {
    // Cut result: the cut size is determined, the chosen rows must come
    // from the full result multiset.
    size_t total = want_rows.size();
    size_t off = q.offset.value_or(0);
    size_t after_offset = off >= total ? 0 : total - off;
    size_t expect_size = q.limit.has_value()
                             ? std::min(after_offset, *q.limit)
                             : after_offset;
    EXPECT_EQ(got_rows.size(), expect_size);
    std::sort(want_rows.begin(), want_rows.end());
    for (const auto& row : got_rows) {
      EXPECT_TRUE(std::binary_search(want_rows.begin(), want_rows.end(), row))
          << "engine produced a row outside the oracle result";
    }
  }
  if (q.order_by.has_value()) {
    size_t col = 0;
    for (size_t i = 0; i < got->var_names.size(); ++i) {
      if (got->var_names[i] == q.order_by->var) col = i;
    }
    for (size_t i = 1; i < got->rows.size(); ++i) {
      EXPECT_TRUE(OrderByLeq(graph.dict(), got->rows[i - 1][col],
                             got->rows[i][col], q.order_by->descending))
          << "row " << i << " violates ORDER BY";
    }
  }
}

// 40 randomized (graph, workload-of-8-queries) instances at fixed seeds.
TEST(SparqlOracleTest, EngineMatchesNaiveNestedLoopJoin) {
  ForEachSeed(9000, 40, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_vertices = 8 + rng.Next(6);
    gopts.num_predicates = 2 + rng.Next(3);
    gopts.num_triples = 16 + rng.Next(20);
    gopts.literal_rate = rng.Chance(0.5) ? 0.15 : 0.0;
    RandomGraphData data = BuildRandomGraph(seed * 7 + 1, gopts);
    rdf::SparqlEngine engine(data.graph);
    for (int i = 0; i < 8; ++i) {
      CheckAgainstOracle(engine, data.graph, data.triples,
                         RandomQuery(rng, gopts));
    }
  });
}

// The text round trip must not change semantics: Execute(Parse(ToString(q)))
// == Execute(q) for queries without literals-with-quotes (ToString does not
// escape, documented SPARQL-lite).
TEST(SparqlOracleTest, TextRoundTripPreservesAnswers) {
  ForEachSeed(9100, 25, [](uint64_t seed) {
    Rng rng(seed);
    RandomGraphOptions gopts;
    gopts.num_vertices = 8;
    gopts.num_triples = 20;
    RandomGraphData data = BuildRandomGraph(seed * 13 + 5, gopts);
    rdf::SparqlEngine engine(data.graph);
    for (int i = 0; i < 6; ++i) {
      SparqlQuery q = RandomQuery(rng, gopts);
      std::string text = q.ToString();
      SCOPED_TRACE("text: " + text);
      auto reparsed = rdf::SparqlParser::Parse(text);
      ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
      auto direct = engine.Execute(q);
      auto via_text = engine.Execute(*reparsed);
      ASSERT_EQ(direct.ok(), via_text.ok());
      if (!direct.ok()) continue;
      EXPECT_EQ(direct->ask_result, via_text->ask_result);
      EXPECT_EQ(direct->var_names, via_text->var_names);
      EXPECT_EQ(direct->rows, via_text->rows);
    }
  });
}

// Deterministic edge cases the random generator may not hit every run.
TEST(SparqlOracleTest, EdgeCases) {
  RandomGraphData data = BuildRandomGraph(77);
  rdf::SparqlEngine engine(data.graph);

  // Empty BGP: one empty solution; ASK over it is true.
  SparqlQuery empty;
  empty.form = SparqlQuery::Form::kAsk;
  auto r = engine.Execute(empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ask_result);
  EXPECT_TRUE(NaiveSparqlEvaluate(data.graph, data.triples, empty).ask_result);

  // Repeated variable inside one pattern (?x p ?x) — self-loop join.
  SparqlQuery self;
  self.select_all = true;
  TriplePattern tp;
  tp.subject = PatternTerm::Var("x");
  tp.predicate = PatternTerm::Iri("p0");
  tp.object = PatternTerm::Var("x");
  self.patterns.push_back(tp);
  CheckAgainstOracle(engine, data.graph, data.triples, self);
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
