#include "rdf/sparql_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/kb_generator.h"
#include "rdf/sparql_parser.h"

namespace ganswer {
namespace rdf {
namespace {

RdfGraph FamilyGraph() {
  RdfGraph g;
  g.AddTriple("Melanie", "spouse", "Antonio");
  g.AddTriple("Antonio", "rdf:type", "Actor");
  g.AddTriple("Melanie", "rdf:type", "Actor");
  g.AddTriple("Philadelphia_(film)", "starring", "Antonio");
  g.AddTriple("Philadelphia_(film)", "director", "Demme");
  g.AddTriple("Assassins", "starring", "Antonio");
  g.AddTriple("MJ", "height", "1.98", TermKind::kLiteral);
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

std::set<std::string> Names(const RdfGraph& g, const SparqlResult& r,
                            size_t col = 0) {
  std::set<std::string> out;
  for (const auto& row : r.rows) out.emplace(g.dict().text(row[col]));
  return out;
}

TEST(SparqlEngineTest, SingleBoundPattern) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?x WHERE { ?x <starring> <Antonio> }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Names(g, *r),
            (std::set<std::string>{"Philadelphia_(film)", "Assassins"}));
}

TEST(SparqlEngineTest, JoinAcrossPatterns) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText(
      "SELECT ?w WHERE { ?w <spouse> ?a . ?f <starring> ?a . "
      "?f <director> <Demme> }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Names(g, *r), std::set<std::string>{"Melanie"});
}

TEST(SparqlEngineTest, VariablePredicate) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText(
      "SELECT ?p WHERE { <Philadelphia_(film)> ?p <Antonio> }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Names(g, *r), std::set<std::string>{"starring"});
}

TEST(SparqlEngineTest, AskTrueAndFalse) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto yes = engine.ExecuteText("ASK { <Melanie> <spouse> <Antonio> }");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes->ask_result);
  auto no = engine.ExecuteText("ASK { <Antonio> <spouse> <Melanie> }");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no->ask_result);
}

TEST(SparqlEngineTest, UnknownConstantYieldsEmptyNotError) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?x WHERE { ?x <spouse> <Nobody> }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST(SparqlEngineTest, SelectedVariableMustBeBound) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?zzz WHERE { ?x <spouse> ?y }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SparqlEngineTest, DistinctCollapsesDuplicates) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  // ?a appears with two bindings of ?f; without DISTINCT, duplicates.
  auto all = engine.ExecuteText("SELECT ?a WHERE { ?f <starring> ?a }");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 2u);
  auto distinct =
      engine.ExecuteText("SELECT DISTINCT ?a WHERE { ?f <starring> ?a }");
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->rows.size(), 1u);
}

TEST(SparqlEngineTest, LimitTruncates) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
}

TEST(SparqlEngineTest, SelectStarBindsAllVariables) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT * WHERE { ?s <starring> ?o }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->var_names.size(), 2u);
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST(SparqlEngineTest, RepeatedVariableInPattern) {
  RdfGraph g;
  g.AddTriple("narcissus", "loves", "narcissus");
  g.AddTriple("echo", "loves", "narcissus");
  ASSERT_TRUE(g.Finalize().ok());
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?x WHERE { ?x <loves> ?x }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Names(g, *r), std::set<std::string>{"narcissus"});
}

TEST(SparqlEngineTest, LiteralConstantsMatchLiterals) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("SELECT ?x WHERE { ?x <height> \"1.98\" }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Names(g, *r), std::set<std::string>{"MJ"});
}

TEST(SparqlEngineTest, EmptyBgpSelectsOneEmptySolutionForAsk) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  auto r = engine.ExecuteText("ASK { }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ask_result);
}

// "2" < "10" by number, "10" < "1a" and "1a" < "2" by text: comparing by
// number only when both sides parse is a cycle, not an order. ORDER BY puts
// numbers first, by value, then other values by text, whatever order the
// triples were added in.
TEST(SparqlEngineTest, OrderByIsATotalOrderOnMixedValues) {
  std::array<std::string, 3> values = {"2", "10", "1a"};
  std::sort(values.begin(), values.end());
  do {
    RdfGraph g;
    for (const std::string& v : values) {
      g.AddTriple("m" + v, "value", v, TermKind::kLiteral);
    }
    ASSERT_TRUE(g.Finalize().ok());
    SparqlEngine engine(g);
    auto column = [&](const char* direction) {
      auto r = engine.ExecuteText(
          std::string("SELECT ?v WHERE { ?m <value> ?v } ORDER BY ") +
          direction + "(?v)");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      std::vector<std::string> out;
      if (r.ok()) {
        for (const auto& row : r->rows) out.emplace_back(g.dict().text(row[0]));
      }
      return out;
    };
    SCOPED_TRACE("insertion order " + values[0] + " " + values[1] + " " +
                 values[2]);
    EXPECT_EQ(column("ASC"), (std::vector<std::string>{"2", "10", "1a"}));
    EXPECT_EQ(column("DESC"), (std::vector<std::string>{"1a", "10", "2"}));
  } while (std::next_permutation(values.begin(), values.end()));
}

// ---------------------------------------------------------------------------
// Property test: the engine agrees with a brute-force evaluator on random
// small graphs and random 2-pattern queries.
// ---------------------------------------------------------------------------

class SparqlEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparqlEnginePropertyTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(GetParam());
  RdfGraph g;
  const int kVertices = 8;
  const int kPreds = 3;
  std::vector<std::string> vs, ps;
  for (int i = 0; i < kVertices; ++i) vs.push_back("v" + std::to_string(i));
  for (int i = 0; i < kPreds; ++i) ps.push_back("p" + std::to_string(i));
  for (int i = 0; i < 20; ++i) {
    g.AddTriple(rng.Pick(vs), rng.Pick(ps), rng.Pick(vs));
  }
  ASSERT_TRUE(g.Finalize().ok());
  // Collect concrete triples back.
  std::vector<std::array<TermId, 3>> all;
  for (TermId s = 0; s < g.dict().size(); ++s) {
    for (const Edge& e : g.OutEdges(s)) {
      all.push_back({s, e.predicate, e.neighbor});
    }
  }

  SparqlEngine engine(g);
  // Query: ?x p_a ?y . ?y p_b ?z  — brute force over triple pairs.
  for (int qa = 0; qa < kPreds; ++qa) {
    for (int qb = 0; qb < kPreds; ++qb) {
      std::string text = "SELECT ?x ?y ?z WHERE { ?x <p" +
                         std::to_string(qa) + "> ?y . ?y <p" +
                         std::to_string(qb) + "> ?z }";
      auto r = engine.ExecuteText(text);
      ASSERT_TRUE(r.ok()) << text;
      std::set<std::vector<TermId>> got(r->rows.begin(), r->rows.end());

      std::set<std::vector<TermId>> want;
      TermId pa = *g.Find("p" + std::to_string(qa));
      TermId pb = *g.Find("p" + std::to_string(qb));
      for (const auto& t1 : all) {
        if (t1[1] != pa) continue;
        for (const auto& t2 : all) {
          if (t2[1] != pb) continue;
          if (t1[2] != t2[0]) continue;
          want.insert({t1[0], t1[2], t2[2]});
        }
      }
      EXPECT_EQ(got, want) << text << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SparqlEnginePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Cost-based planner: ordering, counters, merge join, explain output.
// ---------------------------------------------------------------------------

TEST(SparqlPlannerTest, CountersTrackExecutionPath) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  const char* text =
      "SELECT ?x WHERE { ?x <rdf:type> <Actor> . ?f <starring> ?x }";
  ASSERT_TRUE(engine.ExecuteText(text).ok());

  SparqlEngine::PlannerCounters pc = engine.planner_counters();
  EXPECT_EQ(pc.planned_queries, 1u);
  EXPECT_GT(pc.intermediate_bindings, 0u);
}

TEST(SparqlPlannerTest, MergeJoinOnSharedSubjectVariable) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);
  // Both patterns have constant predicates, share exactly ?f keyed at the
  // subject side of both sorted groups, and are free everywhere else — the
  // leading merge join, which ExplainPlan names for both steps.
  auto q = SparqlParser::Parse(
      "SELECT ?f ?a ?d WHERE { ?f <starring> ?a . ?f <director> ?d }");
  ASSERT_TRUE(q.ok());
  auto plan = engine.ExplainPlan(*q);
  ASSERT_TRUE(plan.ok());
  const std::string merge = "via leading sort-merge join on ?f (PSO group)";
  size_t first = plan->find(merge);
  ASSERT_NE(first, std::string::npos) << *plan;
  EXPECT_NE(plan->find(merge, first + 1), std::string::npos) << *plan;
  EXPECT_EQ(engine.planner_counters().merge_joins, 0u);

  auto r = engine.Execute(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(g.dict().text(r->rows[0][0]), "Philadelphia_(film)");
  EXPECT_EQ(g.dict().text(r->rows[0][1]), "Antonio");
  EXPECT_EQ(g.dict().text(r->rows[0][2]), "Demme");
  EXPECT_EQ(engine.planner_counters().merge_joins, 1u);

  // A constant on a non-key side disables the merge: the planner's probe
  // on that constant is strictly cheaper than scanning both groups.
  auto probed = engine.ExecuteText(
      "SELECT ?f ?d WHERE { ?f <starring> <Antonio> . ?f <director> ?d }");
  ASSERT_TRUE(probed.ok());
  ASSERT_EQ(probed->rows.size(), 1u);
  EXPECT_EQ(g.dict().text(probed->rows[0][0]), "Philadelphia_(film)");
  EXPECT_EQ(engine.planner_counters().merge_joins, 1u);
  plan = engine.ExplainPlan(*SparqlParser::Parse(
      "SELECT ?f ?d WHERE { ?f <starring> <Antonio> . ?f <director> ?d }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("merge join"), std::string::npos) << *plan;
}

TEST(SparqlPlannerTest, ExplainPlanShowsCostBasedOrder) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);

  auto q = SparqlParser::Parse(
      "SELECT ?x ?y WHERE { ?x ?p ?y . ?f <starring> ?x }");
  ASSERT_TRUE(q.ok());
  auto plan = engine.ExplainPlan(*q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("cost-based join order"), std::string::npos);
  // The selective starring pattern runs first; the open pattern then has
  // its subject bound and degrades to a subject scan, not a full scan.
  EXPECT_LT(plan->find("<starring>"), plan->find("?p"));
  EXPECT_NE(plan->find("subject scan"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("merge join"), std::string::npos) << *plan;
}

TEST(SparqlPlannerTest, ExplainPlanHandlesDegenerateQueries) {
  RdfGraph g = FamilyGraph();
  SparqlEngine engine(g);

  SparqlQuery empty;
  auto plan = engine.ExplainPlan(empty);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("empty BGP"), std::string::npos);

  auto unknown = SparqlParser::Parse(
      "SELECT ?x WHERE { ?x <starring> <NoSuchEntity> }");
  ASSERT_TRUE(unknown.ok());
  plan = engine.ExplainPlan(*unknown);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("unsatisfiable"), std::string::npos);
}

// qabench's 9 sparql_bgp templates over the default KbGenerator KB (seed
// 42, 9,124 triples). Row counts and intermediate bindings are pinned to
// what the engine returned before its naive mode was deleted; that mode
// returned the same row counts. For the record of what the planner saves,
// the naive mode (textual order, linear scans, no merge join) enumerated,
// in template order, 490, 1,196, 1,270, 1,455, 250, 4, 2,499, 522,945 and
// 992 intermediate bindings.
TEST(SparqlPlannerTest, PinsBindingsOnTheBgpTemplates) {
  auto kb = datagen::KbGenerator::Generate({});
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  SparqlEngine engine(kb->graph);
  struct Pinned {
    const char* text;
    size_t rows;
    uint64_t bindings;
  };
  const Pinned kTemplates[] = {
      {"SELECT ?w ?a WHERE { ?a rdf:type <Actor> . ?w <spouse> ?a . "
       "?f <starring> ?a . ?f rdf:type <Film> }",
       138, 490},
      {"SELECT ?f ?d WHERE { ?f rdf:type <Film> . ?f <starring> ?a . "
       "?f <director> ?d }",
       496, 904},
      {"SELECT ?p ?t WHERE { ?p rdf:type <Person> . ?p <playForTeam> ?t . "
       "?t <locationCity> ?c }",
       92, 276},
      {"SELECT ?g ?c WHERE { ?g <hasChild> ?p . ?p <hasChild> ?c . "
       "?p <spouse> ?s }",
       62, 208},
      {"SELECT ?city ?n WHERE { ?city rdf:type <City> . "
       "?city <country> ?n . ?n <capital> ?cap }",
       64, 128},
      {"SELECT ?d WHERE { ?f <starring> <Antonio_Banderas> . "
       "?f <director> ?d }",
       2, 4},
      {"SELECT ?g ?t WHERE { ?g rdf:type <Person> . ?g <hasChild> ?p . "
       "?p <hasChild> ?c . ?c <playForTeam> ?t }",
       20, 122},
      {"SELECT ?x ?f WHERE { ?x <birthPlace> ?c . ?f <starring> ?a . "
       "?a <spouse> ?x }",
       101, 394},
      {"SELECT ?f ?a ?d WHERE { ?f <starring> ?a . ?f <director> ?d }",
       496, 496},
  };
  for (const Pinned& t : kTemplates) {
    SCOPED_TRACE(t.text);
    SparqlEngine::PlannerCounters before = engine.planner_counters();
    auto r = engine.ExecuteText(t.text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), t.rows);
    EXPECT_EQ(engine.planner_counters().intermediate_bindings -
                  before.intermediate_bindings,
              t.bindings);
  }
}

}  // namespace
}  // namespace rdf
}  // namespace ganswer
