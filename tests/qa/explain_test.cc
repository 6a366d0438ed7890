#include "qa/explain.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "qa/ganswer.h"
#include "qa/sparql_output.h"
#include "test_support.h"

namespace ganswer {
namespace qa {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : world_(ganswer::testing::World()),
        system_(&world_.kb.graph, &world_.lexicon, world_.verified.get()),
        explainer_(&world_.kb.graph) {}

  std::string ExplainTop(const std::string& q) {
    auto r = system_.Ask(q);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->matches.empty()) << q;
    auto text = explainer_.Explain(r->understanding.sqg, r->matches[0]);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : "";
  }

  const ganswer::testing::SharedWorld& world_;
  GAnswer system_;
  AnswerExplainer explainer_;
};

TEST_F(ExplainTest, RunningExampleWitness) {
  std::string text =
      ExplainTop("Who was married to an actor that played in Philadelphia ?");
  EXPECT_NE(text.find("\"Who\" = <Melanie_Griffith>"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[answer]"), std::string::npos);
  EXPECT_NE(text.find("--spouse-->"), std::string::npos) << text;
  EXPECT_NE(text.find("--starring-->"), std::string::npos) << text;
  EXPECT_NE(text.find("rdf:type <Actor>"), std::string::npos) << text;
}

TEST_F(ExplainTest, PredicatePathWitnessShowsIntermediates) {
  std::string text = ExplainTop("Who is the uncle of John F. Kennedy Jr. ?");
  // The length-3 hasChild path must show the concrete chain through the
  // grandparent and the parent.
  EXPECT_NE(text.find("<Joseph_P._Kennedy> --hasChild--> <Ted_Kennedy>"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("<John_F._Kennedy> --hasChild--> <John_F._Kennedy_Jr.>"),
            std::string::npos)
      << text;
}

TEST_F(ExplainTest, EveryWitnessTripleIsInTheGraph) {
  // Property: each "--pred-->" line names a real triple.
  for (const char* q :
       {"Who is the mayor of Berlin ?",
        "Which movies did Antonio Banderas star in ?",
        "Which country does the creator of Miffy come from ?"}) {
    std::string text = ExplainTop(q);
    std::istringstream lines(text);
    std::string line;
    size_t checked = 0;
    while (std::getline(lines, line)) {
      size_t arrow = line.find("--");
      if (arrow == std::string::npos || line.find("-->") == std::string::npos) {
        continue;
      }
      size_t s0 = line.find('<');
      size_t s1 = line.find('>', s0);
      std::string subj = line.substr(s0 + 1, s1 - s0 - 1);
      size_t p0 = line.find("--", s1) + 2;
      size_t p1 = line.find("-->", p0);
      std::string pred = line.substr(p0, p1 - p0);
      size_t o0 = line.find('<', p1);
      size_t o1 = line.find('>', o0);
      std::string obj = line.substr(o0 + 1, o1 - o0 - 1);
      auto si = world_.kb.graph.Find(subj);
      auto pi = world_.kb.graph.Find(pred);
      auto oi = world_.kb.graph.Find(obj);
      ASSERT_TRUE(si && pi && oi) << line;
      EXPECT_TRUE(world_.kb.graph.HasTriple(*si, *pi, *oi)) << line;
      ++checked;
    }
    EXPECT_GT(checked, 0u) << q;
  }
}

TEST_F(ExplainTest, SizeMismatchRejected) {
  auto r = system_.Ask("Who is the mayor of Berlin ?");
  ASSERT_TRUE(r.ok());
  match::Match bogus;
  bogus.assignment = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(explainer_.Explain(r->understanding.sqg, bogus).ok());
}

TEST_F(ExplainTest, QueryPlansRenderPerInterpretation) {
  auto r = system_.Ask(
      "Who was married to an actor that played in Philadelphia ?");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->matches.empty());
  std::vector<rdf::SparqlQuery> queries = SparqlOutput::TopKQueries(
      r->understanding.sqg, r->matches, world_.kb.graph, 3);
  ASSERT_FALSE(queries.empty());

  rdf::SparqlEngine engine(world_.kb.graph);
  auto text = ExplainQueryPlans(engine, queries);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("-- interpretation 1 of "), std::string::npos) << *text;
  EXPECT_NE(text->find("cost-based join order"), std::string::npos) << *text;
  EXPECT_NE(text->find("rows via"), std::string::npos) << *text;
}

}  // namespace
}  // namespace qa
}  // namespace ganswer
