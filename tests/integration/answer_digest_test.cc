// Answer identity as a tier-1 check: a digest over the canonical result of
// every gold question on the shared 1x world, compared against a committed
// value. A change meant to be answer-neutral (a refactor, an index, a
// planner) must leave it untouched; a change that means to move answers
// updates kExpectedDigest and says so in CHANGES.md.
//
// Per question the canonical text covers what /answer serves apart from
// the stage timers: the failure stage, is_ask/ask_result, each answer's
// text and score, each top-k match's assignment and score, and the top-3
// lowered SPARQL queries rendered by SparqlQuery::ToString(). Scores are
// printed with %.17g, so any bit of a double that changes shows.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "qa/ganswer.h"
#include "qa/sparql_output.h"
#include "test_support.h"

namespace ganswer {
namespace {

// FNV-1a 64 over the concatenated canonical text of all gold questions,
// taken with the code this test was introduced against.
constexpr uint64_t kExpectedDigest = 0x01e2bdaa5859704eULL;
constexpr size_t kSparqlTopK = 3;  // as /answer's "sparql" array

void Fnv1a(std::string_view bytes, uint64_t* h) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 1099511628211ULL;
  }
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CanonicalResult(const qa::GAnswer::Response& r,
                            const rdf::RdfGraph& graph) {
  std::string out = "failure " + std::to_string(static_cast<int>(r.failure)) +
                    " ask " + std::to_string(r.is_ask) + " " +
                    std::to_string(r.ask_result) + "\n";
  for (const qa::GAnswer::Answer& a : r.answers) {
    out += "answer " + a.text + " " + Exact(a.score) + "\n";
  }
  for (const match::Match& m : r.matches) {
    out += "match";
    for (rdf::TermId u : m.assignment) out += " " + std::to_string(u);
    out += " " + Exact(m.score) + "\n";
  }
  if (!r.matches.empty()) {
    for (const rdf::SparqlQuery& q : qa::SparqlOutput::TopKQueries(
             r.understanding.sqg, r.matches, graph, kSparqlTopK)) {
      out += "sparql " + q.ToString() + "\n";
    }
  }
  return out;
}

TEST(AnswerDigestTest, GoldQuestionsMatchCommittedDigest) {
  const testing::SharedWorld& world = testing::World();
  qa::GAnswer::Options options;
  options.matching.exec.threads = 1;
  qa::GAnswer system(&world.kb.graph, &world.lexicon, world.verified.get(),
                     options);

  ASSERT_EQ(world.workload.size(), 100u);
  uint64_t digest = 14695981039346656037ULL;
  for (const datagen::GoldQuestion& q : world.workload) {
    auto r = system.Ask(q.text);
    ASSERT_TRUE(r.ok()) << q.text << ": " << r.status().ToString();
    Fnv1a("question " + q.text + "\n", &digest);
    Fnv1a(CanonicalResult(*r, world.kb.graph), &digest);
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  EXPECT_EQ(digest, kExpectedDigest)
      << "gold-question answers changed; digest is now " << hex;
}

}  // namespace
}  // namespace ganswer
