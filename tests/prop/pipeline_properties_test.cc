// End-to-end answer-identity properties over randomized mini worlds
// (generated KB + mined dictionary + gold workload, all functions of one
// seed): the answer set must be invariant under (1) the thread count,
// (2) a snapshot save/load round trip, (3) the question cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "prop/prop_support.h"
#include "qa/ganswer.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

std::vector<std::string> Questions(const MiniWorld& w, size_t limit) {
  std::vector<std::string> qs;
  for (const datagen::GoldQuestion& q : w.workload) {
    qs.push_back(q.text);
    if (qs.size() == limit) break;
  }
  return qs;
}

void ExpectSameResponse(const StatusOr<qa::GAnswer::Response>& a,
                        const StatusOr<qa::GAnswer::Response>& b,
                        const std::string& question) {
  SCOPED_TRACE("question: " + question);
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) return;
  EXPECT_EQ(a->is_ask, b->is_ask);
  EXPECT_EQ(a->ask_result, b->ask_result);
  ASSERT_EQ(a->answers.size(), b->answers.size());
  for (size_t i = 0; i < a->answers.size(); ++i) {
    EXPECT_EQ(a->answers[i].text, b->answers[i].text) << "answer " << i;
    EXPECT_DOUBLE_EQ(a->answers[i].score, b->answers[i].score)
        << "answer " << i;
  }
  EXPECT_EQ(a->matches.size(), b->matches.size());
}

// One Ask() per question under both configurations, answers compared
// text-for-text and score-for-score.
TEST(PipelinePropertyTest, ThreadCountDoesNotChangeAnswers) {
  ForEachSeed(5000, 3, [](uint64_t seed) {
    std::unique_ptr<MiniWorld> w = BuildMiniWorld(seed);
    qa::GAnswer::Options serial_opt;
    serial_opt.matching.exec.threads = 1;
    qa::GAnswer::Options par_opt;
    par_opt.matching.exec.threads = 4;
    par_opt.exec.threads = 4;
    qa::GAnswer serial(&w->kb.graph, &w->lexicon, w->dict.get(), serial_opt);
    qa::GAnswer parallel(&w->kb.graph, &w->lexicon, w->dict.get(), par_opt);

    std::vector<std::string> qs = Questions(*w, 12);
    std::vector<StatusOr<qa::GAnswer::Response>> batch =
        parallel.BatchAnswer(qs);
    ASSERT_EQ(batch.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      ExpectSameResponse(serial.Ask(qs[i]), batch[i], qs[i]);
    }
  });
}

// A system built from ReadSnapshot(WriteSnapshot(...)) must answer exactly
// like the system built from the original in-memory artifacts.
TEST(PipelinePropertyTest, SnapshotRoundTripDoesNotChangeAnswers) {
  ForEachSeed(5100, 3, [](uint64_t seed) {
    std::unique_ptr<MiniWorld> w = BuildMiniWorld(seed);
    qa::GAnswer direct(&w->kb.graph, &w->lexicon, w->dict.get());

    std::string bytes;
    ASSERT_TRUE(store::WriteSnapshot(w->kb.graph, *w->dict, &bytes).ok());
    auto snap = store::ReadSnapshot(bytes, &w->lexicon);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();

    qa::GAnswer::Options opt;
    opt.matching.signatures = snap->signatures.get();
    opt.entity_index = snap->entity_index.get();
    opt.snapshot_identity = snap->fingerprint;
    qa::GAnswer loaded(snap->graph.get(), &w->lexicon,
                       snap->dictionary.get(), opt);

    for (const std::string& q : Questions(*w, 10)) {
      ExpectSameResponse(direct.Ask(q), loaded.Ask(q), q);
    }
  });
}

// Cache hits must serve byte-identical answers: ask twice with the cache on
// (second call is a hit) and compare both against a cache-off system.
TEST(PipelinePropertyTest, QuestionCacheDoesNotChangeAnswers) {
  ForEachSeed(5200, 3, [](uint64_t seed) {
    std::unique_ptr<MiniWorld> w = BuildMiniWorld(seed);
    qa::GAnswer plain(&w->kb.graph, &w->lexicon, w->dict.get());
    qa::GAnswer::Options copt;
    copt.question_cache_capacity = 64;
    qa::GAnswer cached(&w->kb.graph, &w->lexicon, w->dict.get(), copt);

    for (const std::string& q : Questions(*w, 10)) {
      auto want = plain.Ask(q);
      auto miss = cached.Ask(q);
      auto hit = cached.Ask(q);
      ExpectSameResponse(want, miss, q);
      ExpectSameResponse(want, hit, q);
      if (hit.ok()) {
        EXPECT_TRUE(hit->cache_hit) << q;
      }
      if (miss.ok()) {
        EXPECT_FALSE(miss->cache_hit) << q;
      }
    }
    auto stats = cached.cache_stats();
    EXPECT_GT(stats.hits, 0u);
  });
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
