#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/kb_generator.h"
#include "datagen/phrase_dataset_generator.h"
#include "linking/entity_index.h"
#include "paraphrase/dictionary_builder.h"
#include "qa/ganswer.h"
#include "rdf/signature_index.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace {

// Serving built from a loaded snapshot must be indistinguishable from
// serving built from scratch: same answers, bit for bit, on the shared
// workload.
TEST(SnapshotRoundTripTest, LoadedSystemAnswersByteIdentically) {
  const auto& world = ganswer::testing::World();

  std::string bytes;
  store::SnapshotStats stats;
  ASSERT_TRUE(store::WriteSnapshot(world.kb.graph, *world.verified, &bytes,
                                   &stats)
                  .ok());
  auto snapshot = store::ReadSnapshot(bytes, &world.lexicon);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  qa::GAnswer from_scratch(&world.kb.graph, &world.lexicon,
                           world.verified.get());

  qa::GAnswer::Options opt;
  opt.entity_index = snapshot->entity_index.get();
  opt.matching.signatures = snapshot->signatures.get();
  opt.snapshot_identity = snapshot->fingerprint;
  qa::GAnswer from_snapshot(snapshot->graph.get(), &world.lexicon,
                            snapshot->dictionary.get(), opt);

  size_t compared = 0;
  for (const auto& q : world.workload) {
    if (++compared > 30) break;
    auto a = from_scratch.Ask(q.text);
    auto b = from_snapshot.Ask(q.text);
    ASSERT_TRUE(a.ok()) << q.text;
    ASSERT_TRUE(b.ok()) << q.text;
    EXPECT_EQ(a->is_ask, b->is_ask) << q.text;
    EXPECT_EQ(a->ask_result, b->ask_result) << q.text;
    ASSERT_EQ(a->answers.size(), b->answers.size()) << q.text;
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].text, b->answers[i].text) << q.text;
      EXPECT_EQ(a->answers[i].score, b->answers[i].score) << q.text;
    }
  }
  ASSERT_GT(compared, 1u);
}

// The same guarantee through the file loader: a container written to disk
// and read back with ReadSnapshotFile answers byte-identically to the
// from-scratch system.
TEST(SnapshotRoundTripTest, FileLoadedSystemAnswersIdentically) {
  const auto& world = ganswer::testing::World();
  qa::GAnswer from_scratch(&world.kb.graph, &world.lexicon,
                           world.verified.get());

  std::string path = "roundtrip_file.snap";
  ASSERT_TRUE(
      store::WriteSnapshotFile(world.kb.graph, *world.verified, path).ok());
  auto snapshot = store::ReadSnapshotFile(path, &world.lexicon);
  std::remove(path.c_str());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  qa::GAnswer::Options opt;
  opt.entity_index = snapshot->entity_index.get();
  opt.matching.signatures = snapshot->signatures.get();
  opt.snapshot_identity = snapshot->fingerprint;
  qa::GAnswer loaded(snapshot->graph.get(), &world.lexicon,
                     snapshot->dictionary.get(), opt);
  size_t compared = 0;
  for (const auto& q : world.workload) {
    if (++compared > 12) break;
    auto a = from_scratch.Ask(q.text);
    auto b = loaded.Ask(q.text);
    ASSERT_TRUE(a.ok()) << q.text;
    ASSERT_TRUE(b.ok()) << q.text;
    ASSERT_EQ(a->answers.size(), b->answers.size()) << q.text;
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].text, b->answers[i].text) << q.text;
      EXPECT_EQ(a->answers[i].score, b->answers[i].score) << q.text;
    }
  }
  ASSERT_GT(compared, 1u);
}

// The headline serving claim: loading the snapshot is at least an order of
// magnitude faster than the full offline rebuild (KB generation +
// dictionary mining + index construction) it replaces.
TEST(SnapshotRoundTripTest, LoadIsTenTimesFasterThanOfflineRebuild) {
  const auto& world = ganswer::testing::World();

  std::string bytes;
  ASSERT_TRUE(
      store::WriteSnapshot(world.kb.graph, *world.verified, &bytes).ok());

  WallTimer load_timer;
  auto snapshot = store::ReadSnapshot(bytes, &world.lexicon);
  double load_ms = load_timer.ElapsedMillis();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // The rebuild path, exactly as a fresh process would run it: generate
  // the KB, mine the dictionary (Algorithm 1), build both online indexes.
  WallTimer rebuild_timer;
  datagen::KbGenerator::Options kopt;
  auto kb = datagen::KbGenerator::Generate(kopt);
  ASSERT_TRUE(kb.ok());
  auto phrases = datagen::PhraseDatasetGenerator::Generate(*kb, {});
  auto dataset = datagen::PhraseDatasetGenerator::StripGold(phrases);
  nlp::Lexicon lexicon;
  paraphrase::ParaphraseDictionary mined(&lexicon);
  paraphrase::DictionaryBuilder::Options bopt;
  bopt.max_path_length = 3;
  paraphrase::DictionaryBuilder builder(bopt);
  ASSERT_TRUE(builder.Build(kb->graph, dataset, &mined).ok());
  rdf::SignatureIndex signatures(kb->graph);
  linking::EntityIndex entity_index(kb->graph);
  double rebuild_ms = rebuild_timer.ElapsedMillis();

  EXPECT_GE(rebuild_ms, 10.0 * load_ms)
      << "snapshot load " << load_ms << " ms vs offline rebuild "
      << rebuild_ms << " ms";
}

}  // namespace
}  // namespace ganswer
