#include "world.h"

#include <set>

#include "common/timer.h"
#include "nlp/lexicon.h"
#include "paraphrase/dictionary_builder.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "store/snapshot.h"

namespace qabench {

namespace gd = ganswer::datagen;

namespace {

constexpr size_t kKbScale = 16;
// Enough distinct questions that a cold_answer run never repeats one.
constexpr uint64_t kColdPoolSeeds = 160;

}  // namespace

ganswer::StatusOr<World> GenerateWorld() {
  World world;
  // The bench_scale_kb 16x point: the scale at which linking and matching
  // cost milliseconds per question instead of tens of microseconds.
  gd::KbGenerator::Options kb_options;
  kb_options.num_families = 220 * kKbScale;
  kb_options.num_films = 200 * kKbScale;
  kb_options.num_cities = 80 * kKbScale;
  kb_options.num_companies = 90 * kKbScale;
  kb_options.num_books = 80 * kKbScale;
  kb_options.num_teams = 20 * kKbScale;
  kb_options.num_bands = 30 * kKbScale;
  auto kb = gd::KbGenerator::Generate(kb_options);
  if (!kb.ok()) return kb.status();
  world.kb = std::move(kb).value();
  world.phrases = gd::PhraseDatasetGenerator::Generate(world.kb, {});

  std::set<std::string> seen;
  std::set<std::string> entities;
  auto collect = [&](uint64_t seed, std::vector<gd::GoldQuestion>* out) {
    gd::WorkloadGenerator::Options options;
    options.seed = seed;
    for (gd::GoldQuestion& q : gd::WorkloadGenerator::Generate(world.kb,
                                                               options)) {
      if (!seen.insert(q.text).second) continue;
      out->push_back(std::move(q));
    }
  };
  for (uint64_t seed = 13; seed < 16; ++seed) collect(seed, &world.gold);
  for (uint64_t seed = 1000; seed < 1000 + kColdPoolSeeds; ++seed) {
    collect(seed, &world.cold_pool);
  }
  for (const gd::GoldQuestion& q : world.gold) {
    for (const std::string& a : q.gold_answers) {
      if (world.kb.graph.dict().Lookup(a).has_value()) {
        entities.insert(a);
      }
    }
  }
  world.touched_entities.assign(entities.begin(), entities.end());
  if (world.gold.empty() || world.cold_pool.empty() ||
      world.touched_entities.empty()) {
    return ganswer::Status::Internal("question generation produced no pool");
  }
  return world;
}

ganswer::Status MineAndWriteSnapshot(const World& world,
                                     const std::string& path,
                                     SnapshotBuild* out) {
  ganswer::nlp::Lexicon lexicon;
  ganswer::WallTimer timer;
  // bench_scale_kb's mining settings.
  ganswer::paraphrase::DictionaryBuilder::Options mine_options;
  mine_options.max_path_length = 3;
  mine_options.max_paths_per_pair = 300;
  mine_options.max_intermediate_degree = 600;
  ganswer::paraphrase::ParaphraseDictionary mined(&lexicon);
  GANSWER_RETURN_NOT_OK(
      ganswer::paraphrase::DictionaryBuilder(mine_options)
          .Build(world.kb.graph,
                 gd::PhraseDatasetGenerator::StripGold(world.phrases),
                 &mined));
  ganswer::paraphrase::ParaphraseDictionary verified(&lexicon);
  gd::VerifyDictionary(world.phrases, world.kb.graph, mined, &verified);
  out->mine_ms = timer.ElapsedMillis();
  out->dictionary_entries = verified.NumPhrases();

  timer.Restart();
  ganswer::store::SnapshotStats stats;
  GANSWER_RETURN_NOT_OK(ganswer::store::WriteSnapshotFile(
      world.kb.graph, verified, path, &stats));
  out->write_ms = timer.ElapsedMillis();
  out->snapshot_bytes = stats.total_bytes;
  return ganswer::Status::Ok();
}

}  // namespace qabench
