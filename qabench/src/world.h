#ifndef QABENCH_WORLD_H_
#define QABENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/kb_generator.h"
#include "datagen/phrase_dataset_generator.h"
#include "datagen/workload.h"

namespace qabench {

/// Every input the benchmark serves, generated before any timing starts.
/// The KB, phrases and question pools are the same for every seed; the run
/// seed only picks the request streams drawn from them.
struct World {
  /// The bench_scale_kb 16x KB (KbGenerator counts x16, ~138K triples).
  ganswer::datagen::KbGenerator::GeneratedKb kb;
  std::vector<ganswer::datagen::PhraseWithGold> phrases;
  /// Distinct gold questions scored for gold_right_frac and source of the
  /// hot set and of the lowered SPARQL (WorkloadGenerator seeds 13..15).
  std::vector<ganswer::datagen::GoldQuestion> gold;
  /// Distinct gold questions disjoint from `gold`, in generator order:
  /// the cold_answer / live_mixed miss traffic.
  std::vector<ganswer::datagen::GoldQuestion> cold_pool;
  /// Entities named as gold answers; /update batches attach to them.
  std::vector<std::string> touched_entities;
};

ganswer::StatusOr<World> GenerateWorld();

/// Mines the paraphrase dictionary over \p world (Algorithm 1) and writes
/// the serving snapshot to \p path. Timings feed setup_s and the store /
/// paraphrase layer metrics.
struct SnapshotBuild {
  double mine_ms = 0;
  double write_ms = 0;
  size_t snapshot_bytes = 0;
  size_t dictionary_entries = 0;
};
ganswer::Status MineAndWriteSnapshot(const World& world,
                                     const std::string& path,
                                     SnapshotBuild* out);

}  // namespace qabench

#endif  // QABENCH_WORLD_H_
