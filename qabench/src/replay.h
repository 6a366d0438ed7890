#ifndef QABENCH_REPLAY_H_
#define QABENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "load.h"
#include "qa/ganswer.h"
#include "store/snapshot.h"

namespace qabench {

/// What the traced replay runs: the request stream the HTTP run sent,
/// answered in process against the same snapshot, with a span around each
/// layer call.
struct ReplayInputs {
  const Bodies* texts = nullptr;  ///< Raw question / query / batch texts.
  std::vector<Request> warmup;
  std::vector<Request> stream;
  /// Questions the Ask-time tracing overhead is measured on.
  std::vector<std::string> overhead_questions;
  std::string snapshot_path;
  /// A fresh directory for the live store the replay opens.
  std::string live_dir;
  /// The workload serves a live store: reads go to its current view and
  /// /update batches are applied in stream order. Otherwise a fixed probe
  /// of kLiveProbeBatches update batches measures the live layer.
  bool live = false;
  /// Also trace the lowering of these questions to SPARQL (the set-up of
  /// sparql_bgp, its only contact with the question pipeline).
  std::vector<std::string> lowering_questions;
  size_t question_cache_capacity = 0;
  size_t compact_threshold = 0;
};

inline constexpr size_t kLiveProbeBatches = 64;

/// GAnswer options as QaService builds them over \p snapshot: its
/// prebuilt indexes, serial matching, and a question cache of
/// \p cache_capacity entries (0 = off).
ganswer::qa::GAnswer::Options ServingOptions(
    const ganswer::store::Snapshot& snapshot, size_t cache_capacity);

struct ReplayResult {
  /// Per-layer metrics by name (units as documented in README.md).
  std::map<std::string, double> metrics;
  size_t requests = 0;
  /// Non-empty when the replay failed or a span invariant did not hold.
  std::string error;
};

/// Runs the replay with spans on and writes every span to \p trace_path.
ReplayResult RunTracedReplay(const ReplayInputs& inputs,
                             const std::string& trace_path);

}  // namespace qabench

#endif  // QABENCH_REPLAY_H_
