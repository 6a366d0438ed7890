#ifndef QABENCH_LOAD_H_
#define QABENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace qabench {

enum class Endpoint : uint8_t { kAnswer = 0, kSparql = 1, kUpdate = 2 };
inline constexpr size_t kNumEndpoints = 3;

/// One request of a stream: an endpoint and the index of its body.
struct Request {
  Endpoint endpoint = Endpoint::kAnswer;
  uint32_t item = 0;
};

/// Pre-encoded request bodies, indexed by Request::item per endpoint.
struct Bodies {
  std::vector<std::string> answer;  ///< {"question": ...}
  std::vector<std::string> sparql;  ///< {"query": ...}
  std::vector<std::string> update;  ///< N-Triples update batch
};

/// Counts and latencies of one load phase, merged over its connections.
struct PhaseResult {
  std::vector<double> latency_ms[kNumEndpoints];  ///< 200s only.
  size_t attempted[kNumEndpoints] = {};
  size_t ok[kNumEndpoints] = {};
  size_t failed[kNumEndpoints] = {};  ///< Non-200 or transport error.
  /// Open loop only: how late each request left relative to its schedule.
  std::vector<double> lateness_ms;
  double wall_s = 0;
  size_t updates_acked = 0;
  uint64_t max_epoch = 0;
  /// The /update item that committed max_epoch.
  uint32_t max_epoch_item = 0;
  /// Per /answer item: the answer list every 200 response carried
  /// (is_ask, ask_result and answer texts in order). Only when checked.
  std::map<uint32_t, std::string> answer_signature;
  /// Per /sparql item: one response body; every other response for the
  /// item had the same bytes.
  std::map<uint32_t, std::string> sparql_body;
  /// First inconsistency seen (two responses for one item differed, or a
  /// body did not parse); empty when none.
  std::string error;

  size_t TotalAttempted() const;
  size_t TotalFailed() const;
  void MergeFrom(PhaseResult other);
};

struct LoadOptions {
  int port = 0;
  int connections = 2;
  /// Compare /answer bodies of one item across responses (off in live
  /// mode, where answers change with the epoch).
  bool check_answers = true;
};

/// The answer list of an /answer response body, as compared against the
/// in-process GAnswer::Ask; false when the body does not parse.
bool AnswerSignature(const std::string& body, std::string* signature);

/// Closed loop: each connection sends its next request as soon as the
/// previous one returns, taking requests from \p stream in order, until
/// \p seconds pass or the stream runs out. When \p update_offsets_us is
/// non-empty, /update item k is sent (by whichever connection is free
/// first) once k-th offset from the phase start has passed.
PhaseResult RunClosedLoop(const LoadOptions& options, const Bodies& bodies,
                          std::span<const Request> stream, double seconds,
                          const std::vector<int64_t>& update_offsets_us,
                          uint32_t first_update_item);

/// Open loop: request i is due at \p send_us[i] from the phase start and is
/// sent then, or as soon as a connection frees up; its latency is timed
/// from the due time, so a stall is charged to every request behind it.
PhaseResult RunOpenLoop(const LoadOptions& options, const Bodies& bodies,
                        std::span<const Request> stream,
                        const std::vector<int64_t>& send_us);

}  // namespace qabench

#endif  // QABENCH_LOAD_H_
