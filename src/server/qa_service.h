#ifndef GANSWER_SERVER_QA_SERVICE_H_
#define GANSWER_SERVER_QA_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/latency_histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "nlp/lexicon.h"
#include "qa/ganswer.h"
#include "rdf/sparql_engine.h"
#include "server/http_server.h"
#include "store/live/live_kb.h"

namespace ganswer {
namespace server {

/// \brief The online serving tier: snapshot-backed question answering over
/// HTTP with bounded admission.
///
/// One serving core: the service holds its knowledge base as one
/// store::live::LiveKb. Without Options::live_dir that store is read-only —
/// the snapshot file loaded once (zero rebuilds) and served as a single
/// view at epoch 0 for the process lifetime. With live_dir it is the
/// writable store, and POST /update commits new epochs. Either way every
/// request pins the current KbView at arrival and uses that view — its
/// `qa::GAnswer` with the question cache on, its graph and its lazily built
/// `rdf::SparqlEngine` — for its whole lifetime, so a commit or compaction
/// mid-request never changes what the request observes. The only
/// difference between the two is whether POST /update is routed.
///
/// Requests arrive on the event-loop thread and pass three admission
/// stages, cheapest first:
///
///   1. **Cached fast path** (on by default): the question cache is probed
///      on the event-loop thread, and a hit is serialized and answered
///      inline — it never enters the worker queue, so hot Zipf-head
///      questions stop queueing behind cold-tail matcher work. Byte-wise
///      the response is identical to the worker-pool path for the same
///      cache entry; the `X-No-Fast-Path` request header forces the worker
///      path (the byte-identity tests use it).
///   2. **Bounded queue**: at most `max_queue` requests queued-or-running
///      at once; the overflow request is answered `503` immediately — the
///      load-shedding backstop against unbounded queueing, where every
///      client's latency collapses together.
///   3. **Deadline shedding at dequeue**: every admitted request carries
///      its arrival timestamp and a latency budget (`deadline_ms`, or the
///      `X-Deadline-Ms` request header per request). A worker picking up a
///      request whose budget is already spent answers `503` +
///      `Retry-After` without running the matcher — under overload the
///      workers stop burning time computing answers nobody is waiting for,
///      which is what actually bounds latency for the requests that are
///      admitted.
///
/// Cheap introspection endpoints answer directly on the loop thread.
///
/// Endpoints:
///   POST /answer   {"question": "..."}  (or a text/plain body)
///                  -> ranked answers with scores, the lowered SPARQL
///                     queries, stage timings, cache_hit
///   POST /sparql   {"query": "..."}     (or a text/plain body)
///                  -> variable bindings from the SparqlEngine
///   POST /update   N-Triples body, `-`-prefixed lines delete (writable
///                  store only; 404 otherwise) -> the committed epoch and
///                  batch counters, through the same bounded admission
///                  queue as the query endpoints
///   GET  /healthz  liveness, snapshot identity, epoch
///   GET  /stats    question-cache hit/miss/eviction counters, admission
///                  queue depth, shed counters split queue_full vs
///                  deadline_expired, fast-path hits, queue-wait
///                  percentiles, planner and ingest counters, per-endpoint
///                  request/error counters and latency percentiles
///                  (p50/p95/p99/p99.9)
///
/// Shutdown() drains: the listen socket closes first, dispatched requests
/// run to completion and their responses flush, then the loop stops — the
/// SIGTERM path of `qa_httpd`.
class QaService {
 public:
  struct Options {
    /// Snapshot container written by store::WriteSnapshotFile (or the
    /// `snapshot_server build` / `qa_httpd` tooling). With live_dir this is
    /// the bootstrap base snapshot (used only on the first open of
    /// live_dir; ignored on reopen).
    std::string snapshot_path;
    /// Serve a writable store at this directory (manifest, WAL, compacted
    /// snapshots) and accept streaming updates on POST /update. Empty =
    /// the read-only store over snapshot_path.
    std::string live_dir;
    /// Accumulated delta size (adds + deletes) that arms background
    /// compaction of the writable store; 0 = never compact automatically.
    size_t live_compact_threshold = 0;
    /// Admission bound for POST /update: max operations per batch.
    size_t update_max_triples = 100000;
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (tests); read back via port().
    int port = 8080;
    /// Worker threads answering questions; 0 = the CPUs in the process's
    /// cpuset (AvailableCpus(), common/topology.h).
    int threads = 0;
    /// Admission bound: max requests queued-or-running in the worker tier.
    /// Overflow is answered 503 without queueing. Must be >= 1: Start()
    /// rejects smaller values, which would shed every request.
    int max_queue = 64;
    /// Default latency budget in milliseconds for the POST endpoints;
    /// <= 0 disables deadline shedding (the pure queue-length baseline).
    /// A request still queued when its budget expires is shed with 503 +
    /// Retry-After at dequeue, before any matcher work runs. The
    /// X-Deadline-Ms request header overrides this per request (clamped
    /// to [1, 3600000]; malformed values fall back to this default).
    int deadline_ms = 0;
    /// Serve question-cache hits inline on the event-loop thread,
    /// bypassing the admission queue (see class comment). Off reproduces
    /// the PR 4 behavior where every request rides the worker pool.
    bool cached_fast_path = true;
    size_t question_cache_capacity = 4096;
    int idle_timeout_ms = 30'000;
    /// Test/bench instrumentation: runs on the worker thread before the
    /// request is answered (e.g. a latch that holds workers busy so
    /// admission overflow and shutdown drain become deterministic).
    std::function<void()> worker_hook;
  };

  /// Cumulative per-endpoint counters, readable while serving.
  struct EndpointStats {
    uint64_t requests = 0;
    uint64_t errors = 0;  ///< Responses with status >= 400.
    double total_ms = 0;  ///< Sum of handler latencies.
    double max_ms = 0;
  };

  explicit QaService(Options options);
  ~QaService();

  QaService(const QaService&) = delete;
  QaService& operator=(const QaService&) = delete;

  /// Opens the store (loading the snapshot), builds the epoch's QA system
  /// and starts serving.
  Status Start();

  /// Graceful stop: stop accepting, drain in-flight work, flush responses,
  /// join everything. Idempotent, callable from any non-handler thread
  /// (the qa_httpd SIGTERM path).
  void Shutdown();

  int port() const { return http_ ? http_->port() : 0; }
  /// Current admission queue depth (queued + running).
  int queue_depth() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  /// All shed requests: queue-full plus deadline-expired.
  uint64_t rejected_total() const {
    return shed_queue_full() + shed_deadline_expired();
  }
  uint64_t shed_queue_full() const {
    return shed_queue_full_.load(std::memory_order_relaxed);
  }
  uint64_t shed_deadline_expired() const {
    return shed_deadline_.load(std::memory_order_relaxed);
  }
  /// Cache hits answered inline on the event-loop thread.
  uint64_t fast_path_hits() const {
    return fast_path_hits_.load(std::memory_order_relaxed);
  }
  EndpointStats answer_stats() const;
  EndpointStats sparql_stats() const;
  EndpointStats update_stats() const;
  /// Copies of the per-endpoint latency histograms (measured from the
  /// request's arrival on the server, queue wait included).
  LatencyHistogram answer_latency() const;
  LatencyHistogram sparql_latency() const;
  /// Time admitted requests spent queued before a worker picked them up.
  LatencyHistogram queue_wait() const;

  /// The served store; null before a successful Start().
  store::live::LiveKb* kb() { return kb_.get(); }
  HttpServer* http_server() { return http_.get(); }

 private:
  struct StatsCell {
    mutable std::mutex mu;
    EndpointStats stats;
    LatencyHistogram latency;
  };

  void RegisterRoutes();
  void HandleAnswer(const HttpRequest& request,
                    const HttpServer::ResponseWriter& writer);
  void HandleSparql(const HttpRequest& request,
                    const HttpServer::ResponseWriter& writer);
  void HandleUpdate(const HttpRequest& request,
                    const HttpServer::ResponseWriter& writer);
  void HandleHealthz(const HttpServer::ResponseWriter& writer);
  void HandleStats(const HttpServer::ResponseWriter& writer);

  /// The latency budget for \p request: the parsed X-Deadline-Ms header
  /// when present and valid, else Options::deadline_ms. <= 0 = none.
  int DeadlineFor(const HttpRequest& request) const;

  /// Admission control shared by the POST endpoints: returns false (and
  /// answers 503) when the queue is full, else dispatches \p work to the
  /// pool. The worker re-checks the deadline at dequeue — an expired
  /// request is shed there, before \p work runs. Latencies are measured
  /// from \p admit_us (the request's arrival on the server).
  bool Admit(const HttpServer::ResponseWriter& writer, StatsCell* cell,
             int64_t admit_us, int deadline_ms,
             std::function<HttpResponse()> work);

  static void Record(StatsCell* cell, double ms, int status);

  std::string AnswerToJson(std::string_view question,
                           const qa::GAnswer::Response& response,
                           bool cache_hit, const rdf::RdfGraph& graph) const;
  std::string SparqlResultToJson(const rdf::SparqlResult& result,
                                 const rdf::RdfGraph& graph) const;

  Options options_;
  nlp::Lexicon lexicon_;
  std::unique_ptr<store::live::LiveKb> kb_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<HttpServer> http_;

  /// Admission gate, not a statistic: Admit() compares the fetch_add
  /// result against max_queue.
  std::atomic<int> admitted_{0};
  // Pure event counters on the request path.
  std::atomic<uint64_t> shed_queue_full_{0};
  std::atomic<uint64_t> shed_deadline_{0};
  std::atomic<uint64_t> fast_path_hits_{0};
  StatsCell answer_stats_;
  StatsCell sparql_stats_;
  StatsCell update_stats_;
  struct {
    mutable std::mutex mu;
    LatencyHistogram hist;
  } queue_wait_;
  int64_t start_ms_ = 0;
  bool started_ = false;
  std::atomic<bool> shut_down_{false};
};

}  // namespace server
}  // namespace ganswer

#endif  // GANSWER_SERVER_QA_SERVICE_H_
