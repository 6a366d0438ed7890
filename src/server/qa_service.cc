#include "server/qa_service.h"

#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "qa/sparql_output.h"
#include "server/json_writer.h"

namespace ganswer {
namespace server {

namespace {

/// How many lowered top-k SPARQL queries /answer includes.
constexpr size_t kSparqlTopK = 3;

const char* FailureName(qa::GAnswer::FailureStage stage) {
  switch (stage) {
    case qa::GAnswer::FailureStage::kNone:
      return "none";
    case qa::GAnswer::FailureStage::kParse:
      return "parse";
    case qa::GAnswer::FailureStage::kNoRelations:
      return "no_relations";
    case qa::GAnswer::FailureStage::kNoLinking:
      return "no_linking";
    case qa::GAnswer::FailureStage::kNoMatches:
      return "no_matches";
  }
  return "unknown";
}

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fingerprint);
  return buf;
}

/// Extracts the request payload: the \p key member of a JSON object body,
/// or the raw body for text/plain clients (curl without -H).
StatusOr<std::string> ExtractField(const HttpRequest& request,
                                   std::string_view key) {
  std::string_view body = request.body;
  std::string_view trimmed = Trim(body);
  if (!trimmed.empty() && trimmed.front() == '{') {
    return JsonGetString(trimmed, key);
  }
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty request body");
  }
  return std::string(trimmed);
}

HttpResponse ErrorResponse(int status, std::string_view message) {
  JsonWriter w;
  w.BeginObject().Field("error", message).EndObject();
  return HttpResponse::Json(status, w.Take());
}

}  // namespace

QaService::QaService(Options options) : options_(std::move(options)) {}

QaService::~QaService() { Shutdown(); }

Status QaService::Start() {
  if (options_.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be at least 1, got " +
                                   std::to_string(options_.max_queue));
  }
  WallTimer timer;
  store::live::LiveKb::Options kb_options;
  kb_options.dir = options_.live_dir;  // empty: the read-only store
  kb_options.base_snapshot = options_.snapshot_path;
  kb_options.lexicon = &lexicon_;
  kb_options.question_cache_capacity = options_.question_cache_capacity;
  kb_options.compact_threshold = options_.live_compact_threshold;
  kb_options.max_batch_ops = options_.update_max_triples;
  // Per-question matching stays serial: parallelism comes from answering
  // many requests at once on the worker pool, not from splitting one.
  kb_options.qa.matching.exec.threads = 1;
  auto kb = store::live::LiveKb::Open(std::move(kb_options));
  if (!kb.ok()) return kb.status();
  kb_ = std::move(kb).value();
  double load_ms = timer.ElapsedMillis();

  pool_ = std::make_unique<ThreadPool>(options_.threads);
  HttpServer::Options http_options;
  http_options.bind_address = options_.bind_address;
  http_options.port = options_.port;
  http_options.idle_timeout_ms = options_.idle_timeout_ms;
  http_ = std::make_unique<HttpServer>(http_options);
  RegisterRoutes();
  GANSWER_RETURN_NOT_OK(http_->Start());
  start_ms_ = SteadyNowMs();
  started_ = true;
  std::shared_ptr<const store::live::KbView> view = kb_->view();
  GANSWER_LOG(Info) << "qa service up: " << view->graph().NumTriples()
                    << " triples at epoch " << view->epoch() << ", loaded in "
                    << load_ms << " ms, " << pool_->size()
                    << " worker(s), max queue " << options_.max_queue;
  return Status::Ok();
}

void QaService::Shutdown() {
  if (!started_ || shut_down_.exchange(true)) return;
  GANSWER_LOG(Info) << "qa service shutting down: draining "
                    << queue_depth() << " in-flight request(s)";
  // Order matters: the HTTP drain waits for every dispatched request's
  // response to flush (workers Send() as they finish), then the pool
  // destructor joins the now-idle workers.
  http_->Shutdown();
  pool_.reset();
  GANSWER_LOG(Info) << "qa service stopped";
  FlushLogs();
}

void QaService::RegisterRoutes() {
  http_->Route("POST", "/answer",
               [this](const HttpRequest& request,
                      const HttpServer::ResponseWriter& writer) {
                 HandleAnswer(request, writer);
               });
  http_->Route("POST", "/sparql",
               [this](const HttpRequest& request,
                      const HttpServer::ResponseWriter& writer) {
                 HandleSparql(request, writer);
               });
  if (!kb_->read_only()) {
    http_->Route("POST", "/update",
                 [this](const HttpRequest& request,
                        const HttpServer::ResponseWriter& writer) {
                   HandleUpdate(request, writer);
                 });
  }
  http_->Route("GET", "/healthz",
               [this](const HttpRequest&,
                      const HttpServer::ResponseWriter& writer) {
                 HandleHealthz(writer);
               });
  http_->Route("GET", "/stats",
               [this](const HttpRequest&,
                      const HttpServer::ResponseWriter& writer) {
                 HandleStats(writer);
               });
}

void QaService::Record(StatsCell* cell, double ms, int status) {
  std::lock_guard<std::mutex> lock(cell->mu);
  ++cell->stats.requests;
  if (status >= 400) ++cell->stats.errors;
  cell->stats.total_ms += ms;
  if (ms > cell->stats.max_ms) cell->stats.max_ms = ms;
  // The latency histogram covers answered requests only: shed responses
  // (503) would drag the percentiles toward the shed path's near-zero
  // cost and hide the latency of the work actually served.
  if (status < 500) cell->latency.RecordMillis(ms);
}

QaService::EndpointStats QaService::answer_stats() const {
  std::lock_guard<std::mutex> lock(answer_stats_.mu);
  return answer_stats_.stats;
}

QaService::EndpointStats QaService::sparql_stats() const {
  std::lock_guard<std::mutex> lock(sparql_stats_.mu);
  return sparql_stats_.stats;
}

QaService::EndpointStats QaService::update_stats() const {
  std::lock_guard<std::mutex> lock(update_stats_.mu);
  return update_stats_.stats;
}

LatencyHistogram QaService::answer_latency() const {
  std::lock_guard<std::mutex> lock(answer_stats_.mu);
  return answer_stats_.latency;
}

LatencyHistogram QaService::sparql_latency() const {
  std::lock_guard<std::mutex> lock(sparql_stats_.mu);
  return sparql_stats_.latency;
}

LatencyHistogram QaService::queue_wait() const {
  std::lock_guard<std::mutex> lock(queue_wait_.mu);
  return queue_wait_.hist;
}

int QaService::DeadlineFor(const HttpRequest& request) const {
  int deadline_ms = options_.deadline_ms;
  if (const std::string* header = request.Header("X-Deadline-Ms")) {
    int value = 0;
    auto [ptr, ec] = std::from_chars(
        header->data(), header->data() + header->size(), value);
    if (ec == std::errc() && ptr == header->data() + header->size() &&
        value >= 1 && value <= 3'600'000) {
      deadline_ms = value;
    }
  }
  return deadline_ms;
}

bool QaService::Admit(const HttpServer::ResponseWriter& writer,
                      StatsCell* cell, int64_t admit_us, int deadline_ms,
                      std::function<HttpResponse()> work) {
  // fetch_add first so two racing admissions cannot both squeeze into the
  // last slot; the loser backs out and sheds load.
  if (admitted_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_queue) {
    admitted_.fetch_sub(1, std::memory_order_relaxed);
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    Record(cell, 0.0, 503);
    JsonWriter w;
    w.BeginObject()
        .Field("error", "overloaded")
        .Field("shed", "queue_full")
        .Field("max_queue", static_cast<int64_t>(options_.max_queue))
        .EndObject();
    HttpResponse response = HttpResponse::Json(503, w.Take());
    response.extra_headers.emplace_back("Retry-After", "1");
    writer.Send(std::move(response));
    return false;
  }
  pool_->Submit([this, writer, cell, admit_us, deadline_ms,
                 work = std::move(work)] {
    // Shed-at-dequeue: the deadline check runs before any handler work
    // (including the test latch), so a request that aged out while queued
    // costs the worker nothing but this branch.
    int64_t dequeue_us = SteadyNowUs();
    double waited_ms = static_cast<double>(dequeue_us - admit_us) / 1000.0;
    {
      std::lock_guard<std::mutex> lock(queue_wait_.mu);
      queue_wait_.hist.RecordMillis(waited_ms);
    }
    if (deadline_ms > 0 && waited_ms > static_cast<double>(deadline_ms)) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      Record(cell, waited_ms, 503);
      JsonWriter w;
      w.BeginObject()
          .Field("error", "deadline_expired")
          .Field("shed", "deadline_expired")
          .Field("deadline_ms", static_cast<int64_t>(deadline_ms))
          .Field("waited_ms", waited_ms)
          .EndObject();
      HttpResponse response = HttpResponse::Json(503, w.Take());
      response.extra_headers.emplace_back("Retry-After", "1");
      writer.Send(std::move(response));
      admitted_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    if (options_.worker_hook) options_.worker_hook();
    HttpResponse response = work();
    double ms = static_cast<double>(SteadyNowUs() - admit_us) / 1000.0;
    Record(cell, ms, response.status);
    writer.Send(std::move(response));
    admitted_.fetch_sub(1, std::memory_order_relaxed);
  });
  return true;
}

void QaService::HandleAnswer(const HttpRequest& request,
                             const HttpServer::ResponseWriter& writer) {
  int64_t admit_us =
      request.received_us != 0 ? request.received_us : SteadyNowUs();
  auto question = ExtractField(request, "question");
  if (!question.ok()) {
    Record(&answer_stats_, 0.0, 400);
    writer.Send(ErrorResponse(400, question.status().ToString()));
    return;
  }
  std::string q = std::move(question).value();
  // The current epoch's view is pinned here, at arrival: the fast path,
  // the queued worker work and the serialization all use this one view, so
  // a commit or compaction mid-request never changes what the request
  // observes (and the view's refcount keeps its epoch alive).
  std::shared_ptr<const store::live::KbView> view = kb_->view();
  // Cached fast path: a hit is serialized and answered right here on the
  // event-loop thread — the hot Zipf head never waits behind cold-tail
  // matcher work in the admission queue. Serializing a cached answer is
  // microseconds of JSON assembly, orders of magnitude below one matcher
  // run, so it cannot starve the loop.
  if (options_.cached_fast_path &&
      request.Header("X-No-Fast-Path") == nullptr) {
    if (auto hit = view->qa().ProbeCache(q)) {
      std::string body =
          AnswerToJson(q, *hit, /*cache_hit=*/true, view->graph());
      fast_path_hits_.fetch_add(1, std::memory_order_relaxed);
      Record(&answer_stats_,
             static_cast<double>(SteadyNowUs() - admit_us) / 1000.0, 200);
      writer.Send(HttpResponse::Json(200, std::move(body)));
      return;
    }
  }
  Admit(writer, &answer_stats_, admit_us, DeadlineFor(request),
        [this, q = std::move(q), view = std::move(view)]() -> HttpResponse {
          auto response = view->qa().Ask(q);
          if (!response.ok()) {
            return ErrorResponse(422, response.status().ToString());
          }
          return HttpResponse::Json(
              200, AnswerToJson(q, *response, response->cache_hit,
                                view->graph()));
        });
}

void QaService::HandleSparql(const HttpRequest& request,
                             const HttpServer::ResponseWriter& writer) {
  int64_t admit_us =
      request.received_us != 0 ? request.received_us : SteadyNowUs();
  auto query = ExtractField(request, "query");
  if (!query.ok()) {
    Record(&sparql_stats_, 0.0, 400);
    writer.Send(ErrorResponse(400, query.status().ToString()));
    return;
  }
  Admit(writer, &sparql_stats_, admit_us, DeadlineFor(request),
        [this, text = std::move(query).value(),
         view = kb_->view()]() -> HttpResponse {
          auto result = view->sparql().ExecuteText(text);
          if (!result.ok()) {
            return ErrorResponse(422, result.status().ToString());
          }
          return HttpResponse::Json(
              200, SparqlResultToJson(*result, view->graph()));
        });
}

void QaService::HandleUpdate(const HttpRequest& request,
                             const HttpServer::ResponseWriter& writer) {
  int64_t admit_us =
      request.received_us != 0 ? request.received_us : SteadyNowUs();
  // The body is raw N-Triples (lines starting with `-` delete), or a JSON
  // object {"update": "..."} for JSON-only clients.
  auto update = ExtractField(request, "update");
  if (!update.ok()) {
    Record(&update_stats_, 0.0, 400);
    writer.Send(ErrorResponse(400, update.status().ToString()));
    return;
  }
  // Updates ride the same bounded admission queue as queries: a burst of
  // batches sheds at the queue rather than stalling the event loop, and
  // commit work never runs on the loop thread.
  Admit(writer, &update_stats_, admit_us, DeadlineFor(request),
        [this, text = std::move(update).value()]() -> HttpResponse {
          auto result = kb_->ApplyText(text);
          if (!result.ok()) {
            // Rejected batches (over the admission bound, or N-Triples the
            // parser refuses) are the client's fault; anything else is an
            // internal commit failure.
            Status::Code code = result.status().code();
            int status = (code == Status::Code::kInvalidArgument ||
                          code == Status::Code::kCorruption)
                             ? 400
                             : 500;
            return ErrorResponse(status, result.status().ToString());
          }
          JsonWriter w;
          w.BeginObject()
              .Field("epoch", static_cast<int64_t>(result->epoch))
              .Field("added", static_cast<int64_t>(result->stats.added))
              .Field("deleted", static_cast<int64_t>(result->stats.deleted))
              .Field("noop_adds",
                     static_cast<int64_t>(result->stats.noop_adds))
              .Field("noop_deletes",
                     static_cast<int64_t>(result->stats.noop_deletes))
              .Field("new_terms",
                     static_cast<int64_t>(result->stats.new_terms))
              .EndObject();
          return HttpResponse::Json(200, w.Take());
        });
}

void QaService::HandleHealthz(const HttpServer::ResponseWriter& writer) {
  std::shared_ptr<const store::live::KbView> view = kb_->view();
  JsonWriter w;
  w.BeginObject()
      .Field("status", "ok")
      .Field("triples", view->graph().NumTriples())
      .Field("snapshot_fingerprint", FingerprintHex(view->base().fingerprint))
      .Field("epoch", static_cast<int64_t>(view->epoch()))
      .Field("uptime_ms", static_cast<int64_t>(SteadyNowMs() - start_ms_))
      .EndObject();
  writer.Send(HttpResponse::Json(200, w.Take()));
}

void QaService::HandleStats(const HttpServer::ResponseWriter& writer) {
  std::shared_ptr<const store::live::KbView> view = kb_->view();
  qa::GAnswer::CacheStats cache = view->qa().cache_stats();
  EndpointStats answer = answer_stats();
  EndpointStats sparql = sparql_stats();
  LatencyHistogram answer_hist = answer_latency();
  LatencyHistogram sparql_hist = sparql_latency();
  LatencyHistogram wait_hist = queue_wait();

  JsonWriter w;
  w.BeginObject();
  w.Field("uptime_ms", static_cast<int64_t>(SteadyNowMs() - start_ms_));
  w.Field("queue_depth", static_cast<int64_t>(queue_depth()));
  w.Field("max_queue", static_cast<int64_t>(options_.max_queue));
  w.Field("rejected", rejected_total());
  w.Key("shed").BeginObject();
  w.Field("queue_full", shed_queue_full())
      .Field("deadline_expired", shed_deadline_expired())
      .EndObject();
  w.Field("deadline_ms", static_cast<int64_t>(options_.deadline_ms));
  w.Field("fast_path_hits", fast_path_hits());
  w.Key("queue_wait_ms").BeginObject();
  w.Field("count", wait_hist.count())
      .Field("p50", wait_hist.QuantileMillis(0.50))
      .Field("p99", wait_hist.QuantileMillis(0.99))
      .Field("max", static_cast<double>(wait_hist.max_us()) / 1000.0)
      .EndObject();
  w.Key("question_cache").BeginObject();
  w.Field("hits", cache.hits)
      .Field("misses", cache.misses)
      .Field("evictions", cache.evictions)
      .Field("entries", cache.entries)
      .Field("shards", static_cast<int64_t>(cache.shard_entries.size()))
      .Field("shard_imbalance", cache.shard_imbalance)
      .EndObject();
  w.Key("workers").BeginObject();
  w.Field("threads", static_cast<int64_t>(pool_ ? pool_->size() : 0))
      .EndObject();
  w.Key("server").BeginObject();
  w.Field("connections_active", http_->active_connections())
      .Field("connections_accepted", http_->connections_accepted())
      .Field("requests_in_flight", http_->requests_in_flight())
      .EndObject();
  // The base snapshot's statistics (the ones steering candidate build and
  // plan order); the live triple count is in /healthz, the delta size in
  // the ingest section.
  const rdf::GraphStats& graph_stats = *view->base().stats;
  w.Key("graph").BeginObject();
  w.Field("triples", static_cast<int64_t>(graph_stats.num_triples()))
      .Field("vertices", static_cast<int64_t>(graph_stats.num_vertices()))
      .Field("predicates", static_cast<int64_t>(graph_stats.num_predicates()))
      .Field("classes", static_cast<int64_t>(graph_stats.num_classes()))
      .Field("avg_out_fanout", graph_stats.AvgOutFanout())
      .Field("avg_in_fanout", graph_stats.AvgInFanout())
      .EndObject();
  // The pinned epoch's planner counters. The loop thread never builds the
  // lazy engine: until the epoch's first /sparql they read zero.
  rdf::SparqlEngine::PlannerCounters planner;
  if (const rdf::SparqlEngine* engine = view->sparql_if_built()) {
    planner = engine->planner_counters();
  }
  w.Key("planner").BeginObject();
  w.Field("planned_queries", static_cast<int64_t>(planner.planned_queries))
      .Field("range_lookups", static_cast<int64_t>(planner.range_lookups))
      .Field("full_scans", static_cast<int64_t>(planner.full_scans))
      .Field("merge_joins", static_cast<int64_t>(planner.merge_joins))
      .Field("intermediate_bindings",
             static_cast<int64_t>(planner.intermediate_bindings))
      .EndObject();
  store::live::LiveKb::IngestCounters ingest = kb_->counters();
  w.Key("ingest").BeginObject();
  w.Field("epoch", static_cast<int64_t>(ingest.epoch))
      .Field("batches", static_cast<int64_t>(ingest.batches))
      .Field("triples_added", static_cast<int64_t>(ingest.triples_added))
      .Field("triples_deleted", static_cast<int64_t>(ingest.triples_deleted))
      .Field("noop_adds", static_cast<int64_t>(ingest.noop_adds))
      .Field("noop_deletes", static_cast<int64_t>(ingest.noop_deletes))
      .Field("new_terms", static_cast<int64_t>(ingest.new_terms))
      .Field("delta_triples", static_cast<int64_t>(ingest.delta_triples))
      .Field("touched_vertices", static_cast<int64_t>(ingest.touched_vertices))
      .Field("delta_bytes", static_cast<int64_t>(ingest.delta_bytes))
      .Field("wal_bytes", static_cast<int64_t>(ingest.wal_bytes))
      .Field("compactions", static_cast<int64_t>(ingest.compactions))
      .Field("failed_compactions",
             static_cast<int64_t>(ingest.failed_compactions))
      .Field("last_batch_ms", ingest.last_batch_ms)
      .Field("last_compaction_ms", ingest.last_compaction_ms)
      .EndObject();
  w.Key("endpoints").BeginObject();
  auto emit_endpoint = [&w](const char* name, const EndpointStats& stats,
                            const LatencyHistogram& hist) {
    w.Key(name).BeginObject();
    w.Field("requests", stats.requests)
        .Field("errors", stats.errors)
        .Field("total_ms", stats.total_ms)
        .Field("max_ms", stats.max_ms)
        .Field("mean_ms", stats.requests > 0
                              ? stats.total_ms / stats.requests
                              : 0.0)
        .Field("p50_ms", hist.QuantileMillis(0.50))
        .Field("p95_ms", hist.QuantileMillis(0.95))
        .Field("p99_ms", hist.QuantileMillis(0.99))
        .Field("p99_9_ms", hist.QuantileMillis(0.999))
        .EndObject();
  };
  emit_endpoint("/answer", answer, answer_hist);
  emit_endpoint("/sparql", sparql, sparql_hist);
  EndpointStats update = update_stats();
  LatencyHistogram update_hist = [this] {
    std::lock_guard<std::mutex> lock(update_stats_.mu);
    return update_stats_.latency;
  }();
  emit_endpoint("/update", update, update_hist);
  w.EndObject();
  w.EndObject();
  writer.Send(HttpResponse::Json(200, w.Take()));
}

std::string QaService::AnswerToJson(std::string_view question,
                                    const qa::GAnswer::Response& response,
                                    bool cache_hit,
                                    const rdf::RdfGraph& graph) const {
  JsonWriter w;
  w.BeginObject();
  w.Field("question", question);
  w.Field("cache_hit", cache_hit);
  w.Field("is_ask", response.is_ask);
  if (response.is_ask) w.Field("ask_result", response.ask_result);
  w.Field("failure", FailureName(response.failure));
  w.Key("answers").BeginArray();
  for (const auto& answer : response.answers) {
    w.BeginObject()
        .Field("text", answer.text)
        .Field("score", answer.score)
        .EndObject();
  }
  w.EndArray();
  // The disambiguated interpretations as SPARQL (Algorithm 3): one query
  // per distinct top-k match, runnable against any endpoint.
  w.Key("sparql").BeginArray();
  if (!response.matches.empty()) {
    for (const rdf::SparqlQuery& query : qa::SparqlOutput::TopKQueries(
             response.understanding.sqg, response.matches, graph,
             kSparqlTopK)) {
      w.String(query.ToString());
    }
  }
  w.EndArray();
  // A cache hit reports zeroed stage timers whichever path served it —
  // neither understanding nor matching ran — which keeps the fast-path
  // bytes identical to the worker-pool bytes for the same cache entry
  // (Ask() zeroes them on its hit path; the fast path serializes the
  // stored entry directly, whose timers hold the original compute cost).
  w.Field("understanding_ms", cache_hit ? 0.0 : response.understanding_ms);
  w.Field("evaluation_ms", cache_hit ? 0.0 : response.evaluation_ms);
  w.EndObject();
  return w.Take();
}

std::string QaService::SparqlResultToJson(
    const rdf::SparqlResult& result, const rdf::RdfGraph& graph) const {
  const rdf::TermDictionary& dict = graph.dict();
  JsonWriter w;
  w.BeginObject();
  w.Key("vars").BeginArray();
  for (const std::string& var : result.var_names) w.String(var);
  w.EndArray();
  w.Field("ask_result", result.ask_result);
  w.Key("rows").BeginArray();
  for (const auto& row : result.rows) {
    w.BeginArray();
    for (rdf::TermId id : row) w.String(dict.text(id));
    w.EndArray();
  }
  w.EndArray();
  w.Field("row_count", result.rows.size());
  w.EndObject();
  return w.Take();
}

}  // namespace server
}  // namespace ganswer
