// End-to-end serving-tier tests: a QaService booted from a real snapshot
// file, driven over real loopback sockets. Covers the paper's running
// example through the full HTTP path, admission-control overflow, the
// introspection endpoints, and graceful shutdown drain.

#include "server/qa_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http_client.h"
#include "server/json_writer.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace server {
namespace {

/// Writes the shared test world into a snapshot file once per binary and
/// hands out its path; the service under test always cold-starts from disk,
/// exactly like production. The path is pid-suffixed: ctest runs each test
/// as its own process, in parallel, from the same directory — a shared
/// filename would let one process read the snapshot mid-rewrite by
/// another.
const std::string& SnapshotPath() {
  static std::string* path = [] {
    auto* p = new std::string("qa_service_test." +
                              std::to_string(::getpid()) + ".snap");
    const auto& world = ganswer::testing::World();
    Status st = store::WriteSnapshotFile(world.kb.graph, *world.verified, *p);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    std::atexit([] {
      std::remove(("qa_service_test." + std::to_string(::getpid()) +
                   ".snap")
                      .c_str());
    });
    return p;
  }();
  return *path;
}

QaService::Options TestOptions() {
  QaService::Options options;
  options.snapshot_path = SnapshotPath();
  options.port = 0;  // ephemeral: parallel ctest runs never collide
  options.threads = 2;
  return options;
}

std::string Quoted(std::string_view s) {
  return "\"" + std::string(s) + "\"";
}

TEST(QaServiceTest, AnswersTheRunningExampleOverHttp) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  auto r = client.Post(
      "/answer",
      "{\"question\": "
      "\"Who was married to an actor that played in Philadelphia ?\"}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200) << r->body;
  // The paper's running example resolves to Melanie_Griffith, and the
  // response carries the lowered SPARQL alongside the answers.
  EXPECT_NE(r->body.find(Quoted("Melanie_Griffith")), std::string::npos)
      << r->body;
  EXPECT_NE(r->body.find("\"sparql\""), std::string::npos) << r->body;
  EXPECT_NE(r->body.find("\"answers\""), std::string::npos) << r->body;

  // The exact same question again is a cache hit, visible in the response.
  auto again = client.Post(
      "/answer",
      "{\"question\": "
      "\"Who was married to an actor that played in Philadelphia ?\"}");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->status, 200);
  EXPECT_NE(again->body.find("\"cache_hit\":true"), std::string::npos)
      << again->body;

  client.Close();
  service.Shutdown();
}

TEST(QaServiceTest, AcceptsPlainTextQuestionBody) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  auto r = client.Post(
      "/answer", "Who was married to an actor that played in Philadelphia ?",
      "text/plain");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200) << r->body;
  EXPECT_NE(r->body.find(Quoted("Melanie_Griffith")), std::string::npos)
      << r->body;
  client.Close();
  service.Shutdown();
}

TEST(QaServiceTest, BadRequestBodiesGet400) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  // Empty body, JSON without the key, and malformed JSON all answer 400
  // without ever reaching the worker pool.
  for (const char* body : {"", "{\"nope\": 1}", "{\"question\": "}) {
    auto r = client.Post("/answer", body);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400) << "body: " << body << " -> " << r->body;
  }
  EXPECT_EQ(service.queue_depth(), 0);
  client.Close();
  service.Shutdown();
}

TEST(QaServiceTest, SparqlEndpointEvaluatesQueries) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  auto r = client.Post(
      "/sparql",
      "{\"query\": \"SELECT ?w WHERE { ?w <spouse> <Antonio_Banderas> }\"}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200) << r->body;
  EXPECT_NE(r->body.find(Quoted("Melanie_Griffith")), std::string::npos)
      << r->body;

  auto bad = client.Post("/sparql", "{\"query\": \"SELECT WHERE {\"}");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 422) << bad->body;

  client.Close();
  service.Shutdown();
}

TEST(QaServiceTest, HealthzAndStatsReportServiceState) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"snapshot_fingerprint\""), std::string::npos);
  // A frozen service is the read-only store at epoch 0.
  EXPECT_NE(health->body.find("\"epoch\":0"), std::string::npos)
      << health->body;

  // One answered question shows up in the per-endpoint counters.
  auto answer = client.Post("/answer", "{\"question\": \"Who is nobody ?\"}");
  ASSERT_TRUE(answer.ok());

  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  for (const char* key :
       {"\"question_cache\"", "\"hits\"", "\"misses\"", "\"evictions\"",
        "\"queue_depth\"", "\"rejected\"", "\"/answer\"", "\"/sparql\"",
        "\"requests\"", "\"connections_active\"", "\"graph\"",
        "\"predicates\"", "\"avg_out_fanout\"", "\"planner\"",
        "\"planned_queries\"", "\"merge_joins\"",
        "\"intermediate_bindings\"", "\"ingest\"", "\"batches\":0",
        "\"/update\""}) {
    EXPECT_NE(stats->body.find(key), std::string::npos)
        << "missing " << key << " in " << stats->body;
  }
  auto requests = JsonGetString(stats->body, "no-such-key");
  EXPECT_FALSE(requests.ok());  // stats body is one JSON object, not flat text

  client.Close();
  service.Shutdown();
}

// Admission control: with max_queue=1 and the only admitted request parked
// on a latch inside the worker, every further request must be shed with an
// immediate 503 — deterministically, not probabilistically.
TEST(QaServiceTest, OverflowIsSheddedWith503) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> workers_held{0};

  QaService::Options options = TestOptions();
  options.threads = 1;
  options.max_queue = 1;
  options.worker_hook = [&] {
    workers_held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());

  // First request occupies the single admission slot.
  std::thread holder([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is nobody ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  while (workers_held.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  for (int i = 0; i < 3; ++i) {
    auto r = client.Post("/answer", "{\"question\": \"Who is nobody ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 503) << r->body;
    EXPECT_NE(r->body.find("\"error\":\"overloaded\""), std::string::npos)
        << r->body;
  }
  EXPECT_EQ(service.rejected_total(), 3u);
  EXPECT_EQ(service.queue_depth(), 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();

  // Slot freed: the same connection is served again.
  auto ok = client.Post("/answer", "{\"question\": \"Who is nobody ?\"}");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status, 200) << ok->body;
  client.Close();
  service.Shutdown();
}

// Deadline shedding at dequeue, driven by the X-Deadline-Ms header: with
// the single worker parked on a latch, a queued request whose budget
// expires while it waits must be shed with 503 the moment a worker picks
// it up — before any matcher work — while a queued request without a
// budget is served normally.
TEST(QaServiceTest, DeadlineHeaderRequestsAreShedAtDequeue) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> workers_held{0};

  QaService::Options options = TestOptions();
  options.threads = 1;
  options.max_queue = 8;
  options.deadline_ms = 0;  // no default: only the header arms a deadline
  options.worker_hook = [&] {
    workers_held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());

  // A occupies the single worker (inside the hook, past its own deadline
  // check). Distinct questions throughout: a cache hit would ride the
  // fast path and never enter the queue.
  std::thread holder([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is holder ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  while (workers_held.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // B queues with a 30 ms budget; C queues with none.
  std::thread deadline_request([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is exp ?\"}",
                         "application/json", {{"X-Deadline-Ms", "30"}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 503) << r->body;
    EXPECT_NE(r->body.find("\"shed\":\"deadline_expired\""),
              std::string::npos)
        << r->body;
    EXPECT_NE(r->body.find("\"deadline_ms\":30"), std::string::npos)
        << r->body;
    ASSERT_NE(r->Header("Retry-After"), nullptr) << r->body;
  });
  while (service.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread patient_request([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is pat ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  while (service.queue_depth() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Let B's budget expire while it sits in the queue, then free the
  // worker. B is shed at dequeue; C still gets its answer.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  deadline_request.join();
  patient_request.join();

  EXPECT_EQ(service.shed_deadline_expired(), 1u);
  EXPECT_EQ(service.shed_queue_full(), 0u);
  EXPECT_EQ(service.rejected_total(), 1u);
  service.Shutdown();
}

// Same shedding via Options::deadline_ms, with no header on the wire:
// the configured default budget applies to every POST.
TEST(QaServiceTest, DefaultDeadlineShedsStaleQueuedRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> workers_held{0};

  QaService::Options options = TestOptions();
  options.threads = 1;
  options.max_queue = 8;
  options.deadline_ms = 30;
  options.worker_hook = [&] {
    workers_held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());

  std::thread holder([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is holder ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  while (workers_held.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread stale([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is stale ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 503) << r->body;
    EXPECT_NE(r->body.find("\"shed\":\"deadline_expired\""),
              std::string::npos)
        << r->body;
  });
  while (service.queue_depth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  stale.join();

  EXPECT_EQ(service.shed_deadline_expired(), 1u);
  service.Shutdown();
}

// The cached fast path: a question-cache hit is answered inline on the
// event-loop thread even when the admission queue is completely full —
// hot questions never queue behind cold-tail matcher work.
TEST(QaServiceTest, CachedFastPathServesHitsPastAFullQueue) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> workers_held{0};

  QaService::Options options = TestOptions();
  options.threads = 1;
  options.max_queue = 1;
  options.worker_hook = [&] {
    workers_held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());

  // Warm the cache before the worker gets latched. The warming request
  // itself rides the worker path (miss), so release the latch for it.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  auto warm = client.Post("/answer", "{\"question\": \"Who is hot ?\"}");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, 200) << warm->body;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = false;
  }

  // A cold question parks the only worker and fills the only slot.
  std::thread holder([&] {
    BlockingHttpClient holder_client;
    ASSERT_TRUE(holder_client.Connect("127.0.0.1", service.port()).ok());
    auto r = holder_client.Post("/answer",
                                "{\"question\": \"Who is cold ?\"}");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  int held_baseline = 1;  // the warming request already ran the hook once
  while (workers_held.load() <= held_baseline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queue is full: a second cold question is shed...
  auto shed = client.Post("/answer", "{\"question\": \"Who is cold2 ?\"}");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503) << shed->body;

  // ...but the warmed question is served inline, cache-hit flagged.
  auto hit = client.Post("/answer", "{\"question\": \"Who is hot ?\"}");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->status, 200) << hit->body;
  EXPECT_NE(hit->body.find("\"cache_hit\":true"), std::string::npos)
      << hit->body;
  EXPECT_EQ(service.fast_path_hits(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  client.Close();
  service.Shutdown();
}

// Byte identity: for the same cache entry, the inline fast-path response
// body must be byte-for-byte what the worker-pool path would have sent.
// X-No-Fast-Path forces the worker path on a fast-path-enabled service,
// so both bodies are serialized from the identical cached Response.
TEST(QaServiceTest, FastPathBodyIsByteIdenticalToWorkerPath) {
  QaService service(TestOptions());
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  const std::string body =
      "{\"question\": "
      "\"Who was married to an actor that played in Philadelphia ?\"}";
  auto warm = client.Post("/answer", body);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, 200) << warm->body;

  auto fast = client.Post("/answer", body);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_EQ(fast->status, 200) << fast->body;
  EXPECT_NE(fast->body.find("\"cache_hit\":true"), std::string::npos)
      << fast->body;

  auto worker = client.Post("/answer", body, "application/json",
                            {{"X-No-Fast-Path", "1"}});
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();
  ASSERT_EQ(worker->status, 200) << worker->body;

  EXPECT_EQ(fast->body, worker->body);
  EXPECT_EQ(service.fast_path_hits(), 1u)
      << "the X-No-Fast-Path request must not take the fast path";

  // Stage timings are zeroed on both hit paths: cached answers did no
  // understanding or evaluation work this request.
  EXPECT_NE(fast->body.find("\"understanding_ms\":0"), std::string::npos)
      << fast->body;

  client.Close();
  service.Shutdown();
}

// The /stats surface for the tail-latency program: per-endpoint latency
// percentiles, queue-wait percentiles, split shed counters, fast-path
// hits.
TEST(QaServiceTest, StatsExposeTailLatencyCounters) {
  QaService::Options options = TestOptions();
  options.deadline_ms = 250;
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  auto first = client.Post("/answer", "{\"question\": \"Who is seen ?\"}");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  auto second = client.Post("/answer", "{\"question\": \"Who is seen ?\"}");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, 200) << second->body;

  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  for (const char* key :
       {"\"shed\"", "\"queue_full\"", "\"deadline_expired\"",
        "\"deadline_ms\":250", "\"fast_path_hits\":1", "\"queue_wait_ms\"",
        "\"p50_ms\"", "\"p95_ms\"", "\"p99_ms\"", "\"p99_9_ms\""}) {
    EXPECT_NE(stats->body.find(key), std::string::npos)
        << "missing " << key << " in " << stats->body;
  }

  client.Close();
  service.Shutdown();
}

// Graceful shutdown: a request parked inside the worker when Shutdown()
// starts must still be answered (drain), and the listener must be gone
// afterwards.
TEST(QaServiceTest, ShutdownDrainsInFlightRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> workers_held{0};

  QaService::Options options = TestOptions();
  options.threads = 1;
  options.worker_hook = [&] {
    workers_held.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());
  int port = service.port();

  std::thread in_flight([&] {
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    auto r = client.Post("/answer", "{\"question\": \"Who is nobody ?\"}");
    // The drain guarantee: the response arrives complete, after shutdown
    // began, with status 200 — never a reset or a truncated body.
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200) << r->body;
  });
  while (workers_held.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread releaser([&] {
    // Let Shutdown() enter its drain phase before freeing the worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  service.Shutdown();  // must block until the in-flight response flushed
  in_flight.join();
  releaser.join();
  EXPECT_EQ(service.queue_depth(), 0);

  BlockingHttpClient refused;
  EXPECT_FALSE(refused.Connect("127.0.0.1", port).ok());
}

TEST(QaServiceTest, StartFailsCleanlyOnMissingSnapshot) {
  QaService::Options options;
  options.snapshot_path = "does_not_exist.snap";
  options.port = 0;
  QaService service(options);
  Status st = service.Start();
  EXPECT_FALSE(st.ok());
  service.Shutdown();  // must be safe after a failed start
}

// A queue bound below 1 would shed every request with 503 queue_full, so
// Start() refuses it up front — before the snapshot or live store opens.
TEST(QaServiceTest, StartRejectsMaxQueueBelowOne) {
  for (int max_queue : {0, -1, std::numeric_limits<int>::min()}) {
    QaService::Options options = TestOptions();
    options.max_queue = max_queue;
    QaService service(options);
    Status st = service.Start();
    EXPECT_TRUE(st.IsInvalidArgument()) << max_queue << ": " << st.ToString();
    EXPECT_EQ(service.port(), 0) << "no listener after a rejected start";
    service.Shutdown();

    options.snapshot_path = "does_not_exist.snap";
    QaService unloaded(options);
    st = unloaded.Start();
    EXPECT_TRUE(st.IsInvalidArgument())
        << "checked before the snapshot loads: " << st.ToString();
  }
}

}  // namespace
}  // namespace server
}  // namespace ganswer
