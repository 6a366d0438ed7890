// End-to-end live serving: a QaService in --live mode driven over real
// loopback sockets. Covers POST /update through the full HTTP path, epoch
// visibility in /healthz and /stats, cache freshness across epochs (the
// paper's running example answers change the moment the underlying triple
// does), admission errors, recovery across a service restart, and byte
// identity with the frozen serving path.

#include "server/qa_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "server/http_client.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace server {
namespace {

/// The shared test world written to a pid-suffixed snapshot file once per
/// binary (ctest runs each test as its own parallel process from one
/// directory).
const std::string& SnapshotPath() {
  static std::string* path = [] {
    auto* p = new std::string("live_service_test." +
                              std::to_string(::getpid()) + ".snap");
    const auto& world = ganswer::testing::World();
    Status st = store::WriteSnapshotFile(world.kb.graph, *world.verified, *p);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
    std::atexit([] {
      std::remove(("live_service_test." + std::to_string(::getpid()) +
                   ".snap")
                      .c_str());
    });
    return p;
  }();
  return *path;
}

/// Per-test live store directory, removed on destruction.
struct LiveDir {
  std::string dir;
  explicit LiveDir(const std::string& stem)
      : dir(stem + "." + std::to_string(::getpid())) {
    std::filesystem::remove_all(dir);
  }
  ~LiveDir() { std::filesystem::remove_all(dir); }
};

QaService::Options LiveOptions(const LiveDir& live) {
  QaService::Options options;
  options.snapshot_path = SnapshotPath();
  options.live_dir = live.dir;
  options.port = 0;  // ephemeral: parallel ctest runs never collide
  options.threads = 2;
  return options;
}

const char kRunningExample[] =
    "{\"question\": "
    "\"Who was married to an actor that played in Philadelphia ?\"}";
const char kSpouseTriple[] =
    "<Melanie_Griffith> <spouse> <Antonio_Banderas> .";
const char kSpouseQuery[] =
    "{\"query\": \"SELECT ?w WHERE { ?w <spouse> <Antonio_Banderas> }\"}";

/// The integer after `"key":` in a JSON body, or -1 when absent.
long long JsonInt(const std::string& body, const std::string& key) {
  size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + key.size() + 3, nullptr, 10);
}

TEST(LiveServiceTest, UpdatesChangeAnswersAndSurviveRestart) {
  LiveDir live("live_service_freshness");
  {
    QaService service(LiveOptions(live));
    ASSERT_TRUE(service.Start().ok());
    BlockingHttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

    auto health = client.Get("/healthz");
    ASSERT_TRUE(health.ok());
    EXPECT_NE(health->body.find("\"epoch\":0"), std::string::npos)
        << health->body;

    // Epoch 0 answers the running example; the repeat is a cache hit.
    auto first = client.Post("/answer", kRunningExample);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_EQ(first->status, 200) << first->body;
    EXPECT_NE(first->body.find("\"Melanie_Griffith\""), std::string::npos)
        << first->body;
    auto again = client.Post("/answer", kRunningExample);
    ASSERT_TRUE(again.ok());
    EXPECT_NE(again->body.find("\"cache_hit\":true"), std::string::npos)
        << again->body;

    // Delete the spouse triple through POST /update.
    auto update =
        client.Post("/update", std::string("- ") + kSpouseTriple + "\n");
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    ASSERT_EQ(update->status, 200) << update->body;
    EXPECT_NE(update->body.find("\"epoch\":1"), std::string::npos)
        << update->body;
    EXPECT_NE(update->body.find("\"deleted\":1"), std::string::npos)
        << update->body;

    // The very next ask reflects the deletion — the entry cached against
    // epoch 0 is unreachable under the epoch-aware key, so the stale
    // answer can never be served.
    auto stale = client.Post("/answer", kRunningExample);
    ASSERT_TRUE(stale.ok());
    ASSERT_EQ(stale->status, 200) << stale->body;
    EXPECT_EQ(stale->body.find("\"Melanie_Griffith\""), std::string::npos)
        << stale->body;
    EXPECT_EQ(stale->body.find("\"cache_hit\":true"), std::string::npos)
        << stale->body;

    // Adding it back restores the answer at epoch 2.
    auto restore = client.Post("/update", std::string(kSpouseTriple) + "\n");
    ASSERT_TRUE(restore.ok());
    ASSERT_EQ(restore->status, 200) << restore->body;
    EXPECT_NE(restore->body.find("\"epoch\":2"), std::string::npos)
        << restore->body;
    auto back = client.Post("/answer", kRunningExample);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->status, 200) << back->body;
    EXPECT_NE(back->body.find("\"Melanie_Griffith\""), std::string::npos)
        << back->body;

    // /sparql serves the same pinned-view freshness.
    auto rows = client.Post("/sparql", kSpouseQuery);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->status, 200) << rows->body;
    EXPECT_NE(rows->body.find("\"Melanie_Griffith\""), std::string::npos)
        << rows->body;

    // /healthz and /stats expose the live state.
    health = client.Get("/healthz");
    ASSERT_TRUE(health.ok());
    EXPECT_NE(health->body.find("\"epoch\":2"), std::string::npos)
        << health->body;
    auto stats = client.Get("/stats");
    ASSERT_TRUE(stats.ok());
    for (const char* key :
         {"\"ingest\"", "\"batches\":2", "\"triples_added\":1",
          "\"triples_deleted\":1", "\"delta_triples\"", "\"wal_bytes\"",
          "\"compactions\"", "\"/update\""}) {
      EXPECT_NE(stats->body.find(key), std::string::npos)
          << "missing " << key << " in " << stats->body;
    }

    client.Close();
    service.Shutdown();
  }
  // A fresh service over the same directory recovers epoch 2 by WAL replay
  // and still knows the restored answer.
  QaService service(LiveOptions(live));
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"epoch\":2"), std::string::npos)
      << health->body;
  auto r = client.Post("/answer", kRunningExample);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, 200) << r->body;
  EXPECT_NE(r->body.find("\"Melanie_Griffith\""), std::string::npos)
      << r->body;
  client.Close();
  service.Shutdown();
}

TEST(LiveServiceTest, UpdateAdmissionRejectsBadAndOversizeBatches) {
  LiveDir live("live_service_admission");
  QaService::Options options = LiveOptions(live);
  options.update_max_triples = 1;
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  // Empty body, a syntax error, and an over-bound batch all answer 400;
  // none of them commits an epoch.
  for (const char* body :
       {"", "<unterminated .\n",
        "<a> <p> <b> .\n<c> <p> <d> .\n"}) {
    auto r = client.Post("/update", body);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 400) << "body: " << body << " -> " << r->body;
  }
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->body.find("\"epoch\":0"), std::string::npos)
      << health->body;

  // Within the bound, the same triple commits.
  auto ok = client.Post("/update", "<a> <p> <b> .\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200) << ok->body;

  client.Close();
  service.Shutdown();
}

TEST(LiveServiceTest, FrozenServiceHasNoUpdateEndpoint) {
  QaService::Options options;
  options.snapshot_path = SnapshotPath();
  options.port = 0;
  options.threads = 2;
  QaService service(options);
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
  auto r = client.Post("/update", "<a> <p> <b> .\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 404) << r->body;
  client.Close();
  service.Shutdown();
}

// The planner block reads the pinned epoch's SPARQL engine. /stats never
// builds that lazy engine on the loop thread, so it reads zero until the
// epoch's first /sparql and counts that query afterwards.
TEST(LiveServiceTest, StatsReportThePinnedEpochPlanner) {
  LiveDir live("live_service_planner");
  QaService service(LiveOptions(live));
  ASSERT_TRUE(service.Start().ok());
  BlockingHttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", service.port()).ok());

  auto before = client.Get("/stats");
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before->body.find("\"planner\""), std::string::npos)
      << before->body;
  EXPECT_EQ(JsonInt(before->body, "planned_queries"), 0) << before->body;

  auto rows = client.Post("/sparql", kSpouseQuery);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->status, 200) << rows->body;
  auto after = client.Get("/stats");
  ASSERT_TRUE(after.ok());
  EXPECT_GE(JsonInt(after->body, "planned_queries"), 1) << after->body;

  client.Close();
  service.Shutdown();
}

// At epoch 0 a live service serves the identical bytes a frozen service
// would for the same snapshot: the writable store (per-view QA system,
// epoch-aware cache keys, pinned-view serialization) changes nothing about
// the response surface. Cached worker-path bodies have zeroed stage timers,
// so they are deterministic and comparable across services.
TEST(LiveServiceTest, LiveEpochZeroBodiesMatchFrozenServing) {
  LiveDir live("live_service_parity");
  QaService frozen_service([&] {
    QaService::Options options;
    options.snapshot_path = SnapshotPath();
    options.port = 0;
    options.threads = 2;
    return options;
  }());
  QaService live_service(LiveOptions(live));
  ASSERT_TRUE(frozen_service.Start().ok());
  ASSERT_TRUE(live_service.Start().ok());

  auto cached_body = [&](QaService& service) {
    BlockingHttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto warm = client.Post("/answer", kRunningExample);
    EXPECT_TRUE(warm.ok());
    EXPECT_EQ(warm->status, 200);
    auto cached = client.Post("/answer", kRunningExample, "application/json",
                              {{"X-No-Fast-Path", "1"}});
    EXPECT_TRUE(cached.ok());
    EXPECT_EQ(cached->status, 200);
    client.Close();
    return cached->body;
  };
  EXPECT_EQ(cached_body(frozen_service), cached_body(live_service));

  auto sparql_body = [&](QaService& service, const char* query) {
    BlockingHttpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", service.port()).ok());
    auto rows = client.Post("/sparql", query);
    EXPECT_TRUE(rows.ok());
    EXPECT_EQ(rows->status, 200);
    client.Close();
    return rows->body;
  };
  for (const char* query :
       {kSpouseQuery,
        "{\"query\": \"SELECT ?w ?f WHERE { ?f <starring> ?a . "
        "?w <spouse> ?a }\"}"}) {
    std::string frozen = sparql_body(frozen_service, query);
    EXPECT_NE(frozen.find("\"Melanie_Griffith\""), std::string::npos)
        << frozen;
    EXPECT_EQ(frozen, sparql_body(live_service, query)) << query;
  }

  live_service.Shutdown();
  frozen_service.Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace ganswer
