// Build-once, serve-many: the snapshot workflow for production startups.
//
//   ./build/examples/snapshot_server build kb.snap   # offline, pay once
//   ./build/examples/qa_httpd --snapshot kb.snap     # online over HTTP
//   ./build/examples/snapshot_server demo            # both, self-contained
//
// `build` runs the full offline phase on the generated demo KB — mining
// the paraphrase dictionary (Algorithm 1) and constructing the entity and
// signature indexes — then writes everything into one versioned,
// checksummed snapshot file, which qa_httpd serves. `demo` runs build,
// boots server::QaService (the serving tier behind qa_httpd) on an
// ephemeral port, and drives it over a real loopback socket with canned
// questions, reporting the rebuild-vs-load timings and the cache counters.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/timer.h"
#include "datagen/kb_generator.h"
#include "datagen/phrase_dataset_generator.h"
#include "linking/entity_index.h"
#include "nlp/lexicon.h"
#include "paraphrase/dictionary_builder.h"
#include "rdf/signature_index.h"
#include "server/http_client.h"
#include "server/qa_service.h"
#include "store/snapshot.h"

using namespace ganswer;

namespace {

// The offline phase: demo KB + mined-and-verified dictionary + indexes,
// serialized into `path`. Returns the wall-clock cost of the rebuild work
// the snapshot will replace.
int BuildSnapshot(const std::string& path, double* rebuild_ms) {
  WallTimer timer;
  auto kb = datagen::KbGenerator::Generate({});
  if (!kb.ok()) {
    std::fprintf(stderr, "KB generation failed: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  auto phrases = datagen::PhraseDatasetGenerator::Generate(*kb, {});
  auto dataset = datagen::PhraseDatasetGenerator::StripGold(phrases);

  nlp::Lexicon lexicon;
  paraphrase::ParaphraseDictionary mined(&lexicon);
  paraphrase::DictionaryBuilder::Options mopt;
  mopt.max_path_length = 3;
  paraphrase::DictionaryBuilder builder(mopt);
  Status st = builder.Build(kb->graph, dataset, &mined);
  if (!st.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", st.ToString().c_str());
    return 1;
  }
  paraphrase::ParaphraseDictionary verified(&lexicon);
  datagen::VerifyDictionary(phrases, kb->graph, mined, &verified);

  rdf::SignatureIndex signatures(kb->graph);
  linking::EntityIndex entity_index(kb->graph);
  if (rebuild_ms != nullptr) *rebuild_ms = timer.ElapsedMillis();

  std::string bytes;
  store::SnapshotStats stats;
  st = store::WriteSnapshot(kb->graph, signatures, entity_index, verified,
                            &bytes, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s: %.2f MB (graph %zu B, signatures %zu B, "
              "entity index %zu B, dictionary %zu B), fingerprint %016llx\n",
              path.c_str(), stats.total_bytes / (1024.0 * 1024.0),
              stats.graph_bytes, stats.signature_bytes,
              stats.entity_index_bytes, stats.dictionary_bytes,
              static_cast<unsigned long long>(stats.fingerprint));
  return 0;
}

// The online phase, on the one canonical serving path: QaService loads the
// snapshot (bulk reads, zero rebuilds, cache on) and serves HTTP on an
// ephemeral port.
int StartService(const std::string& path,
                 std::unique_ptr<server::QaService>* service,
                 double* load_ms) {
  server::QaService::Options options;
  options.snapshot_path = path;
  options.port = 0;
  options.threads = 2;
  options.question_cache_capacity = 1024;
  WallTimer timer;
  *service = std::make_unique<server::QaService>(options);
  if (Status st = (*service)->Start(); !st.ok()) {
    std::fprintf(stderr, "startup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  *load_ms = timer.ElapsedMillis();
  std::printf("serving %zu triples on 127.0.0.1:%d\n",
              (*service)->kb()->view()->graph().NumTriples(),
              (*service)->port());
  return 0;
}

int RunDemo() {
  const std::string path = "snapshot_server_demo.snap";
  double rebuild_ms = 0;
  if (int rc = BuildSnapshot(path, &rebuild_ms); rc != 0) return rc;

  std::unique_ptr<server::QaService> service;
  double startup_ms = 0;
  if (int rc = StartService(path, &service, &startup_ms); rc != 0) {
    return rc;
  }
  std::printf("offline rebuild was %.1f ms -> served after %.1f ms of "
              "startup (load + bind)\n\n", rebuild_ms, startup_ms);

  server::BlockingHttpClient client;
  if (Status st = client.Connect("127.0.0.1", service->port()); !st.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const char* questions[] = {
      "Who is the mayor of Berlin ?",
      "What is the capital of Canada ?",
      "Who is the mayor of Berlin ?",  // repeat: served from the cache
  };
  for (const char* q : questions) {
    auto r = client.Post("/answer",
                         std::string("{\"question\": \"") + q + "\"}");
    if (!r.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf("Q: %s\n  HTTP %d %s\n", q, r->status, r->body.c_str());
  }

  auto stats = service->kb()->view()->qa().cache_stats();
  std::printf("\ncache: %llu hits, %llu misses, %zu entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.entries);
  client.Close();
  service->Shutdown();
  std::remove(path.c_str());
  return stats.hits >= 1 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "build") == 0) {
    return BuildSnapshot(argv[2], nullptr);
  }
  if (argc == 1 || std::strcmp(argv[1], "demo") == 0) {
    return RunDemo();
  }
  std::fprintf(stderr,
               "usage: %s build FILE | demo\n"
               "serve a built snapshot with: qa_httpd --snapshot FILE\n",
               argv[0]);
  return 2;
}
