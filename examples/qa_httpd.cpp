// qa_httpd — the production serving binary: snapshot in, HTTP out.
//
//   ./build/examples/qa_httpd --snapshot kb.snap --port 8080 --threads 4
//
// Loads one store/snapshot file (build it with `snapshot_server build` or
// `qa_httpd --build-demo-snapshot`), starts the QaService event loop, and
// answers until SIGTERM/SIGINT:
//
//   curl localhost:8080/healthz
//   q='{"question": "Who is the mayor of Berlin ?"}'
//   curl -d "$q" localhost:8080/answer
//   q='{"query": "SELECT ?x WHERE { ?x <is_mayor_of> <Berlin> }"}'
//   curl -d "$q" localhost:8080/sparql
//   curl localhost:8080/stats
//
// With --live DIR the snapshot only bootstraps a live store at DIR and the
// server additionally accepts streaming updates, applied without a rebuild
// and visible to the next query:
//
//   curl -d '<Berlin> <population> "3700000" .' localhost:8080/update
//
// Without --live the same store opens read-only: it stays at epoch 0 and
// POST /update is not routed (404).
//
// Shutdown is graceful: the listen socket closes first, in-flight requests
// drain, responses flush, then the process exits 0.

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/logging.h"
#include "datagen/kb_generator.h"
#include "datagen/phrase_dataset_generator.h"
#include "nlp/lexicon.h"
#include "paraphrase/dictionary_builder.h"
#include "server/qa_service.h"
#include "store/snapshot.h"

using namespace ganswer;

namespace {

// SIGTERM/SIGINT land here; a self-pipe write is async-signal-safe and
// wakes the main thread, which runs the actual (non-signal-safe) shutdown.
int g_shutdown_pipe[2] = {-1, -1};

void HandleSignal(int) {
  char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int BuildDemoSnapshot(const std::string& path) {
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
  if (Status st = builder.Build(kb->graph, dataset, &mined); !st.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", st.ToString().c_str());
    return 1;
  }
  paraphrase::ParaphraseDictionary verified(&lexicon);
  datagen::VerifyDictionary(phrases, kb->graph, mined, &verified);
  if (Status st = store::WriteSnapshotFile(kb->graph, verified, path);
      !st.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote demo snapshot to %s\n", path.c_str());
  return 0;
}

// Parses a whole decimal flag value into [min, max]. Unlike atoi, empty
// input, trailing characters ("8o80") and out-of-range numbers are errors
// instead of silently becoming 0 or a truncated value.
bool ParseIntFlag(const char* text, long min, long max, long* out) {
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --snapshot FILE [--port N] [--address A] [--threads N]\n"
      "          [--max-queue N] [--deadline-ms N] [--no-fast-path]\n"
      "          [--cache N] [--idle-timeout-ms N]\n"
      "          [--live DIR [--compact-threshold N]]\n"
      "       %s --build-demo-snapshot FILE\n"
      "--live serves a live store at DIR (bootstrapped from --snapshot on\n"
      "first start) and accepts streaming updates on POST /update.\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  server::QaService::Options options;
  // Numeric flags: int fields take any int (range checks, such as the
  // port's, belong to the service); size fields must not be negative.
  const long kIntMin = std::numeric_limits<int>::min();
  const long kIntMax = std::numeric_limits<int>::max();
  const long kSizeMax = std::numeric_limits<long>::max();
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto number = [&](auto* field, long min, long max) {
      long value = 0;
      if (!ParseIntFlag(argv[++i], min, max, &value)) {
        std::fprintf(stderr,
                     "%s: expected an integer in [%ld, %ld], got '%s'\n",
                     flag, min, max, argv[i]);
        return false;
      }
      *field = static_cast<std::remove_pointer_t<decltype(field)>>(value);
      return true;
    };
    bool ok = true;
    if (std::strcmp(flag, "--snapshot") == 0 && i + 1 < argc) {
      options.snapshot_path = argv[++i];
    } else if (std::strcmp(flag, "--port") == 0 && i + 1 < argc) {
      ok = number(&options.port, kIntMin, kIntMax);
    } else if (std::strcmp(flag, "--address") == 0 && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (std::strcmp(flag, "--threads") == 0 && i + 1 < argc) {
      ok = number(&options.threads, kIntMin, kIntMax);
    } else if (std::strcmp(flag, "--max-queue") == 0 && i + 1 < argc) {
      ok = number(&options.max_queue, kIntMin, kIntMax);
    } else if (std::strcmp(flag, "--deadline-ms") == 0 && i + 1 < argc) {
      ok = number(&options.deadline_ms, kIntMin, kIntMax);
    } else if (std::strcmp(flag, "--no-fast-path") == 0) {
      options.cached_fast_path = false;
    } else if (std::strcmp(flag, "--cache") == 0 && i + 1 < argc) {
      ok = number(&options.question_cache_capacity, 0, kSizeMax);
    } else if (std::strcmp(flag, "--idle-timeout-ms") == 0 &&
               i + 1 < argc) {
      ok = number(&options.idle_timeout_ms, kIntMin, kIntMax);
    } else if (std::strcmp(flag, "--live") == 0 && i + 1 < argc) {
      options.live_dir = argv[++i];
    } else if (std::strcmp(flag, "--compact-threshold") == 0 &&
               i + 1 < argc) {
      ok = number(&options.live_compact_threshold, 0, kSizeMax);
    } else if (std::strcmp(flag, "--build-demo-snapshot") == 0 &&
               i + 1 < argc) {
      return BuildDemoSnapshot(argv[++i]);
    } else {
      return Usage(argv[0]);
    }
    if (!ok) return 2;
  }
  if (options.snapshot_path.empty()) return Usage(argv[0]);

  if (::pipe(g_shutdown_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // broken client sockets are per-write errors

  server::QaService service(options);
  if (Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "startup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("qa_httpd serving on %s:%d (SIGTERM to stop)\n",
              options.bind_address.c_str(), service.port());
  std::fflush(stdout);

  // Block until a signal arrives.
  char byte;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  service.Shutdown();

  server::QaService::EndpointStats answers = service.answer_stats();
  std::printf("served %llu /answer requests (%llu errors), rejected %llu\n",
              static_cast<unsigned long long>(answers.requests),
              static_cast<unsigned long long>(answers.errors),
              static_cast<unsigned long long>(service.rejected_total()));
  return 0;
}
