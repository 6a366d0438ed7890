// Storage tier: disk footprint and cold-start cost of the snapshot load
// paths, measured end to end ("process start" to "first question
// answered").
//
//  - size:      container bytes, per section
//  - cold start: bulk read vs mmap of the same container, each in a fresh
//    child process (fork+exec of this binary) so VmHWM and the load cost are
//    not polluted by the parent's world-building. Per mode the child loads
//    the snapshot, builds the QA system, answers the probe questions, and
//    reports load ms / first-answer ms / total ms / peak RSS / a hash of
//    every answer string. The parent asserts the hash is identical across
//    both modes — whatever the load path, the answers must be
//    byte-identical.
//
// Emits one BENCH_JSON line per mode plus a container-size line.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/timer.h"
#include "nlp/lexicon.h"
#include "qa/ganswer.h"
#include "store/snapshot.h"

using namespace ganswer;

namespace {

uint64_t HashAnswers(uint64_t h, std::string_view s) {
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

// ---------------------------------------------------------------------------
// Child: one cold start. Invoked as
//   bench_storage_tier --child <read|mmap> <snapshot> <questions-file>
// and prints "CHILD <load_ms> <first_ms> <total_ms> <vm_hwm_kb> <hash>".
// ---------------------------------------------------------------------------

int ChildMain(const char* mode, const char* snapshot_path,
              const char* questions_path) {
  WallTimer total;
  nlp::Lexicon lexicon;
  auto load_mode = std::strcmp(mode, "mmap") == 0
                       ? store::SnapshotLoadMode::kMmap
                       : store::SnapshotLoadMode::kRead;
  WallTimer load_timer;
  auto snapshot = store::ReadSnapshotFile(snapshot_path, &lexicon, load_mode);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  double load_ms = load_timer.ElapsedMillis();

  qa::GAnswer::Options options;
  options.entity_index = snapshot->entity_index.get();
  options.matching.signatures = snapshot->signatures.get();
  options.graph_stats = snapshot->stats.get();
  options.matching.exec.threads = 1;
  qa::GAnswer system(snapshot->graph.get(), &lexicon,
                     snapshot->dictionary.get(), options);

  std::ifstream questions(questions_path);
  std::string question;
  uint64_t hash = 0xcbf29ce484222325ull;
  double first_ms = 0;
  bool first = true;
  while (std::getline(questions, question)) {
    if (question.empty()) continue;
    auto response = system.Ask(question);
    if (first) {
      first_ms = total.ElapsedMillis();
      first = false;
    }
    hash = HashAnswers(hash, question);
    if (!response.ok()) continue;  // a failed parse hashes as "no answers"
    for (const auto& answer : response->answers) {
      hash = HashAnswers(hash, answer.text);
    }
  }
  double total_ms = total.ElapsedMillis();
  std::printf("CHILD %.3f %.3f %.3f %zu %llu\n", load_ms, first_ms, total_ms,
              bench::ReadVmHwmKb(),
              static_cast<unsigned long long>(hash));
  return 0;
}

// ---------------------------------------------------------------------------
// Parent.
// ---------------------------------------------------------------------------

struct ColdStart {
  double load_ms = 0;
  double first_answer_ms = 0;
  double total_ms = 0;
  size_t vm_hwm_kb = 0;
  uint64_t answer_hash = 0;
};

ColdStart RunChild(const char* self, const std::string& mode,
                   const std::string& snapshot_path,
                   const std::string& questions_path) {
  int fds[2];
  if (pipe(fds) != 0) std::abort();
  pid_t pid = fork();
  if (pid < 0) std::abort();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl(self, self, "--child", mode.c_str(), snapshot_path.c_str(),
          questions_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  ColdStart r;
  unsigned long long hash = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "CHILD %lf %lf %lf %zu %llu", &r.load_ms,
                  &r.first_answer_ms, &r.total_ms, &r.vm_hwm_kb, &hash) != 5) {
    std::fprintf(stderr, "child (%s) failed: %s\n", mode.c_str(),
                 out.c_str());
    std::abort();
  }
  r.answer_hash = hash;
  return r;
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "--child") == 0) {
    return ChildMain(argv[2], argv[3], argv[4]);
  }

  bench::Header("Storage tier: container size and cold start by load mode");

  datagen::KbGenerator::Options kb_options;
  kb_options.num_families = 1600;
  kb_options.num_films = 1200;
  kb_options.num_cities = 400;
  bench::BenchWorld world = bench::BuildWorld(kb_options);

  // The probe workload the children replay; answers must agree bytewise.
  std::string questions_path = TempPath("bench_storage_tier.questions");
  {
    std::ofstream out(questions_path);
    size_t n = 0;
    for (const auto& q : world.workload) {
      out << q.text << "\n";
      if (++n >= 32) break;
    }
  }

  // One container, loaded two ways.
  std::string snapshot_path = TempPath("bench_storage_tier.snap");
  store::SnapshotStats stats;
  Status st = store::WriteSnapshotFile(world.kb.graph, *world.verified,
                                       snapshot_path, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("\n%10s %10s %10s %10s %10s %12s\n", "graph", "sigs",
              "entities", "dict", "stats", "total");
  std::printf("%10zu %10zu %10zu %10zu %10zu %12zu\n", stats.graph_bytes,
              stats.signature_bytes, stats.entity_index_bytes,
              stats.dictionary_bytes, stats.stats_bytes, stats.total_bytes);
  bench::JsonLine("storage_tier_size")
      .Field("triples", world.kb.graph.NumTriples())
      .Field("v3_raw_bytes", stats.total_bytes)
      .Emit();

  struct Variant {
    const char* name;
    const char* load_mode;
  };
  constexpr size_t kRead = 0, kMmap = 1;
  const Variant kVariants[] = {{"raw-read", "read"}, {"raw-mmap", "mmap"}};

  std::printf("\n%-12s %10s %12s %10s %12s\n", "mode", "load ms",
              "first-ans ms", "total ms", "vm_hwm kb");
  uint64_t expected_hash = 0;
  double first_answer_ms[2] = {};
  for (size_t i : {kRead, kMmap}) {
    const Variant& v = kVariants[i];
    ColdStart r = RunChild(argv[0], v.load_mode, snapshot_path, questions_path);
    if (expected_hash == 0) {
      expected_hash = r.answer_hash;
    } else if (r.answer_hash != expected_hash) {
      std::fprintf(stderr,
                   "ANSWER MISMATCH: %s hash %llu != %llu — load paths "
                   "disagree\n",
                   v.name, static_cast<unsigned long long>(r.answer_hash),
                   static_cast<unsigned long long>(expected_hash));
      return 1;
    }
    first_answer_ms[i] = r.first_answer_ms;
    std::printf("%-12s %10.2f %12.2f %10.2f %12zu\n", v.name, r.load_ms,
                r.first_answer_ms, r.total_ms, r.vm_hwm_kb);
    bench::JsonLine("storage_tier_cold_start")
        .Field("mode", v.name)
        .Field("snapshot_bytes", stats.total_bytes)
        .Field("load_ms", r.load_ms)
        .Field("first_answer_ms", r.first_answer_ms)
        .Field("total_ms", r.total_ms)
        .Field("child_vm_hwm_kb", r.vm_hwm_kb)
        .Field("answers_match", r.answer_hash == expected_hash)
        .Emit();
  }
  std::printf("\nanswers identical across all load paths (hash %llu)\n",
              static_cast<unsigned long long>(expected_hash));
  std::printf("mmap first answer %.2f ms vs bulk read %.2f ms\n",
              first_answer_ms[kMmap], first_answer_ms[kRead]);

  std::remove(snapshot_path.c_str());
  std::remove(questions_path.c_str());
  return 0;
}
