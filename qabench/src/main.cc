// qabench: the repository benchmark. Drives an in-process
// server::QaService over loopback HTTP on the 16x KB, checks every answer
// against the in-process pipeline, and prints one JSON result line.
//
//   qabench --workload <cold_answer|hot_answer|sparql_bgp|live_mixed>
//           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//           [--source-id <id>]
//
// --trace 0 reports the end-to-end metrics of the HTTP run; --trace 1 runs
// the same HTTP run, then replays its request stream in process with a
// span around every layer call and reports the per-layer metrics. See
// README.md for the metric definitions and how to read the trace.

#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/topology.h"
#include "json.h"
#include "load.h"
#include "nlp/lexicon.h"
#include "qa/ganswer.h"
#include "qa/sparql_output.h"
#include "rdf/sparql_engine.h"
#include "rdf/sparql_parser.h"
#include "replay.h"
#include "schedule.h"
#include "server/http_client.h"
#include "server/json_writer.h"
#include "server/qa_service.h"
#include "stats.h"
#include "store/snapshot.h"
#include "world.h"

namespace qabench {
namespace {

namespace qa = ganswer::qa;
namespace rdf = ganswer::rdf;
namespace server = ganswer::server;
using Clock = std::chrono::steady_clock;

// ---- Fixed load shape. Never calibrated against the build under test:
// the parent and a change must receive identical offered load. ----

/// Server worker threads plus load-generator connections (one thread
/// each) stay within the 4 CPUs the benchmark is sized for.
constexpr int kServerWorkers = 2;
constexpr int kConnections = 2;
/// Share of --seconds spent in the closed-loop (throughput) phase; the
/// rest is the open-loop (latency) phase.
constexpr double kClosedShare = 0.3;
/// Both phases are split into this many alternating rounds, so slow
/// periods of the host hit both alike; throughput and latency are the
/// medians over rounds.
constexpr int kRounds = 7;
constexpr int kSetupRepetitions = 3;
/// Service restarts timed for cold_start_ms; the first only warms the
/// page cache and the allocator and is not counted.
constexpr int kColdStarts = 32;
constexpr size_t kHotQuestions = 32;
constexpr double kZipfSkew = 1.1;
constexpr size_t kQuestionCache = 4096;  // QaService's default
/// live_mixed: one /update batch every 200 ms, each 4 adds plus the
/// deletes of the batch kDeleteLag batches earlier, so the delta grows
/// and shrinks; kCompactThreshold makes compaction cycle several times.
constexpr int64_t kUpdateIntervalUs = 200'000;
constexpr size_t kAddsPerBatch = 4;
constexpr size_t kDeleteLag = 8;
constexpr size_t kUpdateBatches = 2048;
constexpr size_t kCompactThreshold = 100;
/// Share of live_mixed /answer reads that are hot: bench_loadgen's traffic
/// model, 78% hot and 10% uncached.
constexpr double kLiveHotShare = 0.78 / (0.78 + 0.10);
/// sparql_bgp: share of requests that are BGP templates; the rest are
/// lowered gold queries, each a few anchored probes. No /sparql traffic
/// record exists to take this from. It is set so that the median request
/// is a multi-pattern BGP, the planner's work, and p50_ms moves with the
/// planner. Drawing uniformly over distinct queries, as bench_planner
/// weights them, would make 247 of every 256 requests lowered probes.
constexpr double kTemplateShare = 0.7;

enum class Workload { kColdAnswer, kHotAnswer, kSparqlBgp, kLiveMixed };

struct WorkloadSpec {
  const char* name;
  Workload workload;
  /// Offered rate of the open-loop phase (requests/s, excluding updates).
  /// Low enough that the two workers stay mostly idle: latency then tracks
  /// service time, not queueing, which would amplify host-speed noise.
  double open_rate;
};

const WorkloadSpec kWorkloads[] = {
    {"cold_answer", Workload::kColdAnswer, 100.0},
    {"hot_answer", Workload::kHotAnswer, 2000.0},
    {"sparql_bgp", Workload::kSparqlBgp, 200.0},
    {"live_mixed", Workload::kLiveMixed, 100.0},
};

// bench_planner's multi-pattern BGPs over the datagen schema.
const char* const kBgpTemplates[] = {
    "SELECT ?w ?a WHERE { ?a rdf:type <Actor> . ?w <spouse> ?a . "
    "?f <starring> ?a . ?f rdf:type <Film> }",
    "SELECT ?f ?d WHERE { ?f rdf:type <Film> . ?f <starring> ?a . "
    "?f <director> ?d }",
    "SELECT ?p ?t WHERE { ?p rdf:type <Person> . ?p <playForTeam> ?t . "
    "?t <locationCity> ?c }",
    "SELECT ?g ?c WHERE { ?g <hasChild> ?p . ?p <hasChild> ?c . "
    "?p <spouse> ?s }",
    "SELECT ?city ?n WHERE { ?city rdf:type <City> . "
    "?city <country> ?n . ?n <capital> ?cap }",
    "SELECT ?d WHERE { ?f <starring> <Antonio_Banderas> . "
    "?f <director> ?d }",
    "SELECT ?g ?t WHERE { ?g rdf:type <Person> . ?g <hasChild> ?p . "
    "?p <hasChild> ?c . ?c <playForTeam> ?t }",
    "SELECT ?x ?f WHERE { ?x <birthPlace> ?c . ?f <starring> ?a . "
    "?a <spouse> ?x }",
    "SELECT ?f ?a ?d WHERE { ?f <starring> ?a . ?f <director> ?d }",
};

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args->spec = &w;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return args->spec != nullptr && have_seed && args->seconds > 0 &&
         !args->work_dir.empty() && argc % 2 == 1;
}

// ---- Environment record. ----

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

std::string CpusetText() {
  std::string out;
  for (int c : AllowedCpus()) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out.empty() ? "unknown" : out;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double ReadRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Timings from a Debug or sanitizer build say nothing about the program.
bool MeasurableBuild(std::string* why) {
#if !defined(NDEBUG)
  *why = "assertions are on (Debug build)";
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#else
  if (std::string(QABENCH_BUILD_TYPE) == "Debug") {
    *why = "Debug build";
    return false;
  }
  return true;
#endif
}

// ---- Request bodies. ----

std::string JsonBody(const char* key, const std::string& value) {
  server::JsonWriter w;
  w.BeginObject().Field(key, value).EndObject();
  return w.Take();
}

/// Batch k: kAddsPerBatch spouse edges from fresh people to entities the
/// gold questions ask about, and the deletes of batch k - kDeleteLag.
std::string UpdateBatch(size_t k, const std::vector<std::string>& entities) {
  auto line = [&](size_t batch, size_t j) {
    return "<qabench_person_" + std::to_string(batch) + "_" +
           std::to_string(j) + "> <spouse> <" +
           entities[(batch * kAddsPerBatch + j) % entities.size()] + "> .\n";
  };
  std::string out;
  for (size_t j = 0; j < kAddsPerBatch; ++j) out += line(k, j);
  if (k >= kDeleteLag) {
    for (size_t j = 0; j < kAddsPerBatch; ++j) {
      out += "- " + line(k - kDeleteLag, j);
    }
  }
  return out;
}

// ---- Small HTTP helpers. ----

bool GetJson(int port, const std::string& path, Json* out) {
  server::BlockingHttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  auto r = client.Get(path);
  return r.ok() && r->status == 200 && ParseJson(r->body, out);
}

/// The answer list of an in-process Response, in AnswerSignature's form.
std::string ResponseSignature(const qa::GAnswer::Response& r) {
  std::string s;
  if (r.is_ask) s = r.ask_result ? "ask:true" : "ask:false";
  for (const qa::GAnswer::Answer& a : r.answers) {
    s += '\x1f';
    s += a.text;
  }
  return s;
}

bool JudgedRight(const ganswer::datagen::GoldQuestion& q,
                 const std::string& signature) {
  bool is_ask = signature.rfind("ask:", 0) == 0;
  bool ask_result = signature.rfind("ask:true", 0) == 0;
  std::vector<std::string> answers;
  size_t at = signature.find('\x1f');
  while (at != std::string::npos) {
    size_t next = signature.find('\x1f', at + 1);
    answers.push_back(signature.substr(
        at + 1, next == std::string::npos ? std::string::npos : next - at - 1));
    at = next;
  }
  return ganswer::bench::Judge(q, is_ask, ask_result, answers) ==
         ganswer::bench::Verdict::kRight;
}

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run();

 private:
  bool live() const { return args_.spec->workload == Workload::kLiveMixed; }
  /// The endpoint whose latency and throughput the metrics report.
  size_t PrimaryEndpoint() const {
    return static_cast<size_t>(args_.spec->workload == Workload::kSparqlBgp
                                   ? Endpoint::kSparql
                                   : Endpoint::kAnswer);
  }
  server::QaService::Options ServiceOptions(const std::string& live_dir) const;
  bool SetUp();
  void LowerGoldQuestions();
  bool MeasureColdStarts();
  bool BuildStreams();
  bool RunHttp();
  bool CheckAgainstInProcess();
  void Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    std::fprintf(stderr, "qabench: %s\n", message.c_str());
  }
  std::string Path(const std::string& name) const {
    return args_.work_dir + "/" + name;
  }

  Args args_;
  World world_;
  size_t kb_triples_ = 0;
  Bodies bodies_;  ///< Encoded request bodies.
  Bodies texts_;   ///< The raw texts behind them.
  std::vector<uint32_t> hot_items_;
  std::vector<Request> warmup_;
  std::vector<Request> closed_stream_;
  std::vector<Request> open_stream_;
  std::vector<Request> replay_stream_;  ///< The open-loop requests sent.
  std::vector<double> round_qps_;
  std::vector<Summary> round_latency_;
  size_t open_requests_ = 0;

  std::unique_ptr<server::QaService> service_;
  std::vector<double> setup_s_, mine_ms_, write_ms_, cold_start_ms_;
  SnapshotBuild snapshot_build_;
  std::map<uint32_t, std::string> gold_signatures_;
  PhaseResult closed_, open_;
  Json stats_before_, stats_after_;
  double rss_mb_ = 0;
  std::string error_;
};

server::QaService::Options Bench::ServiceOptions(
    const std::string& live_dir) const {
  server::QaService::Options options;
  options.snapshot_path = Path("kb16.snap");
  options.port = 0;
  options.threads = kServerWorkers;
  options.question_cache_capacity = kQuestionCache;
  if (live()) {
    options.live_dir = live_dir;
    options.live_compact_threshold = kCompactThreshold;
    std::filesystem::remove_all(live_dir);
  }
  return options;
}

/// The SPARQL sparql_bgp sends besides the templates: the top-1 query
/// each gold question lowers to, as /answer reports it.
void Bench::LowerGoldQuestions() {
  ganswer::nlp::Lexicon lexicon;
  auto snapshot = ganswer::store::ReadSnapshotFile(Path("kb16.snap"), &lexicon);
  if (!snapshot.ok()) {
    Fail("snapshot load: " + snapshot.status().ToString());
    return;
  }
  qa::GAnswer system(snapshot->graph.get(), &lexicon,
                     snapshot->dictionary.get(), ServingOptions(*snapshot, 0));
  std::set<std::string> seen;
  for (const char* t : kBgpTemplates) seen.insert(t);
  texts_.sparql.assign(std::begin(kBgpTemplates), std::end(kBgpTemplates));
  for (const auto& q : world_.gold) {
    auto r = system.Ask(q.text);
    if (!r.ok() || r->matches.empty()) continue;
    auto queries = qa::SparqlOutput::TopKQueries(r->understanding.sqg,
                                                 r->matches,
                                                 *snapshot->graph, 1);
    if (queries.empty()) continue;
    std::string text = queries[0].ToString();
    if (seen.insert(text).second) texts_.sparql.push_back(text);
  }
  for (const std::string& s : texts_.sparql) {
    bodies_.sparql.push_back(JsonBody("query", s));
  }
  std::printf("sparql: %zu BGP templates, %zu lowered gold queries\n",
              std::size(kBgpTemplates),
              texts_.sparql.size() - std::size(kBgpTemplates));
}

bool Bench::SetUp() {
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    service_.reset();
    std::filesystem::remove(Path("kb16.snap"));
    SnapshotBuild build;
    Clock::time_point t0 = Clock::now();
    ganswer::Status st =
        MineAndWriteSnapshot(world_, Path("kb16.snap"), &build);
    double build_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!st.ok()) {
      Fail("snapshot build: " + st.ToString());
      return false;
    }
    // Lowering the gold questions makes sparql_bgp's inputs; it is not
    // set-up work and stays outside the timing.
    if (args_.spec->workload == Workload::kSparqlBgp && texts_.sparql.empty()) {
      LowerGoldQuestions();
      if (!error_.empty()) return false;
      for (uint32_t i = 0; i < texts_.sparql.size(); ++i) {
        warmup_.push_back({Endpoint::kSparql, i});
      }
    }
    t0 = Clock::now();
    service_ = std::make_unique<server::QaService>(
        ServiceOptions(Path("live")));
    if (ganswer::Status s = service_->Start(); !s.ok()) {
      Fail("service start: " + s.ToString());
      return false;
    }
    LoadOptions options;
    options.port = service_->port();
    options.connections = 1;
    options.check_answers = false;
    PhaseResult warm =
        RunClosedLoop(options, bodies_, warmup_, 1e9, {}, 0);
    if (warm.TotalFailed() != 0 || !warm.error.empty()) {
      Fail("warm-up failed: " + warm.error);
      return false;
    }
    setup_s_.push_back(build_s +
                       std::chrono::duration<double>(Clock::now() - t0).count());
    mine_ms_.push_back(build.mine_ms);
    write_ms_.push_back(build.write_ms);
    snapshot_build_ = build;
  }
  return true;
}

bool Bench::MeasureColdStarts() {
  const std::string& probe = bodies_.answer[hot_items_[0]];
  for (int i = 0; i < kColdStarts; ++i) {
    Clock::time_point t0 = Clock::now();
    server::QaService service(ServiceOptions(Path("live_cold_start")));
    if (ganswer::Status s = service.Start(); !s.ok()) {
      Fail("cold-start service: " + s.ToString());
      return false;
    }
    server::BlockingHttpClient client;
    if (!client.Connect("127.0.0.1", service.port()).ok()) {
      Fail("cold-start connect");
      return false;
    }
    auto r = client.Post("/answer", probe);
    if (!r.ok() || r->status != 200) {
      Fail("cold-start /answer failed");
      return false;
    }
    if (i > 0) {
      cold_start_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    if (i + 1 < kColdStarts) continue;
    // The last fresh instance also answers the gold set for
    // gold_right_frac, so the measured service's cache never sees it.
    for (uint32_t g = 0; g < world_.gold.size(); ++g) {
      auto a = client.Post("/answer", bodies_.answer[g]);
      std::string signature;
      if (!a.ok() || a->status != 200 || !AnswerSignature(a->body, &signature)) {
        Fail("gold /answer failed");
        return false;
      }
      gold_signatures_[g] = signature;
    }
  }
  std::filesystem::remove_all(Path("live_cold_start"));
  return true;
}

/// \p n requests, exactly round(n * share) of them from \p first and the
/// rest from \p second, shuffled by \p seed. The seed picks the items and
/// their order but not the share, so every seed offers the same mix.
template <typename First, typename Second>
std::vector<Request> Blend(size_t n, double share, First& first,
                           Second& second, uint64_t seed) {
  const size_t n_first = static_cast<size_t>(std::llround(n * share));
  std::vector<Request> drawn;
  for (size_t i = 0; i < n; ++i) {
    drawn.push_back(i < n_first ? first() : second());
  }
  std::vector<Request> out;
  for (size_t i : Permutation(n, seed)) out.push_back(drawn[i]);
  return out;
}

bool Bench::BuildStreams() {
  const uint64_t seed = args_.seed;
  const double open_s = args_.seconds * (1.0 - kClosedShare);
  const size_t open_n =
      static_cast<size_t>(args_.spec->open_rate * open_s) / kRounds;
  open_requests_ = open_n * kRounds;
  const size_t gold = world_.gold.size();
  const size_t cold = world_.cold_pool.size();
  // The open-loop phase's cold questions are the head of the permutation,
  // reserved whatever the closed loop gets through, so a parent and a
  // change time the same questions. The closed loop cycles through the
  // rest. There are more of them than the question cache holds, so a
  // question has been evicted before it comes round again, and every
  // request misses however fast the build under test serves.
  const size_t reserved = open_requests_;
  if (cold <= reserved + kQuestionCache) {
    Fail("cold pool of " + std::to_string(cold) +
         " questions is too small for " + std::to_string(reserved) +
         " open-loop requests; lower --seconds");
    return false;
  }
  std::vector<size_t> cold_order = Permutation(cold, seed ^ 0xc01d);
  size_t open_cold = 0, closed_cold = 0;
  auto cold_at = [&](size_t rank) {
    return Request{Endpoint::kAnswer,
                   static_cast<uint32_t>(gold + cold_order[rank])};
  };
  auto next_open_cold = [&] { return cold_at(open_cold++); };
  auto next_closed_cold = [&] {
    return cold_at(reserved + closed_cold++ % (cold - reserved));
  };
  auto hot = [&](size_t rank) {
    return Request{Endpoint::kAnswer, hot_items_[rank]};
  };
  // Long enough that no closed-loop phase runs out before its deadline.
  const size_t closed_len = 400000;
  switch (args_.spec->workload) {
    case Workload::kColdAnswer:
      for (size_t i = 0; i < closed_len; ++i) {
        closed_stream_.push_back(next_closed_cold());
      }
      for (size_t i = 0; i < open_requests_; ++i) {
        open_stream_.push_back(next_open_cold());
      }
      break;
    case Workload::kHotAnswer:
      for (size_t r : ZipfDraws(closed_len, hot_items_.size(), kZipfSkew, seed)) {
        closed_stream_.push_back(hot(r));
      }
      for (size_t r : ZipfDraws(open_requests_, hot_items_.size(), kZipfSkew,
                                seed + 1)) {
        open_stream_.push_back(hot(r));
      }
      break;
    case Workload::kSparqlBgp: {
      // Each kind cycles through its queries in a seeded order, so every
      // query is sent about equally often.
      const size_t templates = std::size(kBgpTemplates);
      const size_t lowered = texts_.sparql.size() - templates;
      std::vector<size_t> template_order = Permutation(templates, seed ^ 0xb6);
      std::vector<size_t> lowered_order = Permutation(lowered, seed ^ 0x10);
      size_t next_template = 0, next_lowered = 0;
      auto bgp = [&] {
        return Request{Endpoint::kSparql,
                       static_cast<uint32_t>(
                           template_order[next_template++ % templates])};
      };
      auto lowered_query = [&] {
        return Request{Endpoint::kSparql,
                       static_cast<uint32_t>(
                           templates + lowered_order[next_lowered++ % lowered])};
      };
      closed_stream_ = Blend(closed_len, kTemplateShare, bgp, lowered_query,
                             seed);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Request> slice =
            Blend(open_n, kTemplateShare, bgp, lowered_query, seed + round + 1);
        open_stream_.insert(open_stream_.end(), slice.begin(), slice.end());
      }
      break;
    }
    case Workload::kLiveMixed: {
      std::vector<size_t> zipf =
          ZipfDraws(closed_len + open_requests_, hot_items_.size(), kZipfSkew,
                    seed + 1);
      size_t next_zipf = 0;
      auto next_hot = [&] { return hot(zipf[next_zipf++]); };
      closed_stream_ = Blend(closed_len, kLiveHotShare, next_hot,
                             next_closed_cold, seed);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Request> slice = Blend(open_n, kLiveHotShare, next_hot,
                                           next_open_cold, seed + round + 1);
        open_stream_.insert(open_stream_.end(), slice.begin(), slice.end());
      }
      break;
    }
  }
  return true;
}

bool Bench::RunHttp() {
  LoadOptions options;
  options.port = service_->port();
  options.connections = kConnections;
  options.check_answers = !live();
  if (!GetJson(options.port, "/stats", &stats_before_)) {
    Fail("GET /stats failed");
    return false;
  }
  const size_t primary = PrimaryEndpoint();
  const double closed_s = args_.seconds * kClosedShare / kRounds;
  const size_t open_n = open_requests_ / kRounds;
  size_t closed_pos = 0;
  uint32_t next_update = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<int64_t> update_offsets;
    if (live()) {
      for (int64_t t = kUpdateIntervalUs; t < closed_s * 1e6;
           t += kUpdateIntervalUs) {
        update_offsets.push_back(t);
      }
    }
    PhaseResult closed = RunClosedLoop(
        options, bodies_,
        std::span<const Request>(closed_stream_).subspan(closed_pos), closed_s,
        update_offsets, next_update);
    closed_pos += closed.attempted[0] + closed.attempted[1];
    next_update += static_cast<uint32_t>(closed.attempted[2]);
    round_qps_.push_back(static_cast<double>(closed.ok[primary]) /
                         closed.wall_s);

    // Round r sends open-loop slice r, whatever the closed loop got through.
    std::vector<Request> stream(open_stream_.begin() + round * open_n,
                                open_stream_.begin() + (round + 1) * open_n);
    std::vector<int64_t> send_us = PoissonSchedule(
        open_n, args_.spec->open_rate, args_.seed * 131 + round);
    if (live()) {
      // Updates arrive at a fixed rate beside the Poisson reads.
      std::vector<std::pair<int64_t, Request>> merged;
      for (size_t i = 0; i < stream.size(); ++i) {
        merged.push_back({send_us[i], stream[i]});
      }
      for (int64_t t = kUpdateIntervalUs; t <= send_us.back();
           t += kUpdateIntervalUs) {
        merged.push_back({t, Request{Endpoint::kUpdate, next_update++}});
      }
      std::stable_sort(merged.begin(), merged.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      stream.clear();
      send_us.clear();
      for (const auto& [t, r] : merged) {
        send_us.push_back(t);
        stream.push_back(r);
      }
    }
    if (next_update > texts_.update.size()) {
      Fail("update batches exhausted");
      return false;
    }
    PhaseResult open = RunOpenLoop(options, bodies_, stream, send_us);
    round_latency_.push_back(Summarize(open.latency_ms[primary]));
    replay_stream_.insert(replay_stream_.end(), stream.begin(), stream.end());
    closed_.MergeFrom(std::move(closed));
    open_.MergeFrom(std::move(open));
  }
  rss_mb_ = ReadRssMb();
  if (!GetJson(options.port, "/stats", &stats_after_)) {
    Fail("GET /stats failed");
    return false;
  }
  for (const PhaseResult* p : {&closed_, &open_}) {
    if (!p->error.empty()) Fail("HTTP run: " + p->error);
  }
  if (live()) {
    // Freshness gate: every acked batch is one epoch, and the last
    // committed batch is visible.
    size_t acked = closed_.updates_acked + open_.updates_acked;
    Json health;
    if (!GetJson(options.port, "/healthz", &health)) {
      Fail("GET /healthz failed");
      return false;
    }
    uint64_t epoch = static_cast<uint64_t>(health.Num({"epoch"}, -1));
    if (epoch != acked) {
      Fail("final epoch " + std::to_string(epoch) + " != " +
           std::to_string(acked) + " acked batches");
    }
    const PhaseResult& last =
        open_.max_epoch >= closed_.max_epoch ? open_ : closed_;
    std::string batch = texts_.update[last.max_epoch_item];
    std::string triple = batch.substr(0, batch.find('\n'));
    triple = triple.substr(0, triple.rfind('.'));
    server::BlockingHttpClient client;
    std::string body = JsonBody("query", "ASK WHERE { " + triple + " }");
    auto r = client.Connect("127.0.0.1", options.port).ok()
                 ? client.Post("/sparql", body)
                 : ganswer::StatusOr<server::ClientResponse>(
                       ganswer::Status::IoError("connect"));
    Json json;
    if (!r.ok() || r->status != 200 || !ParseJson(r->body, &json) ||
        json.Get("ask_result") == nullptr ||
        !json.Get("ask_result")->boolean) {
      Fail("last committed triple not visible: " + triple);
    }
  }
  return error_.empty();
}

bool Bench::CheckAgainstInProcess() {
  ganswer::nlp::Lexicon lexicon;
  auto snapshot = ganswer::store::ReadSnapshotFile(Path("kb16.snap"), &lexicon);
  if (!snapshot.ok()) {
    Fail("snapshot load: " + snapshot.status().ToString());
    return false;
  }
  qa::GAnswer system(snapshot->graph.get(), &lexicon,
                     snapshot->dictionary.get(), ServingOptions(*snapshot, 0));

  // Every distinct question answered over the wire, with its answer list.
  std::vector<std::pair<uint32_t, std::string>> served(
      gold_signatures_.begin(), gold_signatures_.end());
  for (const PhaseResult* p : {&closed_, &open_}) {
    for (const auto& [item, sig] : p->answer_signature) {
      served.emplace_back(item, sig);
    }
  }
  std::vector<std::string> expected(served.size());
  ganswer::ThreadPool::Run(ganswer::AvailableCpus(), 0, served.size(),
                           [&](size_t i) {
                             auto r = system.Ask(texts_.answer[served[i].first]);
                             expected[i] = r.ok() ? ResponseSignature(*r)
                                                  : "error";
                           });
  for (size_t i = 0; i < served.size(); ++i) {
    if (expected[i] != served[i].second) {
      Fail("over-the-wire answers differ from GAnswer::Ask for: " +
           texts_.answer[served[i].first]);
      return false;
    }
  }

  rdf::SparqlEngine::Options engine_options;
  engine_options.stats = snapshot->stats.get();
  rdf::SparqlEngine engine(*snapshot->graph, engine_options);
  for (const PhaseResult* p : {&closed_, &open_}) {
    for (const auto& [item, body] : p->sparql_body) {
      auto q = rdf::SparqlParser::Parse(texts_.sparql[item]);
      auto r = q.ok() ? engine.Execute(*q)
                      : ganswer::StatusOr<rdf::SparqlResult>(q.status());
      Json json;
      if (!r.ok() || !ParseJson(body, &json) || json.Get("rows") == nullptr) {
        Fail("cannot check /sparql item " + std::to_string(item));
        return false;
      }
      std::vector<std::vector<std::string>> got, want;
      for (const Json& row : json.Get("rows")->array) {
        got.emplace_back();
        for (const Json& cell : row.array) got.back().push_back(cell.string);
      }
      for (const auto& row : r->rows) {
        want.emplace_back();
        for (rdf::TermId id : row) {
          want.back().emplace_back(snapshot->graph->dict().text(id));
        }
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      const Json* ask = json.Get("ask_result");
      if (got != want || ask == nullptr || ask->boolean != r->ask_result) {
        Fail("/sparql rows differ from SparqlEngine::Execute for: " +
             texts_.sparql[item]);
        return false;
      }
    }
  }
  return true;
}

void PrintJsonLine(bool correct, size_t attempted, size_t failed,
                   const std::vector<std::pair<std::string, std::pair<double,
                                                             std::string>>>&
                       metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Bench::Run() {
  std::string why;
  if (!MeasurableBuild(&why)) {
    std::fprintf(stderr, "qabench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  std::filesystem::create_directories(args_.work_dir);
  std::printf("env: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "nproc=%u available_cpus=%d cpuset=%s build=%s source=%s "
              "work_fs=%s\n",
              args_.spec->name, args_.seed, args_.seconds, args_.trace ? 1 : 0,
              std::thread::hardware_concurrency(), ganswer::AvailableCpus(),
              CpusetText().c_str(), QABENCH_BUILD_TYPE,
              args_.source_id.c_str(), FilesystemOf(args_.work_dir).c_str());
  if (std::thread::hardware_concurrency() < kServerWorkers + kConnections) {
    std::printf("warning: fewer CPUs than server workers + connections\n");
  }

  auto world = GenerateWorld();
  if (!world.ok()) {
    std::fprintf(stderr, "qabench: %s\n", world.status().ToString().c_str());
    return 1;
  }
  world_ = std::move(world).value();
  kb_triples_ = world_.kb.graph.NumTriples();
  for (const auto& q : world_.gold) texts_.answer.push_back(q.text);
  for (const auto& q : world_.cold_pool) texts_.answer.push_back(q.text);
  for (const std::string& q : texts_.answer) {
    bodies_.answer.push_back(JsonBody("question", q));
  }
  for (uint32_t i = 0; i < world_.gold.size() &&
                       hot_items_.size() < kHotQuestions;
       ++i) {
    if (!world_.gold[i].is_ask) hot_items_.push_back(i);
  }
  for (size_t k = 0; k < kUpdateBatches; ++k) {
    texts_.update.push_back(UpdateBatch(k, world_.touched_entities));
  }
  bodies_.update = texts_.update;
  if (args_.spec->workload != Workload::kSparqlBgp) {
    // The hot set and the first gold questions: page faults, allocator
    // growth and the hot cache entries happen here, not in the timed
    // phases. No cold-pool question is sent.
    for (uint32_t item : hot_items_) warmup_.push_back({Endpoint::kAnswer, item});
    for (uint32_t g = 0; g < world_.gold.size() && g < 2 * kHotQuestions; ++g) {
      warmup_.push_back({Endpoint::kAnswer, g});
    }
  }
  std::printf("kb: %zu triples, %zu gold questions, %zu cold-pool questions\n",
              kb_triples_, world_.gold.size(), world_.cold_pool.size());

  bool ok = SetUp();
  // Generator-side structures are dropped before memory is measured.
  world_.kb = {};
  world_.phrases.clear();
  world_.phrases.shrink_to_fit();
  malloc_trim(0);
  ok = ok && MeasureColdStarts();
  ok = ok && BuildStreams() && RunHttp();
  if (service_ != nullptr) service_->Shutdown();
  ok = ok && CheckAgainstInProcess();

  const size_t attempted = closed_.TotalAttempted() + open_.TotalAttempted();
  const size_t failed = closed_.TotalFailed() + open_.TotalFailed();
  const size_t primary = PrimaryEndpoint();
  const char* endpoint = primary == 1 ? "/sparql" : "/answer";
  Summary open_latency = Summarize(open_.latency_ms[primary]);
  Summary lateness = Summarize(open_.lateness_ms);
  std::vector<double> round_p50, round_p90;
  for (const Summary& r : round_latency_) {
    round_p50.push_back(r.p50);
    round_p90.push_back(r.At(90));
  }
  const double qps = Median(round_qps_);
  const double p50 = Median(round_p50);
  const double p90 = Median(round_p90);
  size_t right = 0;
  for (const auto& [g, sig] : gold_signatures_) {
    if (JudgedRight(world_.gold[g], sig)) ++right;
  }
  double gold_right_frac =
      gold_signatures_.empty()
          ? 0
          : static_cast<double>(right) / gold_signatures_.size();

  std::printf("closed loop: %d connections, %d rounds, %.2f s, %zu/%zu %s ok, "
              "median round %.1f req/s\n",
              kConnections, kRounds, closed_.wall_s, closed_.ok[primary],
              closed_.attempted[primary], endpoint, qps);
  std::printf("open loop: %.0f req/s offered, %zu/%zu %s ok, median round "
              "p50 %.3f ms p90 %.3f ms; pooled p50 %.3f ms, p%g %.3f ms "
              "(n=%zu); generator late p50 %.3f ms p%g %.3f ms max %.3f ms\n",
              args_.spec->open_rate, open_.ok[primary],
              open_.attempted[primary], endpoint, p50, p90, open_latency.p50,
              open_latency.tail_pct, open_latency.tail, open_latency.n,
              lateness.p50, lateness.tail_pct, lateness.tail,
              lateness.sorted.empty() ? 0.0 : lateness.sorted.back());
  for (size_t e = 0; e < kNumEndpoints; ++e) {
    size_t a = closed_.attempted[e] + open_.attempted[e];
    if (a == 0) continue;
    std::printf("endpoint %s: attempted %zu succeeded %zu failed %zu\n",
                e == 0 ? "/answer" : e == 1 ? "/sparql" : "/update", a,
                closed_.ok[e] + open_.ok[e], closed_.failed[e] + open_.failed[e]);
  }
  if (live()) {
    Summary update = Summarize(open_.latency_ms[2]);
    std::printf("update: %zu batches acked, open-loop commit p50 %.3f ms "
                "p%g %.3f ms (n=%zu)\n",
                closed_.updates_acked + open_.updates_acked, update.p50,
                update.tail_pct, update.tail, update.n);
  }
  std::printf("gold: %zu/%zu right; setup %.3f s; cold start %.2f ms; "
              "rss %.1f MB\n",
              right, gold_signatures_.size(), Median(setup_s_),
              Median(cold_start_ms_), rss_mb_);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  bool correct = ok && error_.empty();
  if (!args_.trace) {
    metrics = {
        {"setup_s", {Median(setup_s_), "s"}},
        {"cold_start_ms", {Median(cold_start_ms_), "ms"}},
        {"rss_mb", {rss_mb_, "MB"}},
        {"p50_ms", {p50, "ms"}},
        {"qps", {qps, "req/s"}},
        {"gold_right_frac", {gold_right_frac, "ratio"}},
    };
  } else if (correct) {
    ReplayInputs in;
    in.texts = &texts_;
    in.warmup = warmup_;
    in.stream = replay_stream_;
    for (const auto& q : world_.gold) in.overhead_questions.push_back(q.text);
    in.snapshot_path = Path("kb16.snap");
    in.live_dir = Path("live_replay");
    in.live = live();
    if (args_.spec->workload == Workload::kSparqlBgp) {
      in.lowering_questions = in.overhead_questions;
    }
    in.question_cache_capacity = kQuestionCache;
    in.compact_threshold = kCompactThreshold;
    std::string trace_path = Path(std::string("trace_") + args_.spec->name +
                                  "_" + std::to_string(args_.seed) + ".tsv");
    ReplayResult replay = RunTracedReplay(in, trace_path);
    if (!replay.error.empty()) {
      Fail("traced replay: " + replay.error);
      correct = false;
    }
    std::printf("trace: %zu replayed requests, spans in %s\n", replay.requests,
                trace_path.c_str());
    auto delta = [&](std::initializer_list<std::string_view> path) {
      return stats_after_.Num(path) - stats_before_.Num(path);
    };
    const char* ep = primary == 1 ? "/sparql" : "/answer";
    double handler_p50 = stats_after_.Num({"endpoints", ep, "p50_ms"});
    double hits = delta({"question_cache", "hits"});
    double misses = delta({"question_cache", "misses"});
    std::map<std::string, std::pair<double, std::string>> layer = {
        {"server.queue_wait_p50_ms",
         {stats_after_.Num({"queue_wait_ms", "p50"}), "ms"}},
        {"server.queue_wait_p99_ms",
         {stats_after_.Num({"queue_wait_ms", "p99"}), "ms"}},
        {"server.handler_p50_ms", {handler_p50, "ms"}},
        {"server.handler_mean_ms",
         {delta({"endpoints", ep, "total_ms"}) /
              std::max(1.0, delta({"endpoints", ep, "requests"})),
          "ms"}},
        {"server.transport_p50_ms", {open_latency.p50 - handler_p50, "ms"}},
        {"e2e.p90_ms", {p90, "ms"}},
        {"e2e.p99_ms", {open_latency.At(99), "ms"}},
        {"server.fast_path_hits", {delta({"fast_path_hits"}), "count"}},
        {"server.shed", {delta({"rejected"}), "count"}},
        {"server.cache_hit_ratio",
         {hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"}},
        {"store.snapshot_write_ms", {Median(write_ms_), "ms"}},
        {"store.snapshot_bytes",
         {static_cast<double>(snapshot_build_.snapshot_bytes), "bytes"}},
        {"paraphrase.mine_ms", {Median(mine_ms_), "ms"}},
        {"paraphrase.entries",
         {static_cast<double>(snapshot_build_.dictionary_entries), "count"}},
    };
    for (const auto& [name, value] : replay.metrics) {
      std::string unit = "count";
      auto ends = [&](const char* suffix) {
        return name.size() > std::strlen(suffix) &&
               name.compare(name.size() - std::strlen(suffix),
                            std::string::npos, suffix) == 0;
      };
      if (ends("_us")) unit = "us";
      if (ends("_ms")) unit = "ms";
      if (ends("_pct")) unit = "%";
      if (ends("_ratio") || ends("per_row")) unit = "ratio";
      if (ends("per_batch")) unit = "bytes";
      layer[name] = {value, unit};
    }
    for (auto& [name, value] : layer) metrics.push_back({name, value});
  }
  std::filesystem::remove_all(Path("live"));
  if (!correct) {
    std::fprintf(stderr, "qabench: correctness gate FAILED: %s\n",
                 error_.c_str());
  }
  PrintJsonLine(correct, std::max<size_t>(attempted, 1), failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qabench

int main(int argc, char** argv) {
  qabench::Args args;
  if (!qabench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <cold_answer|hot_answer|sparql_bgp|"
                 "live_mixed> --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--source-id ID]\n",
                 argv[0]);
    return 2;
  }
  return qabench::Bench(std::move(args)).Run();
}
