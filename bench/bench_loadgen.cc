// Open-loop, Zipf-skewed load harness: the tail-latency program's
// measurement layer.
//
// A closed-loop client (this harness's own calibration phase) waits for
// each response before sending the next request, so when the server slows
// down the offered load politely slows down with it and queueing delay never shows
// up in the numbers (coordinated omission). This harness measures what a
// population of independent users would see:
//
//   * Arrivals are OPEN-LOOP: a Poisson schedule is precomputed from a
//     seed (exponential inter-arrival gaps at the offered rate) and
//     requests are issued at their scheduled times whether or not earlier
//     responses have come back.
//   * Latency is measured from the SCHEDULED arrival time, not from the
//     moment a sender thread got around to writing the bytes — if the
//     harness falls behind because the server is slow, that wait is
//     counted, which is exactly the coordinated-omission fix.
//   * Question popularity is Zipf(s) over the workload (common/zipf.h):
//     a hot head that the question cache absorbs and a cold tail that
//     costs full matcher runs, plus raw-SPARQL, streaming POST /update
//     batches (the services run in live mode) and malformed requests —
//     the traffic mix a public endpoint actually sees. Update points
//     carry delta-size and epoch-age fields in their BENCH_JSON lines.
//   * Recording is common/latency_histogram.h: bounded memory per sender
//     thread, merged at the end, p50/p95/p99/p99.9 with bounded error.
//
// The sweep drives offered load from well below to well past the knee for
// two service configurations over the same schedules:
//
//   baseline  pure queue-length shedding (PR 4 behavior): every request
//             rides the admission queue, no deadlines.
//   tuned     cached fast path on (hits answered on the event loop) +
//             deadline shedding at dequeue.
//
// and emits one BENCH_JSON line per (config, offered-load) point, plus a
// summary line comparing admitted-request p99 past the knee and verifying
// fast-path answers are byte-identical to the worker-pool path.
//
// Run: ./build/bench/bench_loadgen [--smoke] [--duration-s S] [--seed N]
//   --smoke: CI mode — one low offered-load point, asserts zero sheds and
//            zero transport errors (exit 1 otherwise).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "common/latency_histogram.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "server/http_client.h"
#include "server/qa_service.h"
#include "store/snapshot.h"

using namespace ganswer;

namespace {

// More virtual clients than the service's max_queue, so overload actually
// reaches the server's admission queue instead of piling up only in the
// harness's own send backlog (which would leave the shed paths untested).
constexpr int kSenderThreads = 96;
constexpr double kZipfSkew = 1.1;
constexpr size_t kHotQuestions = 32;

enum class TrafficClass { kHot, kUncached, kSparql, kUpdate, kMalformed };

struct Arrival {
  int64_t t_us = 0;  ///< Scheduled offset from the run start.
  TrafficClass cls = TrafficClass::kHot;
  size_t index = 0;  ///< Question rank (hot), variant id (uncached), ...
};

/// The workload a sweep runs against: hot questions under Zipf popularity,
/// plus a SPARQL probe query derived from the generated graph.
struct Workload {
  std::vector<std::string> hot;
  std::string sparql;
};

/// One sender thread's tallies; merged across the pool after the run.
struct Tally {
  LatencyHistogram answer_latency;  ///< 200s of hot + uncached, from
                                    ///< scheduled arrival time.
  size_t ok = 0;
  size_t sparql_ok = 0;
  size_t updates_ok = 0;
  size_t malformed_400 = 0;
  size_t shed_queue_full = 0;
  size_t shed_deadline = 0;
  size_t errors = 0;
  int64_t last_update_us = -1;  ///< Completion time of the latest commit.
  uint64_t last_epoch = 0;      ///< Highest epoch acked to this sender.

  void MergeFrom(const Tally& other) {
    answer_latency.Merge(other.answer_latency);
    ok += other.ok;
    sparql_ok += other.sparql_ok;
    updates_ok += other.updates_ok;
    malformed_400 += other.malformed_400;
    shed_queue_full += other.shed_queue_full;
    shed_deadline += other.shed_deadline;
    errors += other.errors;
    last_update_us = std::max(last_update_us, other.last_update_us);
    last_epoch = std::max(last_epoch, other.last_epoch);
  }
};

struct PointResult {
  double offered_qps = 0;
  double achieved_qps = 0;  ///< All completed responses over the wall time.
  double served_qps = 0;    ///< 200 answers over the wall time.
  double wall_s = 0;
  size_t scheduled = 0;
  Tally tally;
};

Workload BuildWorkload(const bench::BenchWorld& world) {
  Workload w;
  for (const auto& gold : world.workload) {
    if (!gold.is_ask) w.hot.push_back(gold.text);
    if (w.hot.size() >= kHotQuestions) break;
  }
  if (w.hot.empty()) w.hot.push_back("Who is the mayor of Berlin ?");
  // A SPARQL probe built from the first materialized edge, so it parses
  // and plans against whatever KB the generator produced.
  const rdf::RdfGraph& graph = world.kb.graph;
  for (rdf::TermId v = 0; v < graph.NumTerms() && w.sparql.empty(); ++v) {
    auto edges = graph.OutEdges(v);
    if (edges.empty()) continue;
    w.sparql = "SELECT ?s WHERE { ?s <" +
               std::string(graph.dict().text(edges.front().predicate)) +
               "> <" +
               std::string(graph.dict().text(edges.front().neighbor)) +
               "> }";
  }
  if (w.sparql.empty()) w.sparql = "ASK WHERE { }";
  return w;
}

/// Precomputes the open-loop schedule: Poisson arrivals at \p offered_qps
/// for \p duration_s, each tagged with a traffic class and question index.
/// Pure function of the seed — both service configs replay the identical
/// byte stream.
std::vector<Arrival> BuildSchedule(double offered_qps, double duration_s,
                                   size_t hot_count, uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(hot_count, kZipfSkew, seed ^ 0x5eed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(offered_qps * duration_s * 1.1) + 16);
  double t_us = 0;
  const double horizon_us = duration_s * 1e6;
  size_t uncached_counter = 0;
  size_t update_counter = 0;
  while (true) {
    // Exponential gap; 1 - u keeps log() away from 0.
    double u = rng.NextDouble();
    t_us += -std::log(1.0 - u) / offered_qps * 1e6;
    if (t_us >= horizon_us) break;
    Arrival a;
    a.t_us = static_cast<int64_t>(t_us);
    double cls = rng.NextDouble();
    if (cls < 0.78) {
      a.cls = TrafficClass::kHot;
      a.index = zipf.Next();
    } else if (cls < 0.88) {
      a.cls = TrafficClass::kUncached;
      a.index = uncached_counter++;
    } else if (cls < 0.93) {
      a.cls = TrafficClass::kSparql;
    } else if (cls < 0.96) {
      a.cls = TrafficClass::kUpdate;
      a.index = update_counter++;
    } else {
      a.cls = TrafficClass::kMalformed;
    }
    schedule.push_back(a);
  }
  return schedule;
}

/// Issues \p schedule open-loop against the service and returns merged
/// tallies. kSenderThreads virtual clients pull arrivals off a shared
/// cursor; an arrival whose time has passed is sent immediately and its
/// lateness counts against the measured latency (scheduled-time
/// recording).
PointResult RunOpenLoop(int port, const Workload& workload,
                        const std::vector<Arrival>& schedule,
                        int deadline_ms) {
  std::vector<Tally> tallies(kSenderThreads);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> senders;
  WallTimer wall;
  auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < kSenderThreads; ++s) {
    senders.emplace_back([&, s] {
      Tally& mine = tallies[static_cast<size_t>(s)];
      server::BlockingHttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        ++mine.errors;
        return;
      }
      while (true) {
        size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= schedule.size()) break;
        const Arrival& a = schedule[i];
        auto scheduled = start + std::chrono::microseconds(a.t_us);
        std::this_thread::sleep_until(scheduled);  // no-op when behind
        // In deadline mode the virtual user's patience started at the
        // SCHEDULED arrival, so the budget forwarded to the server is
        // whatever is left after the harness's own send backlog — a
        // request that is already hopeless at send time arrives with a
        // ~spent budget and is shed at dequeue instead of being served
        // stale. The header floor is 1 ms (the server's minimum).
        std::vector<std::pair<std::string, std::string>> headers;
        if (deadline_ms > 0) {
          int64_t late_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - scheduled)
                  .count();
          int64_t remaining = deadline_ms - late_ms;
          headers.emplace_back(
              "X-Deadline-Ms",
              std::to_string(remaining > 1 ? remaining : 1));
        }
        StatusOr<server::ClientResponse> response =
            Status::Internal("unsent");
        switch (a.cls) {
          case TrafficClass::kHot:
            response = client.Post(
                "/answer",
                "{\"question\": \"" + workload.hot[a.index] + "\"}",
                "application/json", headers);
            break;
          case TrafficClass::kUncached:
            response = client.Post(
                "/answer", "{\"question\": \"" +
                               workload.hot[a.index % workload.hot.size()] +
                               " variant " + std::to_string(a.index) +
                               "\"}",
                "application/json", headers);
            break;
          case TrafficClass::kSparql:
            response =
                client.Post("/sparql",
                            "{\"query\": \"" + workload.sparql + "\"}",
                            "application/json", headers);
            break;
          case TrafficClass::kUpdate:
            // Streaming writes share the admission queue with queries, so
            // they see the same shed paths under overload.
            response = client.Post(
                "/update",
                "<load_u" + std::to_string(a.index) + "> <touches> <load_v" +
                    std::to_string(a.index % 256) + "> .\n",
                "application/json", headers);
            break;
          case TrafficClass::kMalformed:
            response = client.Post("/answer", "");
            break;
        }
        int64_t done_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!response.ok()) {
          ++mine.errors;
          continue;
        }
        int64_t latency_us = done_us - a.t_us;
        if (latency_us < 0) latency_us = 0;
        if (response->status == 200) {
          if (a.cls == TrafficClass::kSparql) {
            ++mine.sparql_ok;
          } else if (a.cls == TrafficClass::kUpdate) {
            ++mine.updates_ok;
            mine.last_update_us = std::max(mine.last_update_us, done_us);
            size_t at = response->body.find("\"epoch\":");
            if (at != std::string::npos) {
              mine.last_epoch = std::max(
                  mine.last_epoch,
                  static_cast<uint64_t>(
                      std::atoll(response->body.c_str() + at + 8)));
            }
          } else {
            ++mine.ok;
            mine.answer_latency.Record(static_cast<uint64_t>(latency_us));
          }
        } else if (response->status == 503) {
          if (response->body.find("deadline_expired") != std::string::npos) {
            ++mine.shed_deadline;
          } else {
            ++mine.shed_queue_full;
          }
        } else if (response->status == 400 &&
                   a.cls == TrafficClass::kMalformed) {
          ++mine.malformed_400;
        } else {
          ++mine.errors;
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  PointResult result;
  result.wall_s = wall.ElapsedSeconds();
  result.scheduled = schedule.size();
  for (const Tally& t : tallies) result.tally.MergeFrom(t);
  size_t completed = result.tally.ok + result.tally.sparql_ok +
                     result.tally.updates_ok + result.tally.malformed_400 +
                     result.tally.shed_queue_full +
                     result.tally.shed_deadline;
  result.achieved_qps =
      result.wall_s > 0 ? static_cast<double>(completed) / result.wall_s : 0;
  result.served_qps =
      result.wall_s > 0 ? static_cast<double>(result.tally.ok) / result.wall_s
                        : 0;
  return result;
}

/// Primes the question cache with one pass over the hot set so the sweep
/// measures steady-state serving, not cold-start fills.
void WarmCache(int port, const Workload& workload) {
  server::BlockingHttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return;
  for (const std::string& q : workload.hot) {
    auto r = client.Post("/answer", "{\"question\": \"" + q + "\"}");
    (void)r;
  }
}

/// Closed-loop calibration against the baseline config: the sustained QPS
/// of the warmed traffic mix, which anchors the sweep's offered-load
/// multipliers around the knee.
double CalibrateQps(int port, const Workload& workload, uint64_t seed) {
  // A dense schedule issued closed-loop (senders never sleep because every
  // arrival time is 0) approximates the service's saturation throughput.
  std::vector<Arrival> burst =
      BuildSchedule(/*offered_qps=*/1e9, /*duration_s=*/4e-7,
                    workload.hot.size(), seed);
  // 1e9 qps * 4e-7 s ≈ 400 arrivals, all scheduled at t≈0.
  PointResult r = RunOpenLoop(port, workload, burst, /*deadline_ms=*/0);
  double qps = r.achieved_qps;
  return qps > 1 ? qps : 1;
}

struct ServiceConfig {
  const char* name;
  bool fast_path;
  int deadline_ms;
};

server::QaService::Options MakeOptions(const std::string& snapshot_path,
                                       const ServiceConfig& config) {
  server::QaService::Options options;
  options.snapshot_path = snapshot_path;
  // Live mode for every config: the mix carries streaming /update traffic,
  // so the sweep measures the serving tier the way it actually runs. The
  // store directory is wiped before each boot so every point starts at
  // epoch 0 with an empty delta.
  options.live_dir = std::string("bench_loadgen_live_") + config.name;
  std::filesystem::remove_all(options.live_dir);
  options.port = 0;
  options.threads = 2;
  options.max_queue = 64;  // the serving default — PR 4's only backstop
  options.question_cache_capacity = 4096;
  options.cached_fast_path = config.fast_path;
  options.deadline_ms = config.deadline_ms;
  return options;
}

/// Crude numeric field scrape from a /stats or /update JSON body.
int64_t JsonNumber(const std::string& body, const std::string& key) {
  size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + key.size() + 3);
}

/// Fast-path answers must be byte-identical to worker-pool answers for the
/// same cache entry; X-No-Fast-Path forces the worker path on a service
/// that has the fast path on, so both bodies come from one cache state.
bool VerifyByteIdentity(const std::string& snapshot_path,
                        const Workload& workload) {
  ServiceConfig config{"tuned", /*fast_path=*/true, /*deadline_ms=*/0};
  server::QaService service(MakeOptions(snapshot_path, config));
  if (!service.Start().ok()) return false;
  server::BlockingHttpClient client;
  if (!client.Connect("127.0.0.1", service.port()).ok()) return false;
  bool identical = true;
  size_t checked = 0;
  for (size_t i = 0; i < workload.hot.size() && i < 8; ++i) {
    std::string body = "{\"question\": \"" + workload.hot[i] + "\"}";
    auto warm = client.Post("/answer", body);  // miss -> worker path, fills
    auto fast = client.Post("/answer", body);  // hit -> event-loop path
    auto slow = client.Post("/answer", body, "application/json",
                            {{"X-No-Fast-Path", "1"}});  // hit -> worker
    if (!warm.ok() || !fast.ok() || !slow.ok() || warm->status != 200 ||
        fast->status != 200 || slow->status != 200) {
      identical = false;
      break;
    }
    if (fast->body.find("\"cache_hit\":true") == std::string::npos ||
        fast->body != slow->body) {
      std::fprintf(stderr,
                   "byte identity FAILED for %s\n fast: %s\n slow: %s\n",
                   workload.hot[i].c_str(), fast->body.c_str(),
                   slow->body.c_str());
      identical = false;
      break;
    }
    ++checked;
  }
  service.Shutdown();
  std::printf("byte identity: %zu fast-path answers %s their worker-pool "
              "twins\n",
              checked, identical ? "identical to" : "DIVERGED from");
  return identical && checked > 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double duration_s = 2.5;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--duration-s S] [--seed N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) duration_s = std::min(duration_s, 1.0);

  bench::Header("Open-loop Zipf load harness: latency vs offered load");

  bench::BenchWorld world = bench::BuildWorld();
  const std::string snapshot_path = "bench_loadgen.snap";
  if (Status st = store::WriteSnapshotFile(world.kb.graph, *world.verified,
                                           snapshot_path);
      !st.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  Workload workload = BuildWorkload(world);

  if (!VerifyByteIdentity(snapshot_path, workload)) {
    std::remove(snapshot_path.c_str());
    return 1;
  }

  // Calibrate the knee's neighborhood on the baseline config.
  double base_qps;
  {
    ServiceConfig baseline{"baseline", false, 0};
    server::QaService service(MakeOptions(snapshot_path, baseline));
    if (!service.Start().ok()) return 1;
    WarmCache(service.port(), workload);
    base_qps = CalibrateQps(service.port(), workload, seed);
    service.Shutdown();
  }
  std::printf("calibrated closed-loop capacity (baseline config): %.0f "
              "qps\n\n",
              base_qps);

  std::vector<double> multipliers =
      smoke ? std::vector<double>{0.25}
            : std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.5, 2.5};
  const ServiceConfig configs[] = {
      {"baseline", /*fast_path=*/false, /*deadline_ms=*/0},
      {"tuned", /*fast_path=*/true,
       /*deadline_ms=*/std::max(25, static_cast<int>(4000.0 / base_qps *
                                                     32))},
  };

  std::printf("%-9s %10s %10s %10s %9s %9s %9s %10s %7s %7s\n", "config",
              "offered", "achieved", "served", "p50_ms", "p95_ms", "p99_ms",
              "p99.9_ms", "shed_q", "shed_dl");

  // results[config][point]
  std::vector<std::vector<PointResult>> results(2);
  size_t total_sheds = 0;
  size_t total_errors = 0;
  for (size_t c = 0; c < 2; ++c) {
    const ServiceConfig& config = configs[c];
    for (size_t p = 0; p < multipliers.size(); ++p) {
      double offered = base_qps * multipliers[p];
      // Identical schedule for both configs at the same point: the seed
      // depends only on the sweep position.
      std::vector<Arrival> schedule = BuildSchedule(
          offered, duration_s, workload.hot.size(), seed + 1000 * p);

      server::QaService service(MakeOptions(snapshot_path, config));
      if (Status st = service.Start(); !st.ok()) {
        std::fprintf(stderr, "startup failed: %s\n", st.ToString().c_str());
        return 1;
      }
      WarmCache(service.port(), workload);
      PointResult result = RunOpenLoop(service.port(), workload, schedule,
                                       config.deadline_ms);
      result.offered_qps = offered;
      // The accumulated delta at the end of the point, from /stats.
      int64_t delta_triples = -1;
      {
        server::BlockingHttpClient stats_client;
        if (stats_client.Connect("127.0.0.1", service.port()).ok()) {
          if (auto stats = stats_client.Get("/stats"); stats.ok()) {
            delta_triples = JsonNumber(stats->body, "delta_triples");
          }
        }
      }
      service.Shutdown();

      const Tally& t = result.tally;
      std::printf("%-9s %10.0f %10.0f %10.0f %9.2f %9.2f %9.2f %10.2f "
                  "%7zu %7zu\n",
                  config.name, offered, result.achieved_qps,
                  result.served_qps, t.answer_latency.QuantileMillis(0.50),
                  t.answer_latency.QuantileMillis(0.95),
                  t.answer_latency.QuantileMillis(0.99),
                  t.answer_latency.QuantileMillis(0.999), t.shed_queue_full,
                  t.shed_deadline);
      bench::JsonLine("loadgen")
          .Field("closed_loop", false)
          .Field("config", config.name)
          .Field("fast_path", config.fast_path)
          .Field("deadline_ms", config.deadline_ms)
          .Field("seed", seed)
          .Field("zipf_skew", kZipfSkew)
          .Field("hot_questions", workload.hot.size())
          .Field("duration_s", duration_s)
          .Field("offered_qps", offered)
          .Field("achieved_qps", result.achieved_qps)
          .Field("served_qps", result.served_qps)
          .Field("scheduled", result.scheduled)
          .Field("answers_ok", t.ok)
          .Field("sparql_ok", t.sparql_ok)
          .Field("updates_ok", t.updates_ok)
          .Field("final_epoch", t.last_epoch)
          .Field("delta_triples", delta_triples >= 0
                                      ? static_cast<size_t>(delta_triples)
                                      : size_t{0})
          // How stale the newest epoch was when the point ended: the gap
          // between the last acked commit and the end of the measurement
          // window (-1 when the point carried no committed updates).
          .Field("epoch_age_ms",
                 t.last_update_us >= 0
                     ? (result.wall_s * 1e3 -
                        static_cast<double>(t.last_update_us) / 1e3)
                     : -1.0)
          .Field("malformed_400", t.malformed_400)
          .Field("shed_queue_full", t.shed_queue_full)
          .Field("shed_deadline", t.shed_deadline)
          .Field("errors", t.errors)
          .Field("p50_ms", t.answer_latency.QuantileMillis(0.50))
          .Field("p95_ms", t.answer_latency.QuantileMillis(0.95))
          .Field("p99_ms", t.answer_latency.QuantileMillis(0.99))
          .Field("p99_9_ms", t.answer_latency.QuantileMillis(0.999))
          .Field("hardware_threads",
                 static_cast<int>(std::thread::hardware_concurrency()))
          .Emit();
      results[c].push_back(result);
      total_sheds += t.shed_queue_full + t.shed_deadline;
      total_errors += t.errors;
    }
    std::printf("\n");
  }
  std::remove(snapshot_path.c_str());
  std::filesystem::remove_all("bench_loadgen_live_baseline");
  std::filesystem::remove_all("bench_loadgen_live_tuned");

  if (smoke) {
    // CI contract: at 0.25x capacity nothing may be shed and the transport
    // must be clean; the curve point lines above are the artifact.
    std::printf("smoke: %zu sheds, %zu errors at 0.25x capacity\n",
                total_sheds, total_errors);
    if (total_sheds != 0 || total_errors != 0) {
      std::fprintf(stderr, "SMOKE FAILED: expected zero sheds/errors\n");
      return 1;
    }
    return 0;
  }

  // Knee: the first baseline point where admitted-request p99 blows past
  // the uncongested point or throughput stops tracking the offered load.
  const std::vector<PointResult>& baseline = results[0];
  const std::vector<PointResult>& tuned = results[1];
  double base_p99_0 = baseline[0].tally.answer_latency.QuantileMillis(0.99);
  size_t knee = multipliers.size() - 1;
  for (size_t p = 0; p < multipliers.size(); ++p) {
    double p99 = baseline[p].tally.answer_latency.QuantileMillis(0.99);
    if (p99 > 3 * base_p99_0 ||
        baseline[p].achieved_qps < 0.9 * baseline[p].offered_qps) {
      knee = p;
      break;
    }
  }
  size_t last = multipliers.size() - 1;
  double baseline_p99 =
      baseline[last].tally.answer_latency.QuantileMillis(0.99);
  double tuned_p99 = tuned[last].tally.answer_latency.QuantileMillis(0.99);
  bool tuned_better = tuned_p99 < baseline_p99;
  std::printf("knee at ~%.0f offered qps (point %zu); past-knee p99: "
              "baseline %.2f ms vs tuned %.2f ms (%s)\n",
              baseline[knee].offered_qps, knee, baseline_p99, tuned_p99,
              tuned_better ? "tuned wins" : "NO IMPROVEMENT");
  bench::JsonLine("loadgen_summary")
      .Field("knee_offered_qps", baseline[knee].offered_qps)
      .Field("knee_point", knee)
      .Field("overload_offered_qps", baseline[last].offered_qps)
      .Field("baseline_p99_ms", baseline_p99)
      .Field("tuned_p99_ms", tuned_p99)
      .Field("tuned_p99_better", tuned_better)
      .Field("byte_identical", true)
      .Emit();
  return 0;
}
