#include "load.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "json.h"
#include "server/http_client.h"

namespace qabench {

namespace {

using Clock = std::chrono::steady_clock;

const char* const kPaths[kNumEndpoints] = {"/answer", "/sparql", "/update"};

double MillisSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One connection's view of the phase.
class Connection {
 public:
  Connection(const LoadOptions& options, const Bodies& bodies)
      : options_(options), bodies_(bodies) {
    if (!client_.Connect("127.0.0.1", options.port).ok()) {
      result_.error = "cannot connect to the service";
    }
  }

  /// Sends \p request; latency is timed from \p due.
  void Send(const Request& request, Clock::time_point due) {
    size_t e = static_cast<size_t>(request.endpoint);
    ++result_.attempted[e];
    const std::vector<std::string>& table =
        request.endpoint == Endpoint::kAnswer
            ? bodies_.answer
            : request.endpoint == Endpoint::kSparql ? bodies_.sparql
                                                    : bodies_.update;
    auto response = client_.Post(kPaths[e], table[request.item],
                                 request.endpoint == Endpoint::kUpdate
                                     ? "application/n-triples"
                                     : "application/json");
    Clock::time_point done = Clock::now();
    if (!response.ok() || response->status != 200) {
      ++result_.failed[e];
      if (result_.error.empty() && response.ok() && response->status != 503) {
        result_.error = std::string(kPaths[e]) + " answered " +
                        std::to_string(response->status) + ": " +
                        response->body.substr(0, 200);
      }
      return;
    }
    ++result_.ok[e];
    result_.latency_ms[e].push_back(MillisSince(due, done));
    Check(request, response->body);
  }

  PhaseResult& result() { return result_; }

 private:
  void Check(const Request& request, const std::string& body) {
    switch (request.endpoint) {
      case Endpoint::kAnswer: {
        if (!options_.check_answers) return;
        std::string signature;
        if (!AnswerSignature(body, &signature)) {
          Fail("unparseable /answer body");
          return;
        }
        auto [it, inserted] =
            result_.answer_signature.emplace(request.item, signature);
        if (!inserted && it->second != signature) {
          Fail("/answer item " + std::to_string(request.item) +
               " answered differently across requests");
        }
        return;
      }
      case Endpoint::kSparql: {
        size_t hash = std::hash<std::string>{}(body);
        auto [it, inserted] = sparql_hash_.emplace(request.item, hash);
        if (inserted) {
          result_.sparql_body.emplace(request.item, body);
        } else if (it->second != hash) {
          Fail("/sparql item " + std::to_string(request.item) +
               " answered differently across requests");
        }
        return;
      }
      case Endpoint::kUpdate: {
        Json json;
        if (!ParseJson(body, &json) || json.Get("epoch") == nullptr) {
          Fail("unparseable /update body");
          return;
        }
        ++result_.updates_acked;
        uint64_t epoch = static_cast<uint64_t>(json.Num({"epoch"}));
        if (epoch > result_.max_epoch) {
          result_.max_epoch = epoch;
          result_.max_epoch_item = request.item;
        }
        return;
      }
    }
  }

  void Fail(std::string message) {
    if (result_.error.empty()) result_.error = std::move(message);
  }

  const LoadOptions& options_;
  const Bodies& bodies_;
  ganswer::server::BlockingHttpClient client_;
  PhaseResult result_;
  std::map<uint32_t, size_t> sparql_hash_;
};

PhaseResult Merge(std::vector<PhaseResult> parts, double wall_s) {
  PhaseResult out;
  for (PhaseResult& p : parts) out.MergeFrom(std::move(p));
  out.wall_s = wall_s;
  return out;
}

}  // namespace

size_t PhaseResult::TotalAttempted() const {
  return attempted[0] + attempted[1] + attempted[2];
}

size_t PhaseResult::TotalFailed() const {
  return failed[0] + failed[1] + failed[2];
}

void PhaseResult::MergeFrom(PhaseResult other) {
  for (size_t e = 0; e < kNumEndpoints; ++e) {
    latency_ms[e].insert(latency_ms[e].end(), other.latency_ms[e].begin(),
                         other.latency_ms[e].end());
    attempted[e] += other.attempted[e];
    ok[e] += other.ok[e];
    failed[e] += other.failed[e];
  }
  lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                     other.lateness_ms.end());
  wall_s += other.wall_s;
  updates_acked += other.updates_acked;
  if (other.max_epoch > max_epoch) {
    max_epoch = other.max_epoch;
    max_epoch_item = other.max_epoch_item;
  }
  if (error.empty()) error = std::move(other.error);
  for (auto& [item, signature] : other.answer_signature) {
    auto [it, inserted] = answer_signature.emplace(item, signature);
    if (!inserted && it->second != signature && error.empty()) {
      error = "/answer item " + std::to_string(item) +
              " answered differently across connections";
    }
  }
  for (auto& [item, body] : other.sparql_body) {
    auto it = sparql_body.find(item);
    if (it == sparql_body.end()) {
      sparql_body.emplace(item, std::move(body));
    } else if (it->second != body && error.empty()) {
      error = "/sparql item " + std::to_string(item) +
              " answered differently across connections";
    }
  }
}

bool AnswerSignature(const std::string& body, std::string* signature) {
  Json json;
  if (!ParseJson(body, &json)) return false;
  const Json* answers = json.Get("answers");
  const Json* is_ask = json.Get("is_ask");
  if (answers == nullptr || answers->type != Json::Type::kArray ||
      is_ask == nullptr) {
    return false;
  }
  signature->clear();
  if (is_ask->boolean) {
    const Json* result = json.Get("ask_result");
    *signature = result != nullptr && result->boolean ? "ask:true" : "ask:false";
  }
  for (const Json& a : answers->array) {
    const Json* text = a.Get("text");
    if (text == nullptr) return false;
    *signature += '\x1f';
    *signature += text->string;
  }
  return true;
}

PhaseResult RunClosedLoop(const LoadOptions& options, const Bodies& bodies,
                          std::span<const Request> stream, double seconds,
                          const std::vector<int64_t>& update_offsets_us,
                          uint32_t first_update_item) {
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> next_update{0};
  std::vector<PhaseResult> parts(static_cast<size_t>(options.connections));
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      Connection conn(options, bodies);
      if (conn.result().error.empty()) {
        while (true) {
          Clock::time_point now = Clock::now();
          if (now >= deadline) break;
          size_t k = next_update.load();
          if (k < update_offsets_us.size() &&
              now >= start + std::chrono::microseconds(update_offsets_us[k]) &&
              next_update.compare_exchange_strong(k, k + 1)) {
            conn.Send({Endpoint::kUpdate,
                       static_cast<uint32_t>(first_update_item + k)},
                      now);
            continue;
          }
          size_t i = cursor.fetch_add(1);
          if (i >= stream.size()) break;
          conn.Send(stream[i], now);
        }
      }
      parts[static_cast<size_t>(c)] = std::move(conn.result());
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(std::move(parts), MillisSince(start, Clock::now()) / 1000.0);
}

PhaseResult RunOpenLoop(const LoadOptions& options, const Bodies& bodies,
                        std::span<const Request> stream,
                        const std::vector<int64_t>& send_us) {
  std::atomic<size_t> cursor{0};
  std::vector<PhaseResult> parts(static_cast<size_t>(options.connections));
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      Connection conn(options, bodies);
      if (conn.result().error.empty()) {
        while (true) {
          size_t i = cursor.fetch_add(1);
          if (i >= stream.size()) break;
          Clock::time_point due = start + std::chrono::microseconds(send_us[i]);
          std::this_thread::sleep_until(due);  // no-op when running late
          conn.result().lateness_ms.push_back(MillisSince(due, Clock::now()));
          conn.Send(stream[i], due);
        }
      }
      parts[static_cast<size_t>(c)] = std::move(conn.result());
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(std::move(parts), MillisSince(start, Clock::now()) / 1000.0);
}

}  // namespace qabench
