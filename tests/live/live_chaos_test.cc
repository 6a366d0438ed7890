// Reader/writer chaos for the live store: several reader threads hammer
// view() and query their pinned views while the writer thread commits
// batches and compactions concurrently. Run under TSAN this proves the
// epoch-swap protocol is race-free; in any build it proves readers never
// observe a half-applied batch (every invariant below is per-view, so a
// torn publish would trip it).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "rdf/sparql_engine.h"
#include "store/live/live_kb.h"
#include "store/snapshot.h"

namespace ganswer {
namespace store {
namespace live {
namespace {

using rdf::TermKind;
using rdf::UpdateOp;

constexpr int kReaders = 4;
constexpr int kBatches = 150;

TEST(LiveChaosTest, ReadersNeverBlockAndNeverSeeTornState) {
  std::string dir = "live_chaos." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  nlp::Lexicon lexicon;
  {
    rdf::RdfGraph graph;
    for (int i = 0; i < 10; ++i) {
      graph.AddTriple("v" + std::to_string(i), "knows",
                      "v" + std::to_string((i + 1) % 10));
    }
    ASSERT_TRUE(graph.Finalize().ok());
    paraphrase::ParaphraseDictionary dict(&lexicon);
    ASSERT_TRUE(WriteSnapshotFile(graph, dict, dir + "/base.snap").ok());
  }

  LiveKb::Options options;
  options.dir = dir + "/store";
  options.base_snapshot = dir + "/base.snap";
  options.lexicon = &lexicon;
  // Background compaction with a low threshold: compactions race the
  // readers and the writer throughout the test.
  options.background_compaction = true;
  options.compact_threshold = 40;
  auto kb = LiveKb::Open(std::move(options));
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();

  // Readers report failures through this, never via gtest from a thread.
  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto report = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(errors_mu);
    if (errors.size() < 10) errors.push_back(message);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const KbView> view = (*kb)->view();
        const rdf::RdfGraph& g = view->graph();

        // Epochs are published in order: a thread can never observe them
        // going backwards.
        if (view->epoch() < last_epoch) {
          report("reader " + std::to_string(t) + " saw epoch " +
                 std::to_string(view->epoch()) + " after " +
                 std::to_string(last_epoch));
          break;
        }
        last_epoch = view->epoch();

        // Within one view the graph is internally consistent: the edge
        // lists sum to the advertised triple count and every endpoint is a
        // valid dictionary id. A torn publish would break this.
        size_t scanned = 0;
        bool ok = true;
        for (rdf::TermId v = 0; v < g.dict().size() && ok; ++v) {
          for (const rdf::Edge& e : g.OutEdges(v)) {
            ++scanned;
            if (e.neighbor >= g.dict().size() ||
                e.predicate >= g.dict().size()) {
              report("reader " + std::to_string(t) +
                     " saw out-of-range edge at epoch " +
                     std::to_string(view->epoch()));
              ok = false;
              break;
            }
          }
        }
        if (!ok) break;
        if (scanned != g.NumTriples()) {
          report("reader " + std::to_string(t) + " scanned " +
                 std::to_string(scanned) + " edges but NumTriples says " +
                 std::to_string(g.NumTriples()) + " at epoch " +
                 std::to_string(view->epoch()));
          break;
        }

        // And the view's SPARQL engine answers over exactly that state.
        auto result =
            view->sparql().ExecuteText("SELECT ?x WHERE { ?x <knows> ?y }");
        if (!result.ok()) {
          report("reader " + std::to_string(t) +
                 " sparql error: " + result.status().ToString());
          break;
        }
        if (result->rows.size() > g.NumTriples()) {
          report("reader " + std::to_string(t) + " got " +
                 std::to_string(result->rows.size()) + " rows from " +
                 std::to_string(g.NumTriples()) + " triples");
          break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The writer: random-ish but deterministic churn — adds, deletes,
  // occasional explicit compaction on top of the threshold-armed background
  // ones.
  uint64_t committed = 0;
  for (int i = 0; i < kBatches; ++i) {
    std::vector<UpdateOp> ops;
    std::string node = "w" + std::to_string(i % 25);
    std::string peer = "v" + std::to_string(i % 10);
    ops.push_back({node, "knows", peer, TermKind::kIri, false});
    if (i % 3 == 0) {
      ops.push_back({node, "rdfs:label", "writer " + std::to_string(i % 25),
                     TermKind::kLiteral, false});
    }
    if (i % 4 == 1) {
      std::string old = "w" + std::to_string((i + 12) % 25);
      ops.push_back({old, "knows", peer, TermKind::kIri, true});
    }
    auto result = (*kb)->Apply(ops);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    committed = result->epoch;
    if (i % 50 == 17) {
      ASSERT_TRUE((*kb)->Compact().ok());
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  {
    std::lock_guard<std::mutex> lock(errors_mu);
    EXPECT_TRUE(errors.empty()) << errors.front();
  }
  EXPECT_EQ(committed, static_cast<uint64_t>(kBatches));
  EXPECT_EQ((*kb)->view()->epoch(), committed);
  EXPECT_GT(reads.load(), 0u);

  // Shut down (stops the background compactor) and recover: chaos left a
  // replayable store behind.
  kb->reset();
  LiveKb::Options reopen_options;
  reopen_options.dir = dir + "/store";
  reopen_options.lexicon = &lexicon;
  reopen_options.background_compaction = false;
  auto reopened = LiveKb::Open(std::move(reopen_options));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->view()->epoch(), committed);
  reopened->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace live
}  // namespace store
}  // namespace ganswer
