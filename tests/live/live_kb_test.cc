#include "store/live/live_kb.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "nlp/lexicon.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "store/snapshot.h"

namespace ganswer {
namespace store {
namespace live {
namespace {

using rdf::TermKind;
using rdf::UpdateOp;

/// Per-test scratch space: a pid-suffixed directory holding the bootstrap
/// snapshot and the live store, removed on destruction (ctest runs tests as
/// parallel processes from one working directory).
struct Scratch {
  std::string dir;
  std::string snapshot;

  explicit Scratch(const std::string& stem)
      : dir(stem + "." + std::to_string(::getpid())),
        snapshot(dir + "/base.snap") {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    rdf::RdfGraph graph;
    graph.AddTriple("Alice", "knows", "Bob");
    graph.AddTriple("Bob", "knows", "Carol");
    graph.AddTriple("Alice", "rdf:type", "Person");
    graph.AddTriple("Alice", "rdfs:label", "Alice Smith",
                    TermKind::kLiteral);
    EXPECT_TRUE(graph.Finalize().ok());
    paraphrase::ParaphraseDictionary dict(&lexicon);
    EXPECT_TRUE(WriteSnapshotFile(graph, dict, snapshot).ok());
  }
  ~Scratch() { std::filesystem::remove_all(dir); }

  LiveKb::Options Options(const std::string& store = "store") const {
    LiveKb::Options options;
    options.dir = dir + "/" + store;
    options.base_snapshot = snapshot;
    options.lexicon = &lexicon;
    options.background_compaction = false;
    return options;
  }

  mutable nlp::Lexicon lexicon;
};

std::set<std::string> TripleTexts(const rdf::RdfGraph& g) {
  std::set<std::string> out;
  for (rdf::TermId v = 0; v < g.dict().size(); ++v) {
    for (const rdf::Edge& e : g.OutEdges(v)) {
      out.insert(std::string(g.dict().text(v)) + "|" +
                 std::string(g.dict().text(e.predicate)) + "|" +
                 std::string(g.dict().text(e.neighbor)));
    }
  }
  return out;
}

TEST(LiveKbTest, BootstrapApplyAndReopenRecoverTheSameEpoch) {
  Scratch scratch("livekb_reopen");
  std::set<std::string> committed;
  {
    auto kb = LiveKb::Open(scratch.Options());
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    EXPECT_EQ((*kb)->view()->epoch(), 0u);

    auto r1 = (*kb)->Apply({
        {"Dave", "knows", "Alice", TermKind::kIri, false},
        {"Alice", "knows", "Bob", TermKind::kIri, true},
    });
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(r1->epoch, 1u);
    auto r2 = (*kb)->Apply({
        {"Dave", "rdfs:label", "Dave Jones", TermKind::kLiteral, false},
    });
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->epoch, 2u);

    std::shared_ptr<const KbView> view = (*kb)->view();
    EXPECT_EQ(view->epoch(), 2u);
    EXPECT_EQ(view->graph().NumTriples(), 5u);  // 4 - 1 + 2
    committed = TripleTexts(view->graph());

    LiveKb::IngestCounters counters = (*kb)->counters();
    EXPECT_EQ(counters.epoch, 2u);
    EXPECT_EQ(counters.batches, 2u);
    EXPECT_EQ(counters.triples_added, 2u);
    EXPECT_EQ(counters.triples_deleted, 1u);
    EXPECT_EQ(counters.delta_triples, 3u);
    EXPECT_GT(counters.wal_bytes, 0u);
  }
  // Reopen: the WAL replays over the bootstrap snapshot and recovery lands
  // on exactly the last committed epoch with identical content.
  auto reopened = LiveKb::Open(scratch.Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::shared_ptr<const KbView> view = (*reopened)->view();
  EXPECT_EQ(view->epoch(), 2u);
  EXPECT_EQ(TripleTexts(view->graph()), committed);
  EXPECT_EQ((*reopened)->counters().epoch, 2u);
}

TEST(LiveKbTest, RejectsEmptyAndOversizeBatches) {
  Scratch scratch("livekb_admission");
  LiveKb::Options options = scratch.Options();
  options.max_batch_ops = 2;
  auto kb = LiveKb::Open(std::move(options));
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ((*kb)->Apply({}).status().code(),
            Status::Code::kInvalidArgument);
  std::vector<UpdateOp> big(
      3, UpdateOp{"a", "p", "b", TermKind::kIri, false});
  EXPECT_EQ((*kb)->Apply(big).status().code(),
            Status::Code::kInvalidArgument);
  // The rejected batches committed nothing.
  EXPECT_EQ((*kb)->view()->epoch(), 0u);
  EXPECT_EQ((*kb)->counters().batches, 0u);
}

TEST(LiveKbTest, ApplyTextParsesAddsDeletesAndComments) {
  Scratch scratch("livekb_text");
  auto kb = LiveKb::Open(scratch.Options());
  ASSERT_TRUE(kb.ok());
  auto result = (*kb)->ApplyText(
      "# streaming batch\n"
      "<Dave> <knows> <Alice> .\n"
      "<Dave> <rdfs:label> \"Dave Jones\" .\n"
      "- <Alice> <knows> <Bob> .\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.added, 2u);
  EXPECT_EQ(result->stats.deleted, 1u);
  std::shared_ptr<const KbView> view = (*kb)->view();
  const rdf::RdfGraph& g = view->graph();
  EXPECT_TRUE(g.HasTriple(*g.Find("Dave"), *g.dict().LookupAny("knows"),
                          *g.Find("Alice")));
  EXPECT_FALSE(g.HasTriple(*g.Find("Alice"), *g.dict().LookupAny("knows"),
                           *g.Find("Bob")));
  // A syntax error rejects the whole batch; nothing commits.
  EXPECT_FALSE((*kb)->ApplyText("<unterminated .\n").ok());
  EXPECT_EQ((*kb)->view()->epoch(), 1u);
}

TEST(LiveKbTest, CompactionFoldsTheDeltaAndKeepsServing) {
  Scratch scratch("livekb_compact");
  std::set<std::string> committed;
  {
    auto kb = LiveKb::Open(scratch.Options());
    ASSERT_TRUE(kb.ok());
    ASSERT_TRUE((*kb)
                    ->Apply({
                        {"Dave", "knows", "Alice", TermKind::kIri, false},
                        {"Alice", "knows", "Bob", TermKind::kIri, true},
                    })
                    .ok());
    std::shared_ptr<const KbView> before = (*kb)->view();
    committed = TripleTexts(before->graph());

    ASSERT_TRUE((*kb)->Compact().ok());
    LiveKb::IngestCounters counters = (*kb)->counters();
    EXPECT_EQ(counters.compactions, 1u);
    EXPECT_EQ(counters.delta_triples, 0u);
    EXPECT_EQ(counters.epoch, 1u);

    // The published epoch and its content are unchanged; the in-flight
    // pre-compaction view still answers.
    std::shared_ptr<const KbView> after = (*kb)->view();
    EXPECT_EQ(after->epoch(), 1u);
    EXPECT_EQ(after->delta_triples(), 0u);
    EXPECT_EQ(TripleTexts(after->graph()), committed);
    EXPECT_EQ(TripleTexts(before->graph()), committed);

    // Ingestion continues on top of the compacted base.
    ASSERT_TRUE(
        (*kb)
            ->Apply({{"Eve", "knows", "Dave", TermKind::kIri, false}})
            .ok());
    EXPECT_EQ((*kb)->view()->epoch(), 2u);
    committed = TripleTexts((*kb)->view()->graph());

    // Idempotent when the delta is empty... after another compaction.
    ASSERT_TRUE((*kb)->Compact().ok());
    ASSERT_TRUE((*kb)->Compact().ok());
    EXPECT_EQ((*kb)->counters().compactions, 2u);
  }
  // Reopen after compaction: the manifest points at the compacted pair.
  auto reopened = LiveKb::Open(scratch.Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->view()->epoch(), 2u);
  EXPECT_EQ(TripleTexts((*reopened)->view()->graph()), committed);
  // The original bootstrap snapshot outside the store dir was preserved.
  EXPECT_TRUE(std::filesystem::exists(scratch.snapshot));
}

// A compaction that fails before its manifest swap must leave the store on
// the pair the manifest names, in memory too: batches acked after the
// failure land in that WAL and survive a reopen. Two failure points: the
// snapshot write (a directory squats on the target path) and the load of
// the written snapshot (the target path links to /dev/null, so the write
// succeeds and the load finds no snapshot).
TEST(LiveKbTest, FailedCompactionLosesNoAckedBatch) {
  Scratch scratch("livekb_failed_compact");
  const std::string store = scratch.Options().dir;
  std::set<std::string> committed;
  {
    auto kb = LiveKb::Open(scratch.Options());
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    ASSERT_TRUE(
        (*kb)->Apply({{"Dave", "knows", "Alice", TermKind::kIri, false}})
            .ok());
    ASSERT_TRUE(std::filesystem::create_directory(store + "/base-1.snap"));
    EXPECT_FALSE((*kb)->Compact().ok());
    ASSERT_TRUE(
        (*kb)->Apply({{"Eve", "knows", "Dave", TermKind::kIri, false}}).ok());
    std::filesystem::create_symlink("/dev/null", store + "/base-2.snap");
    EXPECT_FALSE((*kb)->Compact().ok());
    ASSERT_TRUE(
        (*kb)->Apply({{"Frank", "knows", "Eve", TermKind::kIri, false}})
            .ok());
    EXPECT_EQ((*kb)->counters().compactions, 0u);
    EXPECT_EQ((*kb)->view()->epoch(), 3u);
    committed = TripleTexts((*kb)->view()->graph());
  }
  auto reopened = LiveKb::Open(scratch.Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->view()->epoch(), 3u);
  EXPECT_EQ(TripleTexts((*reopened)->view()->graph()), committed);
  // Past the obstacles, compaction works again.
  ASSERT_TRUE((*reopened)->Compact().ok());
  EXPECT_EQ((*reopened)->counters().compactions, 1u);
}

// An empty dir opens the read-only store: the snapshot served as one
// pure-base view at epoch 0. Nothing is written, no compactor runs, and
// updates are refused rather than dropped.
TEST(LiveKbTest, ReadOnlyOpenServesBaseAndRejectsWrites) {
  Scratch scratch("livekb_read_only");
  auto files = [&] {
    std::set<std::string> names;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(scratch.dir)) {
      names.insert(entry.path().string());
    }
    return names;
  };
  const std::set<std::string> before = files();
  LiveKb::Options options = scratch.Options();
  options.dir.clear();
  options.compact_threshold = 1;
  options.background_compaction = true;
  auto kb = LiveKb::Open(std::move(options));
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_TRUE((*kb)->read_only());

  auto snapshot = ReadSnapshotFile(scratch.snapshot, &scratch.lexicon);
  ASSERT_TRUE(snapshot.ok());
  std::shared_ptr<const KbView> view = (*kb)->view();
  EXPECT_EQ(view->epoch(), 0u);
  EXPECT_EQ(view->delta_triples(), 0u);
  EXPECT_EQ(view->base().fingerprint, snapshot->fingerprint);
  EXPECT_EQ(TripleTexts(view->graph()), TripleTexts(*snapshot->graph));

  auto applied =
      (*kb)->Apply({{"Dave", "knows", "Alice", TermKind::kIri, false}});
  EXPECT_TRUE(applied.status().IsNotSupported())
      << applied.status().ToString();
  auto text = (*kb)->ApplyText("<Dave> <knows> <Alice> .\n");
  EXPECT_TRUE(text.status().IsNotSupported()) << text.status().ToString();
  EXPECT_TRUE((*kb)->Compact().ok());  // nothing to fold

  EXPECT_EQ((*kb)->view(), view);
  LiveKb::IngestCounters counters = (*kb)->counters();
  EXPECT_EQ(counters.epoch, 0u);
  EXPECT_EQ(counters.batches, 0u);
  EXPECT_EQ(counters.wal_bytes, 0u);
  EXPECT_EQ(files(), before);
}

TEST(LiveKbTest, ThresholdArmsForegroundCompaction) {
  Scratch scratch("livekb_threshold");
  LiveKb::Options options = scratch.Options();
  options.compact_threshold = 2;
  options.background_compaction = false;
  auto kb = LiveKb::Open(std::move(options));
  ASSERT_TRUE(kb.ok());
  ASSERT_TRUE(
      (*kb)->Apply({{"Dave", "knows", "Alice", TermKind::kIri, false}}).ok());
  EXPECT_EQ((*kb)->counters().compactions, 0u);
  ASSERT_TRUE(
      (*kb)->Apply({{"Eve", "knows", "Alice", TermKind::kIri, false}}).ok());
  EXPECT_EQ((*kb)->counters().compactions, 1u);
  EXPECT_EQ((*kb)->counters().delta_triples, 0u);
}

TEST(LiveKbTest, CacheIdentityIsEpochAware) {
  Scratch scratch("livekb_cache");
  LiveKb::Options options = scratch.Options();
  options.question_cache_capacity = 64;
  auto kb = LiveKb::Open(std::move(options));
  ASSERT_TRUE(kb.ok());

  std::shared_ptr<const KbView> v0 = (*kb)->view();
  // Asking twice on one epoch hits the shared cache.
  ASSERT_TRUE(v0->qa().Ask("Who knows Alice ?").ok());
  auto second = v0->qa().Ask("Who knows Alice ?");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  qa::GAnswer::CacheStats stats0 = v0->qa().cache_stats();
  EXPECT_EQ(stats0.hits, 1u);

  ASSERT_TRUE(
      (*kb)->Apply({{"Dave", "knows", "Alice", TermKind::kIri, false}}).ok());
  std::shared_ptr<const KbView> v1 = (*kb)->view();

  // Every key embeds the epoch identity, so the identical question on the
  // new epoch can never be served from the stale entry.
  EXPECT_NE(v0->identity(), v1->identity());
  EXPECT_NE(v0->qa().CacheKey("Who knows Alice ?"),
            v1->qa().CacheKey("Who knows Alice ?"));
  auto fresh = v1->qa().Ask("Who knows Alice ?");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  // The shared cache recorded a miss for the new epoch, not a hit.
  qa::GAnswer::CacheStats stats1 = v1->qa().cache_stats();
  EXPECT_EQ(stats1.hits, stats0.hits);
  EXPECT_GT(stats1.misses, stats0.misses);
  // And the old view still hits its own epoch's entry.
  auto old_again = v0->qa().Ask("Who knows Alice ?");
  ASSERT_TRUE(old_again.ok());
  EXPECT_TRUE(old_again->cache_hit);
}

}  // namespace
}  // namespace live
}  // namespace store
}  // namespace ganswer
