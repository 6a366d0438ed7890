#ifndef GANSWER_STORE_LIVE_LIVE_KB_H_
#define GANSWER_STORE_LIVE_LIVE_KB_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "nlp/lexicon.h"
#include "qa/ganswer.h"
#include "rdf/ntriples.h"
#include "rdf/sparql_engine.h"
#include "store/live/delta_graph.h"
#include "store/live/ingest_log.h"
#include "store/snapshot.h"

namespace ganswer {
namespace store {
namespace live {

/// \brief One immutable epoch of the live knowledge base: the merged graph
/// (base + delta overlay), the overlay indexes, and a ready QA system over
/// them. Handed out by LiveKb::view() as a refcounted snapshot — an
/// in-flight query keeps its view alive across any number of commits and
/// compactions, so matching never observes a mutation and never blocks.
class KbView {
 public:
  uint64_t epoch() const { return epoch_; }
  /// Cache identity of this epoch's data: the base snapshot fingerprint
  /// mixed with the epoch. Every question-cache key embeds it, so entries
  /// cached against an older epoch are unreachable after any commit.
  uint64_t identity() const { return identity_; }
  const rdf::RdfGraph& graph() const { return *graph_; }
  const Snapshot& base() const { return *base_; }
  const qa::GAnswer& qa() const { return *qa_; }
  /// The SPARQL engine over this view, built lazily on first use (one
  /// plan-cost setup per epoch, only when /sparql traffic arrives).
  const rdf::SparqlEngine& sparql() const;
  /// The engine if sparql() has built it, else null; never builds it.
  const rdf::SparqlEngine* sparql_if_built() const {
    return sparql_built_.load(std::memory_order_acquire);
  }
  /// Accumulated delta size (adds + deletes since the current base).
  size_t delta_triples() const { return delta_triples_; }

  KbView(const KbView&) = delete;
  KbView& operator=(const KbView&) = delete;

 private:
  friend class LiveKb;
  KbView() = default;

  std::shared_ptr<const Snapshot> base_;
  std::shared_ptr<const rdf::RdfGraph> graph_;
  std::shared_ptr<const rdf::SignatureIndex> signatures_;
  std::shared_ptr<const linking::EntityIndex> entities_;
  std::unique_ptr<qa::GAnswer> qa_;
  uint64_t epoch_ = 0;
  uint64_t identity_ = 0;
  size_t delta_triples_ = 0;
  mutable std::once_flag sparql_once_;
  mutable std::unique_ptr<rdf::SparqlEngine> sparql_;
  mutable std::atomic<const rdf::SparqlEngine*> sparql_built_{nullptr};
};

/// \brief The live-updatable knowledge base: an immutable base snapshot, a
/// mutable delta (DeltaGraph), a crash-consistent WAL (IngestLog), and an
/// epoch-swapped current view.
///
/// Concurrency model (RCU-style):
///  - Readers call view() — a shared_ptr copy under a pointer-swap mutex
///    held only for the refcount bump — and use the returned KbView for
///    the whole request. Queries never take the writer lock and never
///    block on ingestion or compaction work.
///  - Writers (Apply/Compact) serialize on one mutex. A commit appends the
///    batch to the WAL (fsync), applies it to the delta, builds a fresh
///    KbView in O(accumulated delta), and publishes it with one pointer
///    swap. Old views drain as their last readers finish.
///
/// Durability: a batch is acknowledged only after its WAL record is
/// fsync'd. Reopening a directory replays the WAL over the manifest's base
/// snapshot and lands on exactly the last committed epoch (torn tails are
/// truncated). Compaction folds base+delta into a fresh snapshot file and
/// swaps the manifest atomically — crash or failure at any point leaves a
/// consistent, replayable (snapshot, WAL) pair and never applies a batch
/// twice.
///
/// Read-only store (empty Options::dir): the base snapshot alone, served
/// as one pure-base view at epoch 0. It creates no directory, manifest,
/// WAL or compactor thread, and Apply answers NotSupported. This is how a
/// frozen server holds its KB.
class LiveKb {
 public:
  struct Options {
    /// Store directory: manifest, WAL and compacted snapshots live here.
    /// Empty = a read-only store over \p base_snapshot.
    std::string dir;
    /// Base snapshot to bootstrap from when \p dir has no manifest yet
    /// (first open); ignored on reopen. The whole KB of a read-only store.
    /// The file is never modified; compaction writes new snapshots under
    /// \p dir.
    std::string base_snapshot;
    /// Backs the paraphrase dictionary and per-view QA systems; must
    /// outlive the LiveKb.
    const nlp::Lexicon* lexicon = nullptr;
    /// Template for each view's QA system; entity index, signatures,
    /// stats, cache and snapshot identity are overridden per view.
    qa::GAnswer::Options qa;
    /// The shared question cache across all epoch views (stale-epoch
    /// entries are unreachable via the key's identity prefix and age out
    /// by LRU). 0 disables caching.
    size_t question_cache_capacity = 1024;
    /// Accumulated delta size (adds + deletes) that arms compaction.
    /// 0 = compact only when Compact() is called explicitly.
    size_t compact_threshold = 0;
    /// Run armed compactions on a background thread (queries are
    /// unaffected either way; Apply calls block for the duration when a
    /// foreground compaction runs).
    bool background_compaction = true;
    /// Admission bound: one batch may carry at most this many operations.
    size_t max_batch_ops = 100000;
  };

  /// Cumulative ingestion counters for /stats.
  struct IngestCounters {
    uint64_t epoch = 0;
    uint64_t batches = 0;
    uint64_t triples_added = 0;
    uint64_t triples_deleted = 0;
    uint64_t noop_adds = 0;
    uint64_t noop_deletes = 0;
    uint64_t new_terms = 0;
    uint64_t delta_triples = 0;     ///< Since the current base snapshot.
    uint64_t touched_vertices = 0;  ///< Since the current base snapshot.
    uint64_t delta_bytes = 0;       ///< Approx. heap bytes of the delta.
    uint64_t wal_bytes = 0;
    uint64_t compactions = 0;
    uint64_t failed_compactions = 0;
    double last_batch_ms = 0;
    double last_compaction_ms = 0;
  };

  struct BatchResult {
    uint64_t epoch = 0;  ///< The epoch this batch produced.
    DeltaGraph::BatchStats stats;
  };

  /// Opens (or bootstraps) the live store at \p options.dir and recovers to
  /// the last committed epoch; with an empty dir, opens the read-only store
  /// over \p options.base_snapshot.
  static StatusOr<std::unique_ptr<LiveKb>> Open(Options options);
  ~LiveKb();

  LiveKb(const LiveKb&) = delete;
  LiveKb& operator=(const LiveKb&) = delete;

  /// The current epoch's view; a refcount bump under a pointer-swap
  /// mutex (held for nanoseconds, never during ingestion, compaction,
  /// view construction or I/O). Never null after Open.
  std::shared_ptr<const KbView> view() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return current_;
  }

  /// Parses \p ntriples as an update batch (rdf::NTriplesReader::
  /// ParseUpdate: lines are adds, `-`-prefixed lines deletes) and commits
  /// it. The POST /update entry point.
  StatusOr<BatchResult> ApplyText(std::string_view ntriples);
  /// Validates, logs (fsync), applies and publishes one batch.
  /// NotSupported on a read-only store.
  StatusOr<BatchResult> Apply(const std::vector<rdf::UpdateOp>& ops);

  /// Folds base + delta into a fresh compacted snapshot under dir, swaps
  /// the manifest, resets the delta and WAL. The published epoch and its
  /// answers are unchanged; queries keep running throughout.
  Status Compact();

  IngestCounters counters() const;
  const Options& options() const { return options_; }
  /// True when opened without a directory: no WAL, Apply is refused.
  bool read_only() const { return options_.dir.empty(); }

  /// TEST ONLY: the next Apply tears its WAL write mid-record and aborts.
  void CrashMidBatchForTest() { log_->CrashMidAppendForTest(); }
  /// TEST ONLY: the next Compact aborts after writing the new snapshot but
  /// before the manifest swap — reopen must recover the old pair.
  void CrashBeforeManifestSwapForTest() {
    crash_before_manifest_swap_for_test_ = true;
  }

 private:
  explicit LiveKb(Options options);

  Status OpenLocked();
  /// Loads the snapshot at \p path the way every base is loaded.
  StatusOr<std::shared_ptr<const Snapshot>> ReadBase(
      const std::string& path) const;
  /// Loads the snapshot at \p path as base_ under an empty delta.
  Status LoadBaseLocked(const std::string& path);
  Status CompactLocked();
  /// Builds and atomically publishes the view of the current delta state.
  void PublishViewLocked();
  void CompactionLoop();
  void CountFailedCompaction();

  static uint64_t MixIdentity(uint64_t fingerprint, uint64_t epoch);

  Options options_;
  std::string manifest_path_;
  LiveManifest manifest_;

  /// Serializes writers (Apply, Compact, recovery). Never taken by view().
  mutable std::mutex writer_mu_;
  std::shared_ptr<const Snapshot> base_;
  std::unique_ptr<DeltaGraph> delta_;
  std::unique_ptr<IngestLog> log_;
  uint64_t epoch_ = 0;
  std::shared_ptr<ShardedLruCache<qa::GAnswer::Response>> cache_;

  /// Guards only the published-view pointer. Readers hold it to copy the
  /// shared_ptr (one refcount increment); the writer holds it to swap in
  /// the next epoch's pointer. Never held while building a view, applying
  /// a batch, compacting, or touching disk — so readers never wait on
  /// writer *work*, only on another nanosecond-scale pointer operation.
  /// (std::atomic<shared_ptr> would make reads lock-free, but libstdc++'s
  /// implementation unlocks its embedded spinlock with a relaxed RMW in
  /// load(), which is formally racy and trips TSAN; an explicit mutex is
  /// portable and clean under the memory model.)
  mutable std::mutex view_mu_;
  std::shared_ptr<const KbView> current_;

  /// Guards counters_: the single writer updates it after each batch or
  /// compaction, so a counters() snapshot sees one consistent post-batch
  /// state.
  mutable std::mutex counters_mu_;
  IngestCounters counters_;

  std::thread compactor_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool compaction_due_ = false;
  bool stop_ = false;

  bool crash_before_manifest_swap_for_test_ = false;
};

}  // namespace live
}  // namespace store
}  // namespace ganswer

#endif  // GANSWER_STORE_LIVE_LIVE_KB_H_
