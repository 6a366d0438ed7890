#include "store/live/live_kb.h"

#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/timer.h"

namespace ganswer {
namespace store {
namespace live {

namespace {

/// Adds one committed batch to the cumulative ingest counters.
void CountBatch(const DeltaGraph::BatchStats& stats,
                LiveKb::IngestCounters* c) {
  ++c->batches;
  c->triples_added += stats.added;
  c->triples_deleted += stats.deleted;
  c->noop_adds += stats.noop_adds;
  c->noop_deletes += stats.noop_deletes;
  c->new_terms += stats.new_terms;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::IoError("mkdir " + dir + ": " + std::strerror(errno));
}

// Opens \p path with \p flags and fsyncs it. The parent directory entry is
// made durable later, by the manifest swap's directory fsync.
Status OpenAndSync(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

// Creates (or truncates) an empty file durably — the fresh WAL a compaction
// or bootstrap installs before the manifest starts pointing at it.
Status CreateEmptyFile(const std::string& path) {
  return OpenAndSync(path, O_WRONLY | O_CREAT | O_TRUNC);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

const rdf::SparqlEngine& KbView::sparql() const {
  std::call_once(sparql_once_, [&] {
    rdf::SparqlEngine::Options options;
    // Base-snapshot statistics: ordering-only (join order), exact answers
    // either way; refreshed when compaction rewrites the base.
    options.stats = base_->stats.get();
    sparql_ = std::make_unique<rdf::SparqlEngine>(*graph_, options);
    sparql_built_.store(sparql_.get(), std::memory_order_release);
  });
  return *sparql_;
}

uint64_t LiveKb::MixIdentity(uint64_t fingerprint, uint64_t epoch) {
  // splitmix64-style finalizer over fingerprint ⊕ epoch: distinct epochs of
  // the same base get unrelated identities, so no cache key can collide
  // across commits.
  uint64_t x = fingerprint ^ (epoch + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

LiveKb::LiveKb(Options options) : options_(std::move(options)) {
  manifest_path_ = options_.dir + "/live.manifest";
  if (options_.question_cache_capacity > 0) {
    cache_ = std::make_shared<ShardedLruCache<qa::GAnswer::Response>>(
        ShardedLruCache<qa::GAnswer::Response>::Options{
            options_.question_cache_capacity});
  }
}

LiveKb::~LiveKb() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      stop_ = true;
    }
    bg_cv_.notify_all();
    compactor_.join();
  }
}

StatusOr<std::unique_ptr<LiveKb>> LiveKb::Open(Options options) {
  if (options.dir.empty() && options.base_snapshot.empty()) {
    return Status::InvalidArgument(
        "LiveKb::Options needs a dir or a base_snapshot");
  }
  if (options.lexicon == nullptr) {
    return Status::InvalidArgument("LiveKb::Options::lexicon is required");
  }
  auto kb = std::unique_ptr<LiveKb>(new LiveKb(std::move(options)));
  {
    std::lock_guard<std::mutex> lock(kb->writer_mu_);
    GANSWER_RETURN_NOT_OK(kb->OpenLocked());
  }
  if (!kb->read_only() && kb->options_.compact_threshold > 0 &&
      kb->options_.background_compaction) {
    kb->compactor_ = std::thread([kb = kb.get()] { kb->CompactionLoop(); });
  }
  return kb;
}

Status LiveKb::OpenLocked() {
  if (read_only()) {
    // The caller's snapshot is the whole KB, at epoch 0 for good: nothing
    // to recover, nothing on disk to create.
    GANSWER_RETURN_NOT_OK(LoadBaseLocked(options_.base_snapshot));
    PublishViewLocked();
    return Status::Ok();
  }
  GANSWER_RETURN_NOT_OK(EnsureDir(options_.dir));
  StatusOr<LiveManifest> manifest = ReadManifest(manifest_path_);
  if (!manifest.ok()) {
    if (manifest.status().code() != Status::Code::kNotFound) {
      return manifest.status();
    }
    // First open: bootstrap from the caller's snapshot. A leftover WAL
    // without a manifest is pre-bootstrap garbage (the manifest is written
    // last), so truncate it.
    if (options_.base_snapshot.empty()) {
      return Status::InvalidArgument(
          "no manifest in " + options_.dir +
          " and no bootstrap base_snapshot provided");
    }
    LiveManifest fresh;
    fresh.base_epoch = 0;
    fresh.base_snapshot = options_.base_snapshot;
    fresh.wal = options_.dir + "/wal-0.log";
    GANSWER_RETURN_NOT_OK(CreateEmptyFile(fresh.wal));
    GANSWER_RETURN_NOT_OK(WriteManifest(manifest_path_, fresh));
    manifest = fresh;
  }
  manifest_ = std::move(manifest).value();
  GANSWER_RETURN_NOT_OK(LoadBaseLocked(manifest_.base_snapshot));

  // Recovery: re-apply every committed batch; the torn tail (if any) was
  // never acknowledged and is truncated by Replay.
  auto replayed = IngestLog::Replay(manifest_.wal);
  if (!replayed.ok()) return replayed.status();
  epoch_ = manifest_.base_epoch;
  for (const LogRecord& rec : replayed.value()) {
    if (rec.epoch != epoch_ + 1) {
      return Status::Corruption(
          "WAL epoch gap: expected " + std::to_string(epoch_ + 1) + ", got " +
          std::to_string(rec.epoch));
    }
    DeltaGraph::BatchStats stats = delta_->Apply(rec.ops);
    epoch_ = rec.epoch;
    std::lock_guard<std::mutex> lock(counters_mu_);
    CountBatch(stats, &counters_);
  }

  auto log = IngestLog::Open(manifest_.wal);
  if (!log.ok()) return log.status();
  log_ = std::move(log).value();

  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.epoch = epoch_;
    counters_.delta_triples = delta_->delta_triples();
    counters_.touched_vertices = delta_->touched_vertices();
    counters_.delta_bytes = delta_->approx_bytes();
    counters_.wal_bytes = log_->size_bytes();
  }
  PublishViewLocked();
  return Status::Ok();
}

StatusOr<std::shared_ptr<const Snapshot>> LiveKb::ReadBase(
    const std::string& path) const {
  auto loaded = ReadSnapshotFile(path, options_.lexicon);
  if (!loaded.ok()) return loaded.status();
  return std::make_shared<const Snapshot>(std::move(loaded).value());
}

Status LiveKb::LoadBaseLocked(const std::string& path) {
  auto base = ReadBase(path);
  if (!base.ok()) return base.status();
  base_ = std::move(base).value();
  delta_ = std::make_unique<DeltaGraph>(base_);
  return Status::Ok();
}

void LiveKb::PublishViewLocked() {
  auto view = std::shared_ptr<KbView>(new KbView());
  view->base_ = base_;
  view->epoch_ = epoch_;
  view->identity_ = MixIdentity(base_->fingerprint, epoch_);
  view->delta_triples_ = delta_->delta_triples();
  if (delta_->empty()) {
    // Pure-base epoch (bootstrap, or right after compaction): alias the
    // snapshot's own structures, no overlay cost at all.
    view->graph_ =
        std::shared_ptr<const rdf::RdfGraph>(base_, base_->graph.get());
    view->signatures_ = std::shared_ptr<const rdf::SignatureIndex>(
        base_, base_->signatures.get());
    view->entities_ = std::shared_ptr<const linking::EntityIndex>(
        base_, base_->entity_index.get());
  } else {
    DeltaGraph::View merged = delta_->BuildView();
    view->graph_ = std::move(merged.graph);
    view->signatures_ = std::move(merged.signatures);
    view->entities_ = std::move(merged.entities);
  }

  qa::GAnswer::Options qa_options = options_.qa;
  qa_options.snapshot_identity = view->identity_;
  qa_options.entity_index = view->entities_.get();
  qa_options.matching.signatures = view->signatures_.get();
  // Base statistics serve every epoch until compaction refreshes them:
  // ordering-only, the ranked answers are identical (rdf/graph_stats.h).
  qa_options.graph_stats = base_->stats.get();
  qa_options.shared_cache = cache_;
  view->qa_ = std::make_unique<qa::GAnswer>(view->graph_.get(),
                                            options_.lexicon,
                                            base_->dictionary.get(),
                                            qa_options);

  // Swap the published pointer under view_mu_ and drop the previous view
  // outside it: releasing the last reference to an old epoch tears down a
  // whole KbView (graph overlay, QA system), which must not run inside
  // the readers' critical section.
  std::shared_ptr<const KbView> old;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    old = std::move(current_);
    current_ = std::move(view);
  }
}

StatusOr<LiveKb::BatchResult> LiveKb::ApplyText(std::string_view ntriples) {
  auto ops = rdf::NTriplesReader::ParseUpdate(ntriples);
  if (!ops.ok()) return ops.status();
  return Apply(ops.value());
}

StatusOr<LiveKb::BatchResult> LiveKb::Apply(
    const std::vector<rdf::UpdateOp>& ops) {
  if (read_only()) {
    return Status::NotSupported("read-only store: no updates");
  }
  if (ops.empty()) return Status::InvalidArgument("empty update batch");
  if (ops.size() > options_.max_batch_ops) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(ops.size()) + " ops exceeds limit of " +
        std::to_string(options_.max_batch_ops));
  }
  WallTimer timer;
  bool arm_compaction = false;
  BatchResult result;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    // WAL first: once the fsync'd record is on disk the batch is
    // committed; crash after this point replays it on reopen.
    GANSWER_RETURN_NOT_OK(log_->Append(epoch_ + 1, ops));
    result.stats = delta_->Apply(ops);
    ++epoch_;
    result.epoch = epoch_;
    PublishViewLocked();
    arm_compaction = options_.compact_threshold > 0 &&
                     delta_->delta_triples() >= options_.compact_threshold;

    std::lock_guard<std::mutex> counters_lock(counters_mu_);
    CountBatch(result.stats, &counters_);
    counters_.epoch = epoch_;
    counters_.delta_triples = delta_->delta_triples();
    counters_.touched_vertices = delta_->touched_vertices();
    counters_.delta_bytes = delta_->approx_bytes();
    counters_.wal_bytes = log_->size_bytes();
    counters_.last_batch_ms = timer.ElapsedMillis();
  }
  if (arm_compaction) {
    if (options_.background_compaction) {
      {
        std::lock_guard<std::mutex> lock(bg_mu_);
        compaction_due_ = true;
      }
      bg_cv_.notify_one();
    } else {
      if (!Compact().ok()) CountFailedCompaction();
    }
  }
  return result;
}

void LiveKb::CompactionLoop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (true) {
    bg_cv_.wait(lock, [&] { return stop_ || compaction_due_; });
    if (stop_) return;
    compaction_due_ = false;
    lock.unlock();
    if (!Compact().ok()) CountFailedCompaction();
    lock.lock();
  }
}

Status LiveKb::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CompactLocked();
}

Status LiveKb::CompactLocked() {
  if (delta_->empty()) return Status::Ok();
  WallTimer timer;
  std::shared_ptr<const KbView> cur = view();
  const rdf::RdfGraph& live = cur->graph();
  const rdf::TermDictionary& dict = live.dict();

  // Materialize the merged graph flat, preserving term ids: replaying the
  // dictionary texts in id order reproduces every id (the well-known
  // predicates the fresh graph pre-interns are ids 0..2 of the base too),
  // so the CSR triples can be copied as encoded ids.
  rdf::RdfGraph flat;
  for (rdf::TermId id = 0; id < dict.size(); ++id) {
    rdf::TermId got = flat.dict().Intern(dict.text(id), dict.kind(id));
    if (got != id) {
      return Status::Internal("compaction dictionary replay id mismatch");
    }
  }
  for (rdf::TermId v = 0; v < dict.size(); ++v) {
    for (const rdf::Edge& e : live.OutEdges(v)) {
      flat.AddTriple(rdf::Triple{v, e.predicate, e.neighbor});
    }
  }
  GANSWER_RETURN_NOT_OK(flat.Finalize());

  // New pair first, loaded and opened; manifest swap last. A crash or a
  // failure anywhere before the swap leaves the old (snapshot, WAL) pair
  // both on disk and in memory, so later batches keep landing in the WAL
  // the manifest names.
  const std::string suffix = std::to_string(epoch_);
  std::string snap_path = options_.dir + "/base-" + suffix + ".snap";
  std::string wal_path = options_.dir + "/wal-" + suffix + ".log";
  GANSWER_RETURN_NOT_OK(
      WriteSnapshotFile(flat, *base_->dictionary, snap_path));
  // The manifest must never name a snapshot whose bytes are not yet on
  // disk: the swap below also retires the WAL holding the acked batches.
  GANSWER_RETURN_NOT_OK(OpenAndSync(snap_path, O_RDONLY));
  GANSWER_RETURN_NOT_OK(CreateEmptyFile(wal_path));
  auto base = ReadBase(snap_path);
  if (!base.ok()) return base.status();
  auto log = IngestLog::Open(wal_path);
  if (!log.ok()) return log.status();
  if (crash_before_manifest_swap_for_test_) std::abort();
  LiveManifest next;
  next.base_epoch = epoch_;
  next.base_snapshot = snap_path;
  next.wal = wal_path;
  GANSWER_RETURN_NOT_OK(WriteManifest(manifest_path_, next));

  std::string old_snapshot = manifest_.base_snapshot;
  std::string old_wal = manifest_.wal;
  manifest_ = next;
  base_ = std::move(base).value();
  delta_ = std::make_unique<DeltaGraph>(base_);
  log_ = std::move(log).value();
  // Same epoch, same answers, fresh statistics and flat CSR adjacency.
  PublishViewLocked();

  // Superseded files. The bootstrap snapshot outside the store directory is
  // the caller's and stays.
  ::unlink(old_wal.c_str());
  if (StartsWith(old_snapshot, options_.dir + "/")) {
    ::unlink(old_snapshot.c_str());
  }

  std::lock_guard<std::mutex> counters_lock(counters_mu_);
  ++counters_.compactions;
  counters_.delta_triples = 0;
  counters_.touched_vertices = 0;
  counters_.delta_bytes = 0;
  counters_.wal_bytes = 0;
  counters_.last_compaction_ms = timer.ElapsedMillis();
  return Status::Ok();
}

void LiveKb::CountFailedCompaction() {
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.failed_compactions;
}

LiveKb::IngestCounters LiveKb::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace live
}  // namespace store
}  // namespace ganswer
