#ifndef GANSWER_QA_GANSWER_H_
#define GANSWER_QA_GANSWER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "linking/entity_index.h"
#include "linking/entity_linker.h"
#include "match/top_k_matcher.h"
#include "nlp/dependency_parser.h"
#include "qa/question_understander.h"
#include "qa/superlative.h"
#include "rdf/graph_stats.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace qa {

/// \brief The complete RDF Q/A system of the paper: graph data-driven
/// natural-language question answering.
///
/// Offline inputs: a finalized RDF graph and a paraphrase dictionary D
/// (mined by paraphrase::DictionaryBuilder, Algorithm 1). Online, Ask()
/// runs the two stages — question understanding (semantic query graph with
/// ambiguous candidate lists) and query evaluation (top-k subgraph matching
/// with TA-style termination) — and disambiguation falls out of the
/// matching, as the paper's title promises.
class GAnswer {
 public:
  struct Response;  // defined below; Options::shared_cache refers to it

  struct Options {
    QuestionUnderstander::Options understanding;
    match::TopKMatcher::Options matching;
    /// Answers scoring more than this below the best answer are not
    /// reported: with Definition 6 log-scores, a gap of log(1.35) means the
    /// interpretation is at least 35% less confident. 0 disables.
    double answer_score_window = 0.3;
    /// EXTENSION (off by default = paper behavior): resolve superlative /
    /// aggregation questions ("youngest player in ...") by argmax/argmin
    /// post-processing over the matched answers (see qa/superlative.h).
    bool enable_superlatives = false;
    /// Parallelism for BatchAnswer: questions fan out across a thread pool,
    /// each answered by an independent Ask() over the shared read-only
    /// graph, dictionary and indexes. Per-question matching parallelism is
    /// controlled separately via matching.exec; batch-parallel callers
    /// usually pin matching.exec.threads = 1 to avoid oversubscription.
    ExecutionOptions exec;
    /// Question-result cache capacity (entries). 0 disables the cache (the
    /// default, preserving per-call behavior). When on, Ask() first probes
    /// a sharded LRU keyed by the normalized question text and a hit is
    /// served without running understanding or matching.
    size_t question_cache_capacity = 0;
    /// 0 = the cache's default of 8 shards (common/lru_cache.h).
    size_t question_cache_shards = 0;
    /// Identity of the offline data this system serves (use the snapshot
    /// fingerprint, store::Snapshot::fingerprint). Mixed into every cache
    /// key, so entries cached against different snapshot contents can never
    /// be served — the cache is invalidated by snapshot identity.
    uint64_t snapshot_identity = 0;
    /// Prebuilt entity index from a loaded snapshot; must be built over
    /// *graph and outlive the system. When null the constructor builds one
    /// (the from-scratch path). The analogous prebuilt SignatureIndex is
    /// passed via matching.signatures.
    const linking::EntityIndex* entity_index = nullptr;
    /// Prebuilt graph statistics (rdf/graph_stats.h) steering candidate
    /// build and matcher plan order; must describe *graph and outlive the
    /// system. When null the constructor computes them. Ordering-only: the
    /// ranked answers are identical whatever statistics source is used.
    const rdf::GraphStats* graph_stats = nullptr;
    /// A question cache shared with other GAnswer instances (the live
    /// serving tier shares one cache across epoch views; stale-epoch
    /// entries are unreachable because snapshot_identity is part of every
    /// key and age out by LRU). When set it overrides
    /// question_cache_capacity/shards.
    std::shared_ptr<ShardedLruCache<Response>> shared_cache;
  };

  /// Why a question produced no answers; used by failure analysis
  /// (Table 10).
  enum class FailureStage {
    kNone,             ///< Answers produced.
    kParse,            ///< Dependency parse failed.
    kNoRelations,      ///< No semantic relation extracted and no fallback.
    kNoLinking,        ///< Every vertex unlinkable (all wildcards).
    kNoMatches,        ///< Q^S built but no subgraph match found.
  };

  struct Answer {
    rdf::TermId term = rdf::kInvalidTerm;
    std::string text;
    double score = 0.0;
  };

  struct Response {
    bool is_ask = false;
    bool ask_result = false;
    /// True when this response was served from the question cache without
    /// invoking understanding or matching (the stage timers then measure
    /// only the lookup, ≈ 0).
    bool cache_hit = false;
    /// Set when the superlative extension rewrote the answer set.
    bool superlative_applied = false;
    /// Distinct bindings of the target vertex, best score first.
    std::vector<Answer> answers;
    /// The underlying top-k subgraph matches.
    std::vector<match::Match> matches;
    QuestionUnderstander::Result understanding;
    FailureStage failure = FailureStage::kNone;
    double understanding_ms = 0;
    double evaluation_ms = 0;
    double TotalMs() const { return understanding_ms + evaluation_ms; }
    match::TopKMatcher::RunStats match_stats;
  };

  /// Hit/miss counters of the question cache, cumulative for the system.
  using CacheStats = ShardedLruCache<Response>::Stats;

  /// \p graph (finalized), \p lexicon and \p dict must outlive the system.
  GAnswer(const rdf::RdfGraph* graph, const nlp::Lexicon* lexicon,
          const paraphrase::ParaphraseDictionary* dict);
  GAnswer(const rdf::RdfGraph* graph, const nlp::Lexicon* lexicon,
          const paraphrase::ParaphraseDictionary* dict, Options options);

  /// Answers one natural-language question. Thread-safe: the pipeline is
  /// stateless over the shared read-only inputs, so concurrent Ask() calls
  /// are allowed (BatchAnswer relies on this).
  StatusOr<Response> Ask(std::string_view question) const;

  /// Answers a batch of questions; result i corresponds to questions[i],
  /// identical to calling Ask(questions[i]) serially. With
  /// options().exec.threads != 1 the questions fan out across a thread
  /// pool — the QPS entry point the throughput benches measure.
  std::vector<StatusOr<Response>> BatchAnswer(
      const std::vector<std::string>& questions) const;

  /// Builds the matcher-facing query graph from an understood question.
  /// Exposed for benchmarks that time the stages separately.
  match::QueryGraph ToQueryGraph(const SemanticQueryGraph& sqg) const;

  /// Probes the question cache without ever running understanding or
  /// matching: the stored Response on a hit (cache_hit is false on the
  /// stored copy — the caller decides how to mark it), nullptr on a miss
  /// or when the cache is off. A hit counts in cache_stats() and promotes
  /// the entry exactly like an Ask() hit; a miss is NOT counted, because
  /// the expected follow-up Ask() records it. This is the serving tier's
  /// cached fast path: hits are serialized on the event-loop thread and
  /// never enter the worker queue.
  std::shared_ptr<const Response> ProbeCache(std::string_view question) const;

  /// Cumulative question-cache counters (all zero when the cache is off).
  CacheStats cache_stats() const;
  /// Drops every cached response; call after the underlying offline data
  /// changes identity. Thread-safe.
  void InvalidateCache() const;
  /// The cache key Ask() uses for \p question: lowercased, whitespace-
  /// collapsed, prefixed with the snapshot identity.
  std::string CacheKey(std::string_view question) const;

  const rdf::RdfGraph& graph() const { return *graph_; }
  const QuestionUnderstander& understander() const { return *understander_; }
  const Options& options() const { return options_; }

 private:
  /// The uncached pipeline behind Ask(): understanding + matching.
  StatusOr<Response> AskUncached(std::string_view question) const;

  const rdf::RdfGraph* graph_;
  Options options_;
  std::unique_ptr<nlp::DependencyParser> parser_;
  std::unique_ptr<linking::EntityIndex> entity_index_;
  std::unique_ptr<linking::EntityLinker> linker_;
  std::unique_ptr<QuestionUnderstander> understander_;
  std::unique_ptr<match::TopKMatcher> matcher_;
  std::unique_ptr<SuperlativeResolver> superlatives_;
  std::unique_ptr<rdf::SignatureIndex> signatures_;
  std::unique_ptr<rdf::GraphStats> stats_;
  /// Online-path result cache; null when question_cache_capacity == 0 and
  /// no shared cache was supplied. Possibly shared across systems (live
  /// epoch views). Mutable: Ask() is logically const and the cache is
  /// internally locked.
  mutable std::shared_ptr<ShardedLruCache<Response>> cache_;
};

}  // namespace qa
}  // namespace ganswer

#endif  // GANSWER_QA_GANSWER_H_
