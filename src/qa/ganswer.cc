#include "qa/ganswer.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "common/timer.h"

namespace ganswer {
namespace qa {

GAnswer::GAnswer(const rdf::RdfGraph* graph, const nlp::Lexicon* lexicon,
                 const paraphrase::ParaphraseDictionary* dict)
    : GAnswer(graph, lexicon, dict, Options()) {}

GAnswer::GAnswer(const rdf::RdfGraph* graph, const nlp::Lexicon* lexicon,
                 const paraphrase::ParaphraseDictionary* dict, Options options)
    : graph_(graph), options_(options) {
  parser_ = std::make_unique<nlp::DependencyParser>(*lexicon);
  // Snapshot-served startup: prebuilt indexes skip the per-vertex rebuild
  // passes entirely; the from-scratch path builds them as before.
  const linking::EntityIndex* entity_index = options.entity_index;
  if (entity_index == nullptr) {
    entity_index_ = std::make_unique<linking::EntityIndex>(*graph);
    entity_index = entity_index_.get();
  }
  linker_ = std::make_unique<linking::EntityLinker>(entity_index);
  understander_ = std::make_unique<QuestionUnderstander>(
      parser_.get(), dict, linker_.get(), options.understanding);
  match::TopKMatcher::Options matching = options.matching;
  if (matching.signatures == nullptr) {
    signatures_ = std::make_unique<rdf::SignatureIndex>(*graph);
    matching.signatures = signatures_.get();
  }
  if (matching.stats == nullptr) matching.stats = options.graph_stats;
  matcher_ = std::make_unique<match::TopKMatcher>(graph, matching);
  superlatives_ = std::make_unique<SuperlativeResolver>(graph);
  if (options.shared_cache != nullptr) {
    cache_ = options.shared_cache;
  } else if (options.question_cache_capacity > 0) {
    cache_ = std::make_shared<ShardedLruCache<Response>>(
        ShardedLruCache<Response>::Options{options.question_cache_capacity,
                                           options.question_cache_shards});
  }
}

std::string GAnswer::CacheKey(std::string_view question) const {
  // Normalized question text: lowercase, runs of whitespace collapsed to
  // one space, leading/trailing whitespace dropped — "Who  likes X?" and
  // "who likes X?" share an entry. The snapshot identity prefix makes
  // entries from different offline data unservable by construction.
  std::string key = std::to_string(options_.snapshot_identity);
  key += '\x1f';
  const size_t prefix_len = key.size();
  bool pending_space = false;
  for (char c : question) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = key.size() > prefix_len;
      continue;
    }
    if (pending_space) {
      key += ' ';
      pending_space = false;
    }
    key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key;
}

std::shared_ptr<const GAnswer::Response> GAnswer::ProbeCache(
    std::string_view question) const {
  if (cache_ == nullptr) return nullptr;
  return cache_->Get(CacheKey(question), /*count_miss=*/false);
}

GAnswer::CacheStats GAnswer::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CacheStats{};
}

void GAnswer::InvalidateCache() const {
  if (cache_ != nullptr) cache_->Clear();
}

match::QueryGraph GAnswer::ToQueryGraph(const SemanticQueryGraph& sqg) const {
  match::QueryGraph q;
  q.vertices.reserve(sqg.vertices.size());
  for (const SqgVertex& v : sqg.vertices) {
    match::QueryVertex qv;
    qv.candidates = v.candidates;
    qv.wildcard = v.wildcard;
    qv.wildcard_confidence = 1.0;
    q.vertices.push_back(std::move(qv));
  }
  q.edges.reserve(sqg.edges.size());
  for (const SqgEdge& e : sqg.edges) {
    match::QueryEdge qe;
    qe.from = e.from;
    qe.to = e.to;
    qe.candidates = e.candidates;
    qe.wildcard = e.wildcard;
    qe.wildcard_confidence =
        options_.understanding.wildcard_edge_confidence;
    q.edges.push_back(std::move(qe));
  }
  return q;
}

std::vector<StatusOr<GAnswer::Response>> GAnswer::BatchAnswer(
    const std::vector<std::string>& questions) const {
  std::vector<StatusOr<Response>> out(
      questions.size(),
      StatusOr<Response>(Status::Internal("question not processed")));
  ThreadPool::Run(options_.exec.threads, 0, questions.size(),
                  [&](size_t i) { out[i] = Ask(questions[i]); });
  return out;
}

StatusOr<GAnswer::Response> GAnswer::Ask(std::string_view question) const {
  if (cache_ == nullptr) return AskUncached(question);
  std::string key = CacheKey(question);
  if (std::shared_ptr<const Response> hit = cache_->Get(key)) {
    // Served entirely from the cache: neither understanding nor matching
    // ran, which the zeroed stage timers make observable.
    Response resp = *hit;
    resp.cache_hit = true;
    resp.understanding_ms = 0;
    resp.evaluation_ms = 0;
    return resp;
  }
  StatusOr<Response> computed = AskUncached(question);
  if (computed.ok()) cache_->Put(key, *computed);
  return computed;
}

StatusOr<GAnswer::Response> GAnswer::AskUncached(
    std::string_view question) const {
  Response resp;
  WallTimer timer;

  auto understood = understander_->Understand(question);
  if (!understood.ok()) {
    resp.failure = FailureStage::kParse;
    resp.understanding_ms = timer.ElapsedMillis();
    return resp;
  }
  resp.understanding = std::move(understood).value();
  resp.understanding_ms = timer.ElapsedMillis();

  const SemanticQueryGraph& sqg = resp.understanding.sqg;
  resp.is_ask = sqg.form == SemanticQueryGraph::QuestionForm::kAsk;

  if (sqg.vertices.empty()) {
    resp.failure = FailureStage::kNoRelations;
    return resp;
  }
  bool any_concrete = false;
  for (const SqgVertex& v : sqg.vertices) {
    if (!v.wildcard) any_concrete = true;
  }
  if (!any_concrete) {
    resp.failure = FailureStage::kNoLinking;
    return resp;
  }

  timer.Restart();
  match::QueryGraph query = ToQueryGraph(sqg);
  auto matches = matcher_->FindTopK(query, &resp.match_stats);
  if (!matches.ok()) {
    resp.evaluation_ms = timer.ElapsedMillis();
    resp.failure = FailureStage::kNoMatches;
    return resp;
  }
  resp.matches = std::move(matches).value();
  resp.evaluation_ms = timer.ElapsedMillis();

  if (resp.is_ask) {
    resp.ask_result = !resp.matches.empty();
    if (resp.matches.empty()) resp.failure = FailureStage::kNoMatches;
    return resp;
  }

  // Distinct target bindings, best score first.
  int target = sqg.target_vertex >= 0 ? sqg.target_vertex : 0;
  std::unordered_map<rdf::TermId, double> best;
  for (const match::Match& m : resp.matches) {
    rdf::TermId u = m.assignment[target];
    if (u == rdf::kInvalidTerm) continue;
    auto [it, inserted] = best.emplace(u, m.score);
    if (!inserted) it->second = std::max(it->second, m.score);
  }
  resp.answers.reserve(best.size());
  for (const auto& [u, score] : best) {
    Answer a;
    a.term = u;
    a.text = graph_->dict().text(u);
    a.score = score;
    resp.answers.push_back(std::move(a));
  }
  std::sort(resp.answers.begin(), resp.answers.end(),
            [](const Answer& a, const Answer& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.text < b.text;
            });
  // Dominated interpretations are not reported; the paper's system returns
  // fewer than k answers when the remaining matches are low-confidence.
  if (options_.answer_score_window > 0 && !resp.answers.empty()) {
    double cutoff = resp.answers.front().score - options_.answer_score_window;
    std::erase_if(resp.answers,
                  [&](const Answer& a) { return a.score < cutoff; });
  }
  // EXTENSION: superlative post-processing (paper's aggregation gap).
  // Runs after the confidence window (the argmax must not range over
  // dominated interpretations' answers) but BEFORE the top-k cut (it must
  // see every candidate of the winning interpretation).
  if (options_.enable_superlatives && !resp.answers.empty()) {
    auto detection = superlatives_->Detect(resp.understanding.tree);
    if (detection.has_value()) {
      std::vector<rdf::TermId> candidates;
      candidates.reserve(resp.answers.size());
      for (const Answer& a : resp.answers) candidates.push_back(a.term);
      std::vector<rdf::TermId> kept =
          superlatives_->Apply(*detection, candidates);
      if (!kept.empty()) {
        std::erase_if(resp.answers, [&](const Answer& a) {
          return std::find(kept.begin(), kept.end(), a.term) == kept.end();
        });
        resp.superlative_applied = true;
      }
    }
  }
  // EXTENSION: count questions ("How many ...") report the cardinality of
  // the (un-truncated) answer set.
  if (options_.enable_superlatives && !resp.answers.empty() &&
      SuperlativeResolver::DetectCount(resp.understanding.tree)) {
    Answer count;
    count.term = rdf::kInvalidTerm;
    count.text = std::to_string(resp.answers.size());
    count.score = resp.answers.front().score;
    resp.answers.assign(1, std::move(count));
    resp.superlative_applied = true;
  }
  // The system reports at most k answers (the paper evaluates "all top-10
  // correct").
  if (resp.answers.size() > options_.matching.k) {
    resp.answers.resize(options_.matching.k);
  }

  if (resp.answers.empty()) resp.failure = FailureStage::kNoMatches;
  return resp;
}

}  // namespace qa
}  // namespace ganswer
