// Linker hooks that time the layer calls nested inside qa::GAnswer::Ask.
//
// CMakeLists.txt defines the QABENCH_<NAME> macros below to the mangled
// symbols of the hooked functions and links qabench with
// -Wl,--wrap=<symbol> for each, so every call to one of them from another
// object file lands in the matching __wrap_ function, and __real_<symbol>
// names the original. With
// no SpanRecorder attached to the calling thread (the HTTP run, server
// workers) a hook only forwards. A change that renames or re-signs one of
// these functions must update its entry in CMakeLists.txt, or the link
// fails on the missing __real_ symbol.
//
// Member functions are declared as free functions taking `this` first,
// which is how the Itanium C++ ABI passes them.

#include <string_view>
#include <vector>

#include "linking/entity_linker.h"
#include "match/candidates.h"
#include "match/top_k_matcher.h"
#include "nlp/dependency_parser.h"
#include "qa/question_understander.h"
#include "qa/relation_extractor.h"
#include "trace.h"

using ganswer::StatusOr;
namespace linking = ganswer::linking;
namespace match = ganswer::match;
namespace nlp = ganswer::nlp;
namespace qa = ganswer::qa;
namespace rdf = ganswer::rdf;
using qabench::ScopedSpan;
using qabench::SpanName;
using qabench::SpanRecorder;

#define QABENCH_CAT2(a, b) a##b
#define QABENCH_CAT(a, b) QABENCH_CAT2(a, b)
#define REAL(sym) QABENCH_CAT(__real_, sym)
#define WRAP(sym) QABENCH_CAT(__wrap_, sym)

extern "C" {

StatusOr<nlp::DependencyTree> REAL(QABENCH_PARSE)(
    const nlp::DependencyParser* self, std::string_view question)
   ;
std::vector<qa::Embedding> REAL(QABENCH_FIND_EMBEDDINGS)(
    const qa::RelationExtractor* self, const nlp::DependencyTree& tree)
   ;
std::vector<qa::Embedding> REAL(QABENCH_FIND_DEFAULT)(
    const qa::RelationExtractor* self, const nlp::DependencyTree& tree,
    const std::vector<qa::Embedding>& embeddings);
StatusOr<qa::QuestionUnderstander::Result> REAL(QABENCH_UNDERSTAND)(
    const qa::QuestionUnderstander* self, std::string_view question)
   ;
std::vector<linking::LinkCandidate> REAL(QABENCH_LINK)(
    const linking::EntityLinker* self, std::string_view phrase)
   ;
match::CandidateSpace REAL(QABENCH_BUILD)(
    const rdf::RdfGraph& graph, const match::QueryGraph& query,
    bool neighborhood_pruning, const rdf::SignatureIndex* signatures,
    const rdf::GraphStats* stats);
StatusOr<std::vector<match::Match>> REAL(QABENCH_FIND_TOPK)(
    const match::TopKMatcher* self, const match::QueryGraph& query,
    match::TopKMatcher::RunStats* stats);

StatusOr<nlp::DependencyTree> WRAP(QABENCH_PARSE)(
    const nlp::DependencyParser* self, std::string_view question) {
  SpanRecorder* recorder = SpanRecorder::Current();
  if (recorder == nullptr) return REAL(QABENCH_PARSE)(self, question);
  StatusOr<nlp::DependencyTree> tree = [&] {
    ScopedSpan span(SpanName::kParse);
    return REAL(QABENCH_PARSE)(self, question);
  }();
  ++recorder->counts().parses;
  if (tree.ok()) recorder->counts().tokens += tree->size();
  return tree;
}

std::vector<qa::Embedding> WRAP(QABENCH_FIND_EMBEDDINGS)(
    const qa::RelationExtractor* self, const nlp::DependencyTree& tree) {
  ScopedSpan span(SpanName::kExtract);
  return REAL(QABENCH_FIND_EMBEDDINGS)(self, tree);
}

std::vector<qa::Embedding> WRAP(QABENCH_FIND_DEFAULT)(
    const qa::RelationExtractor* self, const nlp::DependencyTree& tree,
    const std::vector<qa::Embedding>& embeddings) {
  ScopedSpan span(SpanName::kExtract);
  return REAL(QABENCH_FIND_DEFAULT)(self, tree, embeddings);
}

StatusOr<qa::QuestionUnderstander::Result> WRAP(QABENCH_UNDERSTAND)(
    const qa::QuestionUnderstander* self, std::string_view question) {
  SpanRecorder* recorder = SpanRecorder::Current();
  if (recorder == nullptr) return REAL(QABENCH_UNDERSTAND)(self, question);
  StatusOr<qa::QuestionUnderstander::Result> result = [&] {
    ScopedSpan span(SpanName::kUnderstand);
    return REAL(QABENCH_UNDERSTAND)(self, question);
  }();
  ++recorder->counts().understands;
  if (result.ok()) recorder->counts().relations += result->relations.size();
  return result;
}

std::vector<linking::LinkCandidate> WRAP(QABENCH_LINK)(
    const linking::EntityLinker* self, std::string_view phrase) {
  SpanRecorder* recorder = SpanRecorder::Current();
  if (recorder == nullptr) return REAL(QABENCH_LINK)(self, phrase);
  std::vector<linking::LinkCandidate> out = [&] {
    ScopedSpan span(SpanName::kLink);
    return REAL(QABENCH_LINK)(self, phrase);
  }();
  ++recorder->counts().link_calls;
  recorder->counts().link_candidates += out.size();
  return out;
}

match::CandidateSpace WRAP(QABENCH_BUILD)(
    const rdf::RdfGraph& graph, const match::QueryGraph& query,
    bool neighborhood_pruning, const rdf::SignatureIndex* signatures,
    const rdf::GraphStats* stats) {
  SpanRecorder* recorder = SpanRecorder::Current();
  if (recorder == nullptr) {
    return REAL(QABENCH_BUILD)(graph, query, neighborhood_pruning, signatures,
                               stats);
  }
  match::CandidateSpace space = [&] {
    ScopedSpan span(SpanName::kCandidates);
    return REAL(QABENCH_BUILD)(graph, query, neighborhood_pruning,
                               signatures, stats);
  }();
  ++recorder->counts().candidate_builds;
  for (size_t v = 0; v < space.NumVertices(); ++v) {
    recorder->counts().domain_size +=
        space.domain(static_cast<int>(v)).items.size();
  }
  return space;
}

StatusOr<std::vector<match::Match>> WRAP(QABENCH_FIND_TOPK)(
    const match::TopKMatcher* self, const match::QueryGraph& query,
    match::TopKMatcher::RunStats* stats) {
  SpanRecorder* recorder = SpanRecorder::Current();
  if (recorder == nullptr) return REAL(QABENCH_FIND_TOPK)(self, query, stats);
  match::TopKMatcher::RunStats local;
  match::TopKMatcher::RunStats* out_stats = stats != nullptr ? stats : &local;
  StatusOr<std::vector<match::Match>> matches = [&] {
    ScopedSpan span(SpanName::kTopK);
    return REAL(QABENCH_FIND_TOPK)(self, query, out_stats);
  }();
  qabench::LayerCounts& counts = recorder->counts();
  ++counts.topk_calls;
  counts.rounds += out_stats->rounds;
  counts.anchored_searches += out_stats->anchored_searches;
  counts.expansions += out_stats->expansions;
  counts.distinct_matches += out_stats->distinct_matches;
  if (matches.ok()) counts.returned_matches += matches->size();
  return matches;
}

}  // extern "C"
