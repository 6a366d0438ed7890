#ifndef QABENCH_TRACE_H_
#define QABENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qabench {

/// Layer boundaries the traced replay records. The benchmark opens spans
/// around its own calls into the program; the linker hooks in
/// layer_hooks.cc open the ones nested inside those calls.
enum class SpanName : uint8_t {
  kRequest,        ///< One replayed request (root).
  kAsk,            ///< qa::GAnswer::Ask
  kUnderstand,     ///< qa::QuestionUnderstander::Understand
  kParse,          ///< nlp::DependencyParser::Parse
  kExtract,        ///< qa::RelationExtractor::Find{,DefaultPrep}Embeddings
  kLink,           ///< linking::EntityLinker::Link
  kToQueryGraph,   ///< qa::GAnswer::ToQueryGraph
  kCandidates,     ///< match::CandidateSpace::Build
  kTopK,           ///< match::TopKMatcher::FindTopK
  kSparqlOutput,   ///< qa::SparqlOutput::TopKQueries
  kExecute,        ///< rdf::SparqlEngine::Execute
  kApply,          ///< store::live::LiveKb::Apply
  kNumNames,
};

const char* SpanNameText(SpanName name);

struct Span {
  SpanName name = SpanName::kRequest;
  int32_t parent = -1;  ///< Index of the enclosing span, -1 for a root.
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Work counted at the same boundaries as the spans.
struct LayerCounts {
  uint64_t parses = 0;
  uint64_t tokens = 0;
  uint64_t understands = 0;
  uint64_t relations = 0;
  uint64_t link_calls = 0;
  uint64_t link_candidates = 0;
  uint64_t candidate_builds = 0;
  uint64_t domain_size = 0;  ///< Sum of |C(v)| after pruning.
  uint64_t topk_calls = 0;
  uint64_t rounds = 0;
  uint64_t anchored_searches = 0;
  uint64_t expansions = 0;
  uint64_t distinct_matches = 0;
  uint64_t returned_matches = 0;
};

/// \brief In-memory span buffer for one thread.
///
/// Attach() makes it the calling thread's recorder; spans opened on any
/// other thread (server workers, the compaction thread) are not recorded,
/// so the untraced paths pay one thread-local load per hooked call.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Attach();
  void Detach();
  /// The calling thread's attached recorder, or null.
  static SpanRecorder* Current();

  void set_request(uint64_t id) { request_ = id; }
  int Open(SpanName name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  LayerCounts& counts() { return counts_; }
  void Clear();

  /// Writes one tab-separated line per span: request, index, parent,
  /// name, start_ns, end_ns, self_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  LayerCounts counts_;
  uint64_t request_ = 0;
};

/// Opens a span on the current thread's recorder for its lifetime; a
/// no-op when no recorder is attached.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_ = -1;
};

int64_t NowNs();

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children clipped to the
/// parent, overlaps counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace qabench

#endif  // QABENCH_TRACE_H_
