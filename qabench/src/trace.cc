#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace qabench {

namespace {
thread_local SpanRecorder* t_recorder = nullptr;
}  // namespace

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kAsk: return "qa.ask";
    case SpanName::kUnderstand: return "qa.understand";
    case SpanName::kParse: return "nlp.parse";
    case SpanName::kExtract: return "qa.extract";
    case SpanName::kLink: return "linking.link";
    case SpanName::kToQueryGraph: return "qa.to_query_graph";
    case SpanName::kCandidates: return "match.candidates";
    case SpanName::kTopK: return "match.topk";
    case SpanName::kSparqlOutput: return "qa.sparql_output";
    case SpanName::kExecute: return "rdf.execute";
    case SpanName::kApply: return "live.apply";
    case SpanName::kNumNames: break;
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::~SpanRecorder() { Detach(); }

void SpanRecorder::Attach() { t_recorder = this; }

void SpanRecorder::Detach() {
  if (t_recorder == this) t_recorder = nullptr;
}

SpanRecorder* SpanRecorder::Current() { return t_recorder; }

int SpanRecorder::Open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_.clear();
  counts_ = LayerCounts{};
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimesNs(spans_);
  std::fprintf(f, "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%d\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.request), i, s.parent,
                 SpanNameText(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanName name) : recorder_(SpanRecorder::Current()) {
  if (recorder_ != nullptr) index_ = recorder_->Open(name);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->Close(index_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace qabench
