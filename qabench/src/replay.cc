#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/timer.h"
#include "nlp/lexicon.h"
#include "qa/ganswer.h"
#include "qa/sparql_output.h"
#include "rdf/sparql_engine.h"
#include "rdf/sparql_parser.h"
#include "stats.h"
#include "store/live/live_kb.h"
#include "store/snapshot.h"
#include "trace.h"

namespace qabench {

namespace {

namespace qa = ganswer::qa;
namespace rdf = ganswer::rdf;
namespace live = ganswer::store::live;

constexpr size_t kSparqlTopK = 3;  // QaService's default sparql_top_k

/// Spans grouped by name, with self times, for the metric roll-up.
class SpanTable {
 public:
  explicit SpanTable(const std::vector<Span>& spans)
      : spans_(spans), self_(SelfTimesNs(spans)) {}

  /// Inclusive durations (us) of every span named \p name.
  std::vector<double> Durations(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }
  std::vector<double> SelfTimes(SpanName name) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(self_[i] / 1e3);
    }
    return out;
  }
  /// Per \p parent_name span: summed inclusive time of its \p child
  /// children (us).
  std::vector<double> ChildSums(SpanName parent_name, SpanName child) const {
    std::map<int32_t, double> sums;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == parent_name) sums[static_cast<int32_t>(i)] = 0;
    }
    for (const Span& s : spans_) {
      if (s.name != child || s.parent < 0) continue;
      auto it = sums.find(s.parent);
      if (it != sums.end()) it->second += (s.end_ns - s.start_ns) / 1e3;
    }
    std::vector<double> out;
    for (const auto& [index, sum] : sums) out.push_back(sum);
    return out;
  }
  bool Has(SpanName name) const {
    return std::any_of(spans_.begin(), spans_.end(),
                       [&](const Span& s) { return s.name == name; });
  }
  /// Every qa.ask span's duration equals the self times of its subtree.
  bool AskSelfTimesSumToAsk() const {
    std::vector<int64_t> subtree(spans_.size(), 0);
    // Children always follow their parent, so one backward pass folds
    // every subtree into its root.
    for (size_t i = spans_.size(); i-- > 0;) {
      subtree[i] += self_[i];
      if (spans_[i].parent >= 0 && spans_[i].name != SpanName::kRequest) {
        subtree[static_cast<size_t>(spans_[i].parent)] += subtree[i];
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == SpanName::kAsk &&
          subtree[i] != spans_[i].end_ns - spans_[i].start_ns) {
        return false;
      }
    }
    return true;
  }

 private:
  const std::vector<Span>& spans_;
  std::vector<int64_t> self_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sums Ask time over \p questions, with spans recorded or not.
double TimeAsks(const qa::GAnswer& system,
                const std::vector<std::string>& questions, bool traced) {
  SpanRecorder scratch;
  if (traced) scratch.Attach();
  ganswer::WallTimer timer;
  for (const std::string& q : questions) {
    ScopedSpan span(SpanName::kAsk);
    auto r = system.Ask(q);
    (void)r;
  }
  double ms = timer.ElapsedMillis();
  scratch.Detach();
  return ms;
}

}  // namespace

qa::GAnswer::Options ServingOptions(const ganswer::store::Snapshot& snapshot,
                                    size_t cache_capacity) {
  qa::GAnswer::Options options;
  options.entity_index = snapshot.entity_index.get();
  options.matching.signatures = snapshot.signatures.get();
  options.graph_stats = snapshot.stats.get();
  options.snapshot_identity = snapshot.fingerprint;
  options.question_cache_capacity = cache_capacity;
  options.matching.exec.threads = 1;
  return options;
}

ReplayResult RunTracedReplay(const ReplayInputs& in,
                             const std::string& trace_path) {
  ReplayResult out;
  auto& m = out.metrics;
  ganswer::nlp::Lexicon lexicon;
  ganswer::WallTimer timer;
  auto loaded = ganswer::store::ReadSnapshotFile(in.snapshot_path, &lexicon);
  if (!loaded.ok()) {
    out.error = "snapshot load: " + loaded.status().ToString();
    return out;
  }
  m["store.snapshot_load_ms"] = timer.ElapsedMillis();
  const ganswer::store::Snapshot& snapshot = *loaded;
  const rdf::RdfGraph& graph = *snapshot.graph;
  qa::GAnswer system(&graph, &lexicon, snapshot.dictionary.get(),
                     ServingOptions(snapshot, in.question_cache_capacity));
  qa::GAnswer uncached(&graph, &lexicon, snapshot.dictionary.get(),
                       ServingOptions(snapshot, 0));
  rdf::SparqlEngine::Options engine_options;
  engine_options.stats = snapshot.stats.get();
  rdf::SparqlEngine engine(graph, engine_options);

  // Tracing overhead: Ask time over the same questions with spans off and
  // on, alternated to cancel drift.
  double off_ms = 0, on_ms = 0;
  for (int pass = 0; pass < 2; ++pass) {
    off_ms += TimeAsks(uncached, in.overhead_questions, false);
    on_ms += TimeAsks(uncached, in.overhead_questions, true);
  }
  m["trace.overhead_pct"] = Ratio(on_ms - off_ms, off_ms) * 100.0;

  std::vector<rdf::SparqlQuery> parsed;
  for (const std::string& text : in.texts->sparql) {
    auto q = rdf::SparqlParser::Parse(text);
    if (!q.ok()) {
      out.error = "unparseable query: " + text;
      return out;
    }
    parsed.push_back(std::move(q).value());
  }

  std::filesystem::remove_all(in.live_dir);
  live::LiveKb::Options live_options;
  live_options.dir = in.live_dir;
  live_options.base_snapshot = in.snapshot_path;
  live_options.lexicon = &lexicon;
  live_options.question_cache_capacity = in.question_cache_capacity;
  live_options.compact_threshold = in.compact_threshold;
  live_options.qa.matching.exec.threads = 1;
  auto opened = live::LiveKb::Open(std::move(live_options));
  if (!opened.ok()) {
    out.error = "live store: " + opened.status().ToString();
    return out;
  }
  std::unique_ptr<live::LiveKb> store = std::move(opened).value();

  SpanRecorder recorder;
  recorder.Attach();
  uint64_t request_id = 0;
  std::vector<double> apply_ms;
  std::vector<double> wal_growth;
  uint64_t rows = 0;
  uint64_t executes = 0;
  const rdf::SparqlEngine::PlannerCounters before = engine.planner_counters();

  auto apply = [&](uint32_t item) {
    recorder.set_request(++request_id);
    uint64_t wal_before = store->counters().wal_bytes;
    ganswer::WallTimer t;
    {
      ScopedSpan request(SpanName::kRequest);
      ScopedSpan span(SpanName::kApply);
      auto r = store->ApplyText(in.texts->update[item]);
      if (!r.ok() && out.error.empty()) {
        out.error = "live apply: " + r.status().ToString();
      }
    }
    apply_ms.push_back(t.ElapsedMillis());
    uint64_t wal_after = store->counters().wal_bytes;
    if (wal_after > wal_before) {
      wal_growth.push_back(static_cast<double>(wal_after - wal_before));
    }
  };
  auto execute = [&](const rdf::SparqlQuery& query) {
    ScopedSpan span(SpanName::kExecute);
    auto r = engine.Execute(query);
    ++executes;
    if (r.ok()) rows += r->rows.size();
  };
  auto answer = [&](const qa::GAnswer& sys, const std::string& question,
                    size_t sparql_k, bool probe_rdf) {
    recorder.set_request(++request_id);
    ScopedSpan request(SpanName::kRequest);
    ganswer::StatusOr<qa::GAnswer::Response> r = [&] {
      ScopedSpan span(SpanName::kAsk);
      return sys.Ask(question);
    }();
    if (!r.ok() || r->matches.empty()) return;
    if (!r->cache_hit) {
      ScopedSpan span(SpanName::kToQueryGraph);
      auto q = sys.ToQueryGraph(r->understanding.sqg);
      (void)q;
    }
    std::vector<rdf::SparqlQuery> queries = [&] {
      ScopedSpan span(SpanName::kSparqlOutput);
      return qa::SparqlOutput::TopKQueries(r->understanding.sqg, r->matches,
                                           sys.graph(), sparql_k);
    }();
    // The rdf layer on /answer workloads: run the top lowered query, as a
    // client of the "sparql" field would. Not on the /answer path itself.
    if (probe_rdf && !r->cache_hit && !queries.empty()) execute(queries[0]);
  };

  for (const std::string& q : in.lowering_questions) {
    answer(uncached, q, 1, false);
  }
  if (!in.live) {
    for (uint32_t b = 0;
         b < kLiveProbeBatches && b < in.texts->update.size(); ++b) {
      apply(b);
    }
  }
  auto replay = [&](const std::vector<Request>& requests) {
    for (const Request& r : requests) {
      switch (r.endpoint) {
        case Endpoint::kAnswer:
          if (in.live) {
            std::shared_ptr<const live::KbView> view = store->view();
            answer(view->qa(), in.texts->answer[r.item], kSparqlTopK, true);
          } else {
            answer(system, in.texts->answer[r.item], kSparqlTopK, true);
          }
          break;
        case Endpoint::kSparql: {
          recorder.set_request(++request_id);
          ScopedSpan request(SpanName::kRequest);
          execute(parsed[r.item]);
          break;
        }
        case Endpoint::kUpdate:
          apply(r.item);
          break;
      }
    }
  };
  replay(in.warmup);
  replay(in.stream);
  recorder.Detach();
  out.requests = request_id;

  const rdf::SparqlEngine::PlannerCounters after = engine.planner_counters();
  live::LiveKb::IngestCounters ingest = store->counters();
  store.reset();
  std::filesystem::remove_all(in.live_dir);

  const SpanTable table(recorder.spans());
  const LayerCounts& c = recorder.counts();
  // Every workload's replay asks uncached questions (warm-up or lowering),
  // so each linker hook must have fired. A hook that stops firing (the
  // call was inlined or moved into its caller's object file) would
  // otherwise charge its layer's time to qa.ask self time unnoticed.
  const std::pair<bool, const char*> hooks[] = {
      {c.parses > 0 && table.Has(SpanName::kParse), "DependencyParser::Parse"},
      {c.understands > 0 && table.Has(SpanName::kUnderstand),
       "QuestionUnderstander::Understand"},
      {table.Has(SpanName::kExtract), "RelationExtractor::FindEmbeddings"},
      {c.link_calls > 0 && table.Has(SpanName::kLink), "EntityLinker::Link"},
      {c.candidate_builds > 0 && table.Has(SpanName::kCandidates),
       "CandidateSpace::Build"},
      {c.topk_calls > 0 && table.Has(SpanName::kTopK),
       "TopKMatcher::FindTopK"},
  };
  for (const auto& [fired, call] : hooks) {
    if (!fired && out.error.empty()) {
      out.error = std::string("no span recorded for ") + call;
    }
  }
  if (!table.AskSelfTimesSumToAsk() && out.error.empty()) {
    out.error = "span self times do not sum to their qa.ask span";
  }
  if (!recorder.WriteTsv(trace_path) && out.error.empty()) {
    out.error = "cannot write " + trace_path;
  }

  auto p50 = [](std::vector<double> v) { return Summarize(std::move(v)).p50; };
  auto p99 = [](std::vector<double> v) { return Summarize(std::move(v)).At(99); };
  m["nlp.parse_us"] = p50(table.Durations(SpanName::kParse));
  m["nlp.tokens"] = Ratio(c.tokens, c.parses);
  m["qa.extract_us"] = p50(table.ChildSums(SpanName::kUnderstand,
                                           SpanName::kExtract));
  m["qa.relations"] = Ratio(c.relations, c.understands);
  m["qa.understand_us"] = p50(table.Durations(SpanName::kUnderstand));
  m["qa.understand_self_us"] = p50(table.SelfTimes(SpanName::kUnderstand));
  m["qa.to_query_graph_us"] = p50(table.Durations(SpanName::kToQueryGraph));
  m["qa.ask_self_us"] = p50(table.SelfTimes(SpanName::kAsk));
  m["qa.ask_us"] = p50(table.Durations(SpanName::kAsk));
  m["qa.ask_p99_us"] = p99(table.Durations(SpanName::kAsk));
  m["qa.sparql_output_us"] = p50(table.Durations(SpanName::kSparqlOutput));
  m["linking.link_us"] = p50(table.Durations(SpanName::kLink));
  m["linking.link_per_question_us"] =
      p50(table.ChildSums(SpanName::kUnderstand, SpanName::kLink));
  m["linking.calls"] = Ratio(c.link_calls, c.understands);
  m["linking.candidates"] = Ratio(c.link_candidates, c.link_calls);
  m["match.candidates_us"] = p50(table.Durations(SpanName::kCandidates));
  m["match.domain_size"] = Ratio(c.domain_size, c.candidate_builds);
  m["match.topk_us"] = p50(table.Durations(SpanName::kTopK));
  m["match.topk_p99_us"] = p99(table.Durations(SpanName::kTopK));
  m["match.rounds"] = Ratio(c.rounds, c.topk_calls);
  m["match.anchored_searches"] = Ratio(c.anchored_searches, c.topk_calls);
  m["match.expansions"] = Ratio(c.expansions, c.topk_calls);
  m["match.useful_ratio"] = Ratio(c.returned_matches, c.distinct_matches);
  m["rdf.execute_us"] = p50(table.Durations(SpanName::kExecute));
  m["rdf.execute_p99_us"] = p99(table.Durations(SpanName::kExecute));
  m["rdf.bindings_per_row"] = Ratio(
      static_cast<double>(after.intermediate_bindings -
                          before.intermediate_bindings),
      static_cast<double>(rows));
  m["rdf.range_lookups"] = Ratio(after.range_lookups - before.range_lookups,
                                 executes);
  m["rdf.full_scans"] = Ratio(after.full_scans - before.full_scans, executes);
  m["rdf.merge_joins"] = Ratio(after.merge_joins - before.merge_joins,
                               executes);
  Summary applied = Summarize(apply_ms);
  m["live.apply_p50_ms"] = applied.p50;
  m["live.apply_p99_ms"] = applied.At(99);
  m["live.wal_bytes_per_batch"] = Summarize(wal_growth).mean;
  m["live.compactions"] = static_cast<double>(ingest.compactions);
  m["live.compaction_ms"] = ingest.last_compaction_ms;
  m["live.delta_triples"] = static_cast<double>(ingest.delta_triples);
  return out;
}

}  // namespace qabench
