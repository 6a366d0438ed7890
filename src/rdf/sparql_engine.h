#ifndef GANSWER_RDF_SPARQL_ENGINE_H_
#define GANSWER_RDF_SPARQL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "rdf/graph_stats.h"
#include "rdf/rdf_graph.h"
#include "rdf/sparql.h"

namespace ganswer {
namespace rdf {

/// \brief Basic-graph-pattern evaluator over an RdfGraph with a
/// statistics-driven cost-based join planner.
///
/// Storage: two sorted permutation indexes built in one counting pass over
/// the CSR adjacency (no hashing, no sorting) — PSO (per-predicate (s, o)
/// pairs sorted by subject) and POS (per-predicate (o, s) pairs sorted by
/// object). Bound terms resolve to contiguous runs by binary search; a
/// leading pair of patterns with a shared join variable on the sorted side
/// of both groups is evaluated as a sort-merge join.
///
/// Planning: a greedy cost-based orderer over GraphStats picks the
/// cheapest-estimated pattern first, then repeatedly the pattern connected
/// to the bound variables that minimizes the estimated intermediate-result
/// size (cross products only when no connected pattern remains). One plan
/// value fixes the join order, each step's access path and whether the
/// first two steps run as the merge join; Execute runs it and ExplainPlan
/// renders it.
class SparqlEngine {
 public:
  struct Options {
    /// Statistics backing the cost model; must outlive the engine. When
    /// null the engine computes (and owns) its own from the graph.
    const GraphStats* stats = nullptr;
  };

  /// Cumulative execution counters, exact across the server workers that
  /// share one engine; each query adds its totals once. Benches read
  /// deltas around a workload to get per-query intermediate-binding
  /// counts.
  struct PlannerCounters {
    /// Queries whose BGP went through the cost-based orderer.
    uint64_t planned_queries = 0;
    /// Bound-term lookups answered by a binary-searched sorted run
    /// (adjacency runs, PSO/POS ranges, exact HasTriple probes).
    uint64_t range_lookups = 0;
    /// Whole-predicate (or whole-graph) scans.
    uint64_t full_scans = 0;
    /// Candidate triples enumerated across all join steps — the
    /// intermediate-binding count the planner tries to minimize.
    uint64_t intermediate_bindings = 0;
    /// Leading sort-merge joins executed.
    uint64_t merge_joins = 0;
  };

  /// \p graph must be finalized and must outlive the engine.
  explicit SparqlEngine(const RdfGraph& graph);
  SparqlEngine(const RdfGraph& graph, Options options);

  /// Evaluates \p query. Fails with InvalidArgument for queries that use a
  /// selected variable not bound by any pattern. Thread-safe.
  StatusOr<SparqlResult> Execute(const SparqlQuery& query) const;

  /// Parses and evaluates SPARQL text.
  StatusOr<SparqlResult> ExecuteText(std::string_view text) const;

  /// Human-readable join plan for \p query: one line per pattern in
  /// execution order with its cardinality estimate and access path (the
  /// leading merge join when Execute takes it). The explain subsystem
  /// (qa/explain.h) includes this in answer explanations.
  StatusOr<std::string> ExplainPlan(const SparqlQuery& query) const;

  /// Snapshot of the cumulative execution counters.
  PlannerCounters planner_counters() const;

  const GraphStats& stats() const { return *stats_; }

 private:
  StatusOr<std::vector<std::vector<TermId>>> EvaluateBgp(
      const std::vector<TriplePattern>& patterns,
      const std::vector<std::string>& out_vars, bool stop_at_first) const;

  /// Slot of predicate \p p in the permutation indexes, or npos.
  size_t PredSlot(TermId p) const;

  const RdfGraph& graph_;
  std::unique_ptr<GraphStats> owned_stats_;
  const GraphStats* stats_ = nullptr;  // never null after construction

  // Sorted permutation indexes. Predicate slot k's pairs occupy
  // [slot_offsets_[k], slot_offsets_[k + 1]) in both arrays; PSO and POS
  // group sizes are identical, so one offset array serves both.
  std::vector<TermId> slot_predicate_;                // slot -> predicate id
  std::vector<uint32_t> pred_slot_;                   // TermId -> slot
  std::vector<size_t> slot_offsets_;                  // num slots + 1
  std::vector<std::pair<TermId, TermId>> pso_;        // (s, o), sorted
  std::vector<std::pair<TermId, TermId>> pos_;        // (o, s), sorted

  mutable std::atomic<uint64_t> planned_queries_{0};
  mutable std::atomic<uint64_t> range_lookups_{0};
  mutable std::atomic<uint64_t> full_scans_{0};
  mutable std::atomic<uint64_t> intermediate_bindings_{0};
  mutable std::atomic<uint64_t> merge_joins_{0};
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_SPARQL_ENGINE_H_
