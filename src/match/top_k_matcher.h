#ifndef GANSWER_MATCH_TOP_K_MATCHER_H_
#define GANSWER_MATCH_TOP_K_MATCHER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "match/candidates.h"
#include "match/query_graph.h"
#include "match/subgraph_matcher.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace match {

/// \brief Algorithm 3: TA-style top-k subgraph matching.
///
/// Every non-wildcard query vertex keeps a cursor into its confidence-sorted
/// candidate domain. Each round probes, for every list, an anchored subgraph
/// search from the cursor candidate (SubgraphMatcher), updates the running
/// top-k threshold theta, advances the cursors, and recomputes the upper
/// bound of Equation 3 for all still-undiscovered matches:
///
///   Upbound = sum_v log(delta_v at cursor) + sum_e log(delta_e best)
///
/// Any match not yet found uses, in every vertex list, a candidate at or
/// below the cursor (otherwise the anchored search from that candidate
/// would have found it), so its score cannot exceed Upbound; the loop stops
/// as soon as theta >= Upbound (the TA stopping rule). Matches tied with
/// the k-th score are all kept, as the paper specifies.
///
/// Result order is the pinned total order MatchOrder (query_graph.h): score
/// descending, equal scores broken by assignment lexicographically — so the
/// serial and parallel paths return byte-identical lists, and the
/// enumerate-and-rank oracle (tests/oracle/) can compare rank by rank.
class TopKMatcher {
 public:
  struct Options {
    size_t k = 10;
    /// Neighborhood-based candidate pruning (Sec. 4.2.2 pruning 1).
    bool neighborhood_pruning = true;
    /// TA early termination; disabled = exhaust all candidate lists
    /// (the ablation baseline).
    bool ta_early_stop = true;
    /// Cap on matches gathered per anchored search (0 = unlimited).
    size_t max_matches_per_anchor = 512;
    /// Overall safety cap on distinct matches considered.
    size_t max_total_matches = 20000;
    /// Optional gStore-style signature index (rdf/signature_index.h) used
    /// as a fast pre-check by the neighborhood pruning. Must outlive the
    /// matcher. Results are identical with or without it.
    const rdf::SignatureIndex* signatures = nullptr;
    /// Graph statistics (rdf/graph_stats.h) steering candidate build
    /// order, anchor order and the per-search expansion plan by estimated
    /// cost; must describe the graph and outlive the matcher. When null the
    /// constructor computes them (one pass over the graph). Pure ordering
    /// heuristic: the ranked matches do not depend on them.
    const rdf::GraphStats* stats = nullptr;
    /// Parallelism for the per-round anchored searches: each round's cursor
    /// candidates fan out across a thread pool, every worker running an
    /// independent SubgraphMatcher into a thread-local buffer over the
    /// shared read-only graph and candidate space; buffers merge back in
    /// cursor order, so the match list is byte-identical to threads=1.
    ExecutionOptions exec;
  };

  struct RunStats {
    size_t rounds = 0;
    size_t anchored_searches = 0;
    size_t expansions = 0;
    size_t distinct_matches = 0;
    bool stopped_early = false;
  };

  /// \p graph must be finalized and outlive the matcher.
  explicit TopKMatcher(const rdf::RdfGraph* graph);
  TopKMatcher(const rdf::RdfGraph* graph, Options options);

  /// Top-k matches of \p query, best score first. Fails with
  /// InvalidArgument when every query vertex is a wildcard (nothing to
  /// anchor the search). A query with no edges is a single-vertex lookup:
  /// its domain items become the matches.
  StatusOr<std::vector<Match>> FindTopK(const QueryGraph& query,
                                        RunStats* stats = nullptr) const;

  const Options& options() const { return options_; }

 private:
  const rdf::RdfGraph* graph_;
  Options options_;
  /// Computed by the constructor when options.stats is null.
  std::unique_ptr<rdf::GraphStats> owned_stats_;
  const rdf::GraphStats* stats_;  // never null after construction
};

}  // namespace match
}  // namespace ganswer

#endif  // GANSWER_MATCH_TOP_K_MATCHER_H_
