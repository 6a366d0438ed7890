#ifndef GANSWER_MATCH_SUBGRAPH_MATCHER_H_
#define GANSWER_MATCH_SUBGRAPH_MATCHER_H_

#include <cstddef>
#include <vector>

#include "match/candidates.h"
#include "match/query_graph.h"
#include "rdf/graph_stats.h"

namespace ganswer {
namespace match {

/// \brief Anchored exploration-based subgraph isomorphism in the VF2 style
/// (Sec. 4.2.2, Algorithm 3 line 9): finds matches of the query graph that
/// contain a given (query vertex -> graph vertex) anchor pair.
///
/// The search extends the partial mapping one query vertex at a time along
/// query edges, expanding RDF neighbors admissible for the connecting
/// edge's candidate predicates/paths, checking the new vertex against the
/// target query vertex's candidate domain, the remaining connecting edges,
/// and injectivity. Scores follow Definition 6.
///
/// The visit order and the expansion edge at each step are chosen by
/// GraphStats' estimated fan-out (cheapest edge first), and the remaining
/// back edges are checked cheapest first. The statistics only order the
/// work: the accepted match set is fixed by the candidate space and the
/// graph, and each step enumerates in ascending neighbor id order (the
/// sorted Expand lists).
class SubgraphMatcher {
 public:
  struct Stats {
    size_t expansions = 0;
    size_t complete_matches = 0;
  };

  /// \p graph, \p query, \p space and \p stats must outlive the matcher;
  /// \p stats describes \p graph and steers the search plan by estimated
  /// edge fan-out.
  SubgraphMatcher(const rdf::RdfGraph* graph, const QueryGraph* query,
                  const CandidateSpace* space, const rdf::GraphStats& stats);

  /// Appends to \p out every match whose query vertex \p anchor_qv maps to
  /// graph vertex \p anchor_u, stopping after \p limit matches (0 = no
  /// limit). Only the connected component (of the query graph) containing
  /// \p anchor_qv is matched; vertices outside it keep kInvalidTerm in the
  /// assignment.
  void FindMatchesFrom(int anchor_qv, rdf::TermId anchor_u, size_t limit,
                       std::vector<Match>* out) const;

  const Stats& stats() const { return stats_; }

 private:
  struct SearchPlan {
    /// Query vertices in visit order (anchor first).
    std::vector<int> order;
    /// For order[i] (i>0): edges connecting it to already-visited vertices,
    /// cheapest estimated fan-out first; the first is the expansion edge,
    /// the rest are membership filters.
    std::vector<std::vector<int>> back_edges;
  };

  SearchPlan PlanFrom(int anchor_qv) const;
  /// Estimated neighbor fan-out of expanding across \p edge; used only to
  /// order the plan, never to filter.
  double EdgeCost(const QueryEdge& edge) const;
  double ScoreAssignment(const std::vector<rdf::TermId>& assignment,
                         const SearchPlan& plan) const;

  const rdf::RdfGraph* graph_;
  const QueryGraph* query_;
  const CandidateSpace* space_;
  const rdf::GraphStats& graph_stats_;
  mutable Stats stats_;
};

}  // namespace match
}  // namespace ganswer

#endif  // GANSWER_MATCH_SUBGRAPH_MATCHER_H_
