#include "match/subgraph_matcher.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>

namespace ganswer {
namespace match {

SubgraphMatcher::SubgraphMatcher(const rdf::RdfGraph* graph,
                                 const QueryGraph* query,
                                 const CandidateSpace* space,
                                 const rdf::GraphStats& stats)
    : graph_(graph), query_(query), space_(space), graph_stats_(stats) {}

double SubgraphMatcher::EdgeCost(const QueryEdge& edge) const {
  return EstimateEdgeFanout(graph_stats_, edge);
}

SubgraphMatcher::SearchPlan SubgraphMatcher::PlanFrom(int anchor_qv) const {
  SearchPlan plan;
  size_t n = query_->vertices.size();
  std::vector<bool> visited(n, false);

  plan.order.push_back(anchor_qv);
  plan.back_edges.emplace_back();  // anchor has no back edges
  visited[anchor_qv] = true;

  // Greedy BFS preferring non-wildcard vertices (smaller domains first);
  // among equally-concrete vertices the one whose cheapest connecting edge
  // has the lowest estimated fan-out is extended next.
  while (true) {
    int best = -1;
    std::vector<int> best_back;
    double best_cost = 0.0;
    for (size_t v = 0; v < n; ++v) {
      if (visited[v]) continue;
      std::vector<int> back;
      for (size_t e = 0; e < query_->edges.size(); ++e) {
        const QueryEdge& edge = query_->edges[e];
        int other = -1;
        if (edge.from == static_cast<int>(v)) other = edge.to;
        if (edge.to == static_cast<int>(v)) other = edge.from;
        if (other >= 0 && visited[other]) back.push_back(static_cast<int>(e));
      }
      if (back.empty()) continue;  // not connected to the frontier yet
      double cost = EdgeCost(query_->edges[back.front()]);
      for (size_t bi = 1; bi < back.size(); ++bi) {
        cost = std::min(cost, EdgeCost(query_->edges[back[bi]]));
      }
      bool best_is_wildcard = best >= 0 && query_->vertices[best].wildcard;
      bool v_is_wildcard = query_->vertices[v].wildcard;
      bool better;
      if (best < 0) {
        better = true;
      } else if (best_is_wildcard != v_is_wildcard) {
        better = best_is_wildcard;  // concrete vertices before wildcards
      } else {
        better = cost < best_cost;
      }
      if (better) {
        best = static_cast<int>(v);
        best_back = std::move(back);
        best_cost = cost;
      }
    }
    if (best < 0) break;  // rest of the query graph is disconnected
    // Expansion runs through back[0] and the rest only filter, so put the
    // edge with the smallest estimated neighbor list first and check the
    // cheapest filters before the expensive ones.
    std::stable_sort(best_back.begin(), best_back.end(), [&](int a, int b) {
      return EdgeCost(query_->edges[a]) < EdgeCost(query_->edges[b]);
    });
    visited[best] = true;
    plan.order.push_back(best);
    plan.back_edges.push_back(std::move(best_back));
  }
  return plan;
}

double SubgraphMatcher::ScoreAssignment(
    const std::vector<rdf::TermId>& assignment, const SearchPlan& plan) const {
  double score = 0.0;
  for (int qv : plan.order) {
    auto delta = space_->VertexDelta(qv, assignment[qv]);
    if (!delta.has_value() || *delta <= 0) return -1e18;
    score += std::log(*delta);
  }
  for (const QueryEdge& edge : query_->edges) {
    rdf::TermId uf = assignment[edge.from];
    rdf::TermId ut = assignment[edge.to];
    if (uf == rdf::kInvalidTerm || ut == rdf::kInvalidTerm) continue;
    auto delta = CandidateSpace::EdgeDelta(*graph_, edge, edge.from, uf, ut);
    if (!delta.has_value() || *delta <= 0) return -1e18;
    score += std::log(*delta);
  }
  return score;
}

void SubgraphMatcher::FindMatchesFrom(int anchor_qv, rdf::TermId anchor_u,
                                      size_t limit,
                                      std::vector<Match>* out) const {
  if (!space_->VertexDelta(anchor_qv, anchor_u).has_value()) return;

  SearchPlan plan = PlanFrom(anchor_qv);
  std::vector<rdf::TermId> assignment(query_->vertices.size(),
                                      rdf::kInvalidTerm);
  assignment[anchor_qv] = anchor_u;
  // Graph vertices currently bound by `assignment`, for the O(1)
  // injectivity check below.
  std::unordered_set<rdf::TermId> used;
  used.reserve(plan.order.size());
  used.insert(anchor_u);
  size_t found_at_entry = out->size();

  std::function<void(size_t)> extend = [&](size_t depth) {
    if (limit > 0 && out->size() - found_at_entry >= limit) return;
    if (depth == plan.order.size()) {
      double score = ScoreAssignment(assignment, plan);
      if (score <= -1e17) return;
      Match m;
      m.assignment = assignment;
      m.score = score;
      out->push_back(std::move(m));
      ++stats_.complete_matches;
      return;
    }
    int qv = plan.order[depth];
    const std::vector<int>& back = plan.back_edges[depth];

    // Expand candidates through the first back edge, then filter by the
    // remaining back edges, the vertex domain, and injectivity.
    const QueryEdge& first_edge = query_->edges[back[0]];
    int matched_side =
        first_edge.from == qv ? first_edge.to : first_edge.from;
    const std::vector<rdf::TermId> neighbors = CandidateSpace::Expand(
        *graph_, first_edge, matched_side, assignment[matched_side]);

    for (rdf::TermId u : neighbors) {
      ++stats_.expansions;
      if (!space_->VertexDelta(qv, u).has_value()) continue;
      // Injectivity: subgraph isomorphism maps query vertices to distinct
      // graph vertices.
      if (used.contains(u)) continue;
      bool edges_ok = true;
      for (size_t bi = 1; bi < back.size() && edges_ok; ++bi) {
        const QueryEdge& e = query_->edges[back[bi]];
        int other = e.from == qv ? e.to : e.from;
        edges_ok = CandidateSpace::EdgeDelta(*graph_, e, other,
                                             assignment[other], u)
                       .has_value();
      }
      if (!edges_ok) continue;
      assignment[qv] = u;
      used.insert(u);
      extend(depth + 1);
      used.erase(u);
      assignment[qv] = rdf::kInvalidTerm;
      if (limit > 0 && out->size() - found_at_entry >= limit) return;
    }
  };
  extend(1);
}

}  // namespace match
}  // namespace ganswer
