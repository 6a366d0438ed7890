#include "match/query_graph.h"

#include <algorithm>

namespace ganswer {
namespace match {

bool MatchOrder(const Match& a, const Match& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.assignment < b.assignment;
}

void SortAndCutTopK(std::vector<Match>* matches, size_t k) {
  std::sort(matches->begin(), matches->end(), MatchOrder);
  if (matches->size() > k && k > 0) {
    double kth = (*matches)[k - 1].score;
    size_t cut = k;
    while (cut < matches->size() && (*matches)[cut].score == kth) ++cut;
    matches->resize(cut);
  }
}

std::vector<int> QueryGraph::IncidentEdges(int v) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].from == v || edges[i].to == v) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace match
}  // namespace ganswer
