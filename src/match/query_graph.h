#ifndef GANSWER_MATCH_QUERY_GRAPH_H_
#define GANSWER_MATCH_QUERY_GRAPH_H_

#include <string>
#include <vector>

#include "linking/entity_linker.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "rdf/rdf_graph.h"

namespace ganswer {
namespace match {

/// A query vertex: the candidate list C_v of Definition 3. Entity
/// candidates constrain the matched vertex to be that entity; class
/// candidates constrain it to be an instance of the class. A wildcard
/// vertex (wh-words, unlinkable arguments) matches any graph vertex.
struct QueryVertex {
  std::vector<linking::LinkCandidate> candidates;
  bool wildcard = false;
  /// Confidence used for wildcard matches (delta = 1 keeps the paper's
  /// log-score unchanged for wh arguments).
  double wildcard_confidence = 1.0;
};

/// A query edge: the candidate list C_edge of predicates / predicate paths.
/// Orientation of candidates is advisory: Definition 3 admits the matched
/// edge in either direction, so the matcher tries both. A wildcard edge
/// matches any single predicate.
struct QueryEdge {
  int from = -1;
  int to = -1;
  std::vector<paraphrase::ParaphraseEntry> candidates;
  bool wildcard = false;
  double wildcard_confidence = 0.3;
};

/// The structural query the matcher evaluates — the shape of the semantic
/// query graph Q^S with all NL anchoring stripped.
struct QueryGraph {
  std::vector<QueryVertex> vertices;
  std::vector<QueryEdge> edges;

  std::vector<int> IncidentEdges(int v) const;
};

/// One subgraph match M of the query graph (Definition 3), with the score
/// of Definition 6: sum of log-confidences of the chosen vertex and edge
/// mappings.
struct Match {
  /// assignment[i] = graph vertex matched to query vertex i.
  std::vector<rdf::TermId> assignment;
  double score = 0.0;

  friend bool operator==(const Match& a, const Match& b) {
    return a.assignment == b.assignment;
  }
};

/// The pinned total order on matches: score descending, ties broken by the
/// assignment vector lexicographically ascending. This is the ONE ranking
/// every ranked-match producer must use — TopKMatcher's serial, parallel
/// and memoized paths all sort with it, and the reference oracles under
/// tests/oracle/ compare against it — so equal-score matches come back in
/// the same order everywhere.
bool MatchOrder(const Match& a, const Match& b);

/// Sorts \p matches by MatchOrder and cuts to the top \p k, keeping every
/// match tied with the k-th score (the paper counts equal-score matches
/// once). Shared by TopKMatcher and the enumerate-and-rank oracle so both
/// apply the identical cut rule.
void SortAndCutTopK(std::vector<Match>* matches, size_t k);

}  // namespace match
}  // namespace ganswer

#endif  // GANSWER_MATCH_QUERY_GRAPH_H_
