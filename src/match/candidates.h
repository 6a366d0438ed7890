#ifndef GANSWER_MATCH_CANDIDATES_H_
#define GANSWER_MATCH_CANDIDATES_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "match/query_graph.h"
#include "rdf/graph_stats.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace match {

/// Estimated neighbor fan-out of expanding across \p edge: the sum over its
/// candidate paths of the expected forward plus backward step products
/// (both orientations are explored); a wildcard edge costs the average
/// vertex degree. Pure ordering heuristic — never used to filter.
double EstimateEdgeFanout(const rdf::GraphStats& stats, const QueryEdge& edge);

/// \brief Memo for the matcher's repeated graph walks within one Ask():
/// Expand() neighbor lists and multi-hop PathConnects verdicts.
///
/// The TA loop re-anchors searches round after round over the same query,
/// so the same (edge, vertex) expansions and the same path-connectivity
/// probes recur; this memo makes each one a hash lookup after its first
/// computation. Keys use the identity of the QueryEdge / PredicatePath
/// objects, which are stable for the duration of one FindTopK call. NOT
/// thread-safe: parallel anchored searches each use their own memo.
class EdgeMemo {
 public:
  /// The memoized Expand result, or nullptr when not yet computed.
  const std::vector<rdf::TermId>* FindExpand(const QueryEdge* edge, int side,
                                             rdf::TermId u) const;
  /// Stores and returns a reference that stays valid for the memo's
  /// lifetime (rehashing does not move unordered_map values).
  const std::vector<rdf::TermId>& StoreExpand(const QueryEdge* edge, int side,
                                              rdf::TermId u,
                                              std::vector<rdf::TermId> result);

  /// The memoized PathConnects verdict for \p path (reversed when
  /// \p reversed) between \p from and \p to, if known.
  std::optional<bool> FindConnects(const paraphrase::PredicatePath* path,
                                   bool reversed, rdf::TermId from,
                                   rdf::TermId to) const;
  void StoreConnects(const paraphrase::PredicatePath* path, bool reversed,
                     rdf::TermId from, rdf::TermId to, bool connects);

 private:
  struct ExpandKey {
    const QueryEdge* edge;
    int side;
    rdf::TermId u;
    friend bool operator==(const ExpandKey&, const ExpandKey&) = default;
  };
  struct ExpandKeyHash {
    size_t operator()(const ExpandKey& k) const {
      size_t h = std::hash<const void*>{}(k.edge);
      h = h * 1099511628211ULL ^ static_cast<size_t>(k.side);
      return h * 1099511628211ULL ^ static_cast<size_t>(k.u);
    }
  };
  struct ConnectsKey {
    const paraphrase::PredicatePath* path;
    bool reversed;
    rdf::TermId from;
    rdf::TermId to;
    friend bool operator==(const ConnectsKey&, const ConnectsKey&) = default;
  };
  struct ConnectsKeyHash {
    size_t operator()(const ConnectsKey& k) const {
      size_t h = std::hash<const void*>{}(k.path);
      h = h * 1099511628211ULL ^ (k.reversed ? 0x9e3779b9u : 0u);
      h = h * 1099511628211ULL ^ static_cast<size_t>(k.from);
      return h * 1099511628211ULL ^ static_cast<size_t>(k.to);
    }
  };

  std::unordered_map<ExpandKey, std::vector<rdf::TermId>, ExpandKeyHash>
      expand_;
  std::unordered_map<ConnectsKey, bool, ConnectsKeyHash> connects_;
};

/// \brief Materialized candidate vertex domains plus the edge-compatibility
/// oracle the subgraph matcher works against.
///
/// Entity candidates contribute themselves; class candidates contribute
/// every instance of the class (Definition 3 condition 2), at the class's
/// confidence. Wildcard vertices keep an empty domain and match lazily.
///
/// Neighborhood-based pruning (Sec. 4.2.2, first pruning method): a domain
/// vertex is dropped when, for some incident query edge, it has no incident
/// RDF edge whose predicate could begin any candidate predicate path — the
/// u5 example of the paper.
///
/// Every domain is a flat vector with one item per vertex at its best
/// confidence, kept twice: in ranked order for the TA cursors, and by
/// vertex for VertexDelta's binary search.
class CandidateSpace {
 public:
  struct Item {
    rdf::TermId vertex = rdf::kInvalidTerm;
    double confidence = 0.0;
  };

  struct VertexDomain {
    /// Sorted by confidence, non-ascending, then by vertex ascending.
    std::vector<Item> items;
    bool wildcard = false;
    double wildcard_confidence = 1.0;
  };

  /// Builds the domains for \p query against \p graph. When \p signatures
  /// is non-null, the neighborhood check consults the gStore-style vertex
  /// signatures first (constant-time rejection) before touching adjacency
  /// lists; results are identical either way. When \p stats is non-null,
  /// vertex domains are built in ascending estimated-size order; the built
  /// domains are identical with or without statistics. A domain's incident
  /// pruning edges are checked rarest predicates first, so most rejected
  /// vertices fail on their first check.
  static CandidateSpace Build(const rdf::RdfGraph& graph,
                              const QueryGraph& query,
                              bool neighborhood_pruning,
                              const rdf::SignatureIndex* signatures = nullptr,
                              const rdf::GraphStats* stats = nullptr);

  const VertexDomain& domain(int qv) const { return domains_[qv]; }
  size_t NumVertices() const { return domains_.size(); }

  /// delta(arg, u): confidence of graph vertex \p u as a match for query
  /// vertex \p qv; nullopt when u is not admissible.
  std::optional<double> VertexDelta(int qv, rdf::TermId u) const;

  /// delta(rel, P): best confidence over the edge's candidates that
  /// actually connect \p u_from and \p u_to in \p graph (either direction
  /// for single predicates, oriented for longer paths; any single predicate
  /// for wildcard edges). nullopt when the pair is not connected. When
  /// \p memo is non-null, multi-hop PathConnects verdicts are memoized in
  /// it (single predicates are a cheap binary search and are not).
  static std::optional<double> EdgeDelta(const rdf::RdfGraph& graph,
                                         const QueryEdge& edge, int qv_from,
                                         rdf::TermId u_from, rdf::TermId u_to,
                                         EdgeMemo* memo = nullptr);

  /// Graph vertices reachable from \p u across query edge \p edge, where
  /// \p u stands at query vertex \p side (edge.from or edge.to). Each
  /// reachable vertex is returned once, in ascending id order.
  static std::vector<rdf::TermId> Expand(const rdf::RdfGraph& graph,
                                         const QueryEdge& edge, int side,
                                         rdf::TermId u);

 private:
  std::vector<VertexDomain> domains_;
  /// Per query vertex: the domain's items sorted by vertex ascending (empty
  /// for wildcards).
  std::vector<std::vector<Item>> by_vertex_;
};

}  // namespace match
}  // namespace ganswer

#endif  // GANSWER_MATCH_CANDIDATES_H_
