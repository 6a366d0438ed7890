#ifndef GANSWER_TESTS_ORACLE_CANDIDATE_ORACLE_H_
#define GANSWER_TESTS_ORACLE_CANDIDATE_ORACLE_H_

// Reference oracle for match::CandidateSpace::Build: the map-based build
// the flat one replaced. Each domain is a hash map from vertex to its best
// confidence, filled from every candidate (a class through a breadth-first
// walk of rdf:type and rdfs:subClassOf with dictionary-sized seen sets),
// pruned by SurvivesEdge over PredicatePath first steps, then sorted into
// ranked items. Deliberately naive: no sortedness is assumed or kept.

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "match/candidates.h"
#include "match/query_graph.h"
#include "paraphrase/predicate_path.h"
#include "rdf/graph_stats.h"
#include "rdf/rdf_graph.h"
#include "rdf/signature_index.h"

namespace ganswer {
namespace testing {

class CandidateOracle {
 public:
  using Item = match::CandidateSpace::Item;

  /// Instances of \p cls and of every subclass of \p cls, ascending.
  static std::vector<rdf::TermId> InstancesOf(const rdf::RdfGraph& graph,
                                              rdf::TermId cls) {
    std::vector<rdf::TermId> result;
    std::vector<bool> seen_cls(graph.dict().size(), false);
    std::vector<bool> seen_inst(graph.dict().size(), false);
    std::queue<rdf::TermId> q;
    q.push(cls);
    if (cls < seen_cls.size()) seen_cls[cls] = true;
    while (!q.empty()) {
      rdf::TermId c = q.front();
      q.pop();
      for (rdf::TermId inst : graph.Subjects(graph.type_predicate(), c)) {
        if (!seen_inst[inst]) {
          seen_inst[inst] = true;
          result.push_back(inst);
        }
      }
      for (rdf::TermId sub : graph.Subjects(graph.subclass_predicate(), c)) {
        if (!seen_cls[sub]) {
          seen_cls[sub] = true;
          q.push(sub);
        }
      }
    }
    std::sort(result.begin(), result.end());
    return result;
  }

  static CandidateOracle Build(const rdf::RdfGraph& graph,
                               const match::QueryGraph& query,
                               bool neighborhood_pruning,
                               const rdf::SignatureIndex* signatures,
                               const rdf::GraphStats* stats) {
    // Domains are built in query-vertex order: they are independent, so
    // the order cannot change them.
    CandidateOracle space;
    space.items_.resize(query.vertices.size());
    space.wildcard_.resize(query.vertices.size());
    space.delta_.resize(query.vertices.size());
    for (size_t i = 0; i < query.vertices.size(); ++i) {
      const match::QueryVertex& qv = query.vertices[i];
      space.wildcard_[i] = qv.wildcard ? std::optional(qv.wildcard_confidence)
                                       : std::nullopt;
      if (qv.wildcard) continue;

      auto& delta = space.delta_[i];
      for (const linking::LinkCandidate& c : qv.candidates) {
        std::vector<rdf::TermId> vertices{c.vertex};
        if (c.is_class) vertices = InstancesOf(graph, c.vertex);
        for (rdf::TermId v : vertices) {
          auto [it, inserted] = delta.emplace(v, c.confidence);
          if (!inserted) it->second = std::max(it->second, c.confidence);
        }
      }

      if (neighborhood_pruning) {
        std::vector<int> incident = query.IncidentEdges(static_cast<int>(i));
        if (stats != nullptr && incident.size() > 1) {
          std::stable_sort(incident.begin(), incident.end(),
                           [&](int a, int b) {
                             return match::EstimateEdgeFanout(
                                        *stats, query.edges[a]) <
                                    match::EstimateEdgeFanout(
                                        *stats, query.edges[b]);
                           });
        }
        for (auto it = delta.begin(); it != delta.end();) {
          bool ok = true;
          for (int ei : incident) {
            if (!SurvivesEdge(graph, query.edges[ei], it->first, signatures)) {
              ok = false;
              break;
            }
          }
          it = ok ? std::next(it) : delta.erase(it);
        }
      }

      std::vector<Item>& items = space.items_[i];
      for (const auto& [v, conf] : delta) items.push_back({v, conf});
      std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        if (a.confidence != b.confidence) return a.confidence > b.confidence;
        return a.vertex < b.vertex;
      });
    }
    return space;
  }

  /// The ranked domain of query vertex \p qv (empty for wildcards).
  const std::vector<Item>& items(int qv) const { return items_[qv]; }
  bool wildcard(int qv) const { return wildcard_[qv].has_value(); }

  std::optional<double> VertexDelta(int qv, rdf::TermId u) const {
    if (wildcard_[qv].has_value()) return wildcard_[qv];
    auto it = delta_[qv].find(u);
    if (it == delta_[qv].end()) return std::nullopt;
    return it->second;
  }

 private:
  // True when `u` has at least one incident RDF edge that could begin an
  // instantiation of `path` (in the given orientation).
  static bool HasFirstStep(const rdf::RdfGraph& graph, rdf::TermId u,
                           const paraphrase::PredicatePath& path) {
    if (path.steps.empty()) return false;
    const paraphrase::PathStep& s = path.steps.front();
    auto edges = s.forward ? graph.OutEdges(u) : graph.InEdges(u);
    return std::binary_search(
        edges.begin(), edges.end(), rdf::Edge{s.predicate, 0},
        [](const rdf::Edge& a, const rdf::Edge& b) {
          return a.predicate < b.predicate;
        });
  }

  static bool SurvivesEdge(const rdf::RdfGraph& graph,
                           const match::QueryEdge& edge, rdf::TermId u,
                           const rdf::SignatureIndex* signatures) {
    if (edge.wildcard) return graph.Degree(u) > 0;
    for (const paraphrase::ParaphraseEntry& e : edge.candidates) {
      if (e.path.IsSinglePredicate()) {
        rdf::TermId p = e.path.steps[0].predicate;
        if (signatures != nullptr && !signatures->MaybeHasEither(u, p)) {
          continue;
        }
        paraphrase::PredicatePath fwd{{{p, true}}};
        paraphrase::PredicatePath bwd{{{p, false}}};
        if (HasFirstStep(graph, u, fwd) || HasFirstStep(graph, u, bwd)) {
          return true;
        }
      } else if (!e.path.steps.empty()) {
        const paraphrase::PathStep& first = e.path.steps.front();
        const paraphrase::PathStep& last = e.path.steps.back();
        if (signatures != nullptr) {
          bool maybe_fwd = first.forward
                               ? signatures->MaybeHasOut(u, first.predicate)
                               : signatures->MaybeHasIn(u, first.predicate);
          bool maybe_bwd = last.forward
                               ? signatures->MaybeHasIn(u, last.predicate)
                               : signatures->MaybeHasOut(u, last.predicate);
          if (!maybe_fwd && !maybe_bwd) continue;
        }
        if (HasFirstStep(graph, u, e.path) ||
            HasFirstStep(graph, u, e.path.Reversed())) {
          return true;
        }
      }
    }
    return false;
  }

  std::vector<std::vector<Item>> items_;
  std::vector<std::optional<double>> wildcard_;
  std::vector<std::unordered_map<rdf::TermId, double>> delta_;
};

}  // namespace testing
}  // namespace ganswer

#endif  // GANSWER_TESTS_ORACLE_CANDIDATE_ORACLE_H_
