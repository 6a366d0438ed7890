#include "match/candidates.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace ganswer {
namespace match {

double EstimateEdgeFanout(const rdf::GraphStats& stats,
                          const QueryEdge& edge) {
  if (edge.wildcard) return stats.AvgOutFanout() + stats.AvgInFanout();
  double cost = 0.0;
  for (const paraphrase::ParaphraseEntry& cand : edge.candidates) {
    double fwd = 1.0, bwd = 1.0;
    for (const paraphrase::PathStep& step : cand.path.steps) {
      fwd *= step.forward ? stats.AvgObjectsPerSubject(step.predicate)
                          : stats.AvgSubjectsPerObject(step.predicate);
      bwd *= step.forward ? stats.AvgSubjectsPerObject(step.predicate)
                          : stats.AvgObjectsPerSubject(step.predicate);
    }
    cost += fwd + bwd;
  }
  return cost;
}

namespace {

using paraphrase::PathStep;
using paraphrase::PredicatePath;
using Item = CandidateSpace::Item;

// True when `u` has an incident RDF edge labelled `predicate`, outgoing
// when `forward`, incoming otherwise.
bool HasStep(const rdf::RdfGraph& graph, rdf::TermId u, rdf::TermId predicate,
             bool forward) {
  auto edges = forward ? graph.OutEdges(u) : graph.InEdges(u);
  auto it = std::lower_bound(
      edges.begin(), edges.end(), predicate,
      [](const rdf::Edge& e, rdf::TermId p) { return e.predicate < p; });
  return it != edges.end() && it->predicate == predicate;
}

// Candidate survives the neighborhood check for one incident edge when some
// candidate predicate/path can start at u (from either endpoint role). The
// signature index, when present, gives a constant-time rejection before the
// adjacency binary search (no false negatives by construction).
bool SurvivesEdge(const rdf::RdfGraph& graph, const QueryEdge& edge,
                  rdf::TermId u, const rdf::SignatureIndex* signatures) {
  if (edge.wildcard) return graph.Degree(u) > 0;
  for (const paraphrase::ParaphraseEntry& e : edge.candidates) {
    if (e.path.steps.empty()) continue;
    const PathStep& first = e.path.steps.front();
    if (e.path.IsSinglePredicate()) {
      // Either direction is admissible for single predicates (Def. 3).
      rdf::TermId p = first.predicate;
      if (signatures != nullptr && !signatures->MaybeHasEither(u, p)) {
        continue;
      }
      if (HasStep(graph, u, p, true) || HasStep(graph, u, p, false)) {
        return true;
      }
    } else {
      // The reversed orientation starts with the LAST step, flipped.
      const PathStep& last = e.path.steps.back();
      if (signatures != nullptr) {
        bool maybe_fwd = first.forward ? signatures->MaybeHasOut(u, first.predicate)
                                       : signatures->MaybeHasIn(u, first.predicate);
        bool maybe_bwd = last.forward ? signatures->MaybeHasIn(u, last.predicate)
                                      : signatures->MaybeHasOut(u, last.predicate);
        if (!maybe_fwd && !maybe_bwd) continue;
      }
      if (HasStep(graph, u, first.predicate, first.forward) ||
          HasStep(graph, u, last.predicate, !last.forward)) {
        return true;
      }
    }
  }
  return false;
}

// How many triples carry a predicate that lets a vertex pass SurvivesEdge
// for `edge`: the fewer, the more vertices the check rejects. A wildcard
// edge passes any vertex with an edge, so it ranks last.
size_t EdgeSupport(const rdf::RdfGraph& graph, const QueryEdge& edge) {
  if (edge.wildcard) return std::numeric_limits<size_t>::max();
  size_t support = 0;
  for (const paraphrase::ParaphraseEntry& e : edge.candidates) {
    if (e.path.steps.empty()) continue;
    support += graph.PredicateFrequency(e.path.steps.front().predicate);
    if (!e.path.IsSinglePredicate()) {
      support += graph.PredicateFrequency(e.path.steps.back().predicate);
    }
  }
  return support;
}

// By vertex, each vertex's best confidence first, so std::unique keeps it.
bool ByVertex(const Item& a, const Item& b) {
  if (a.vertex != b.vertex) return a.vertex < b.vertex;
  return a.confidence > b.confidence;
}

// The ranked order of VertexDomain::items.
bool ByConfidence(const Item& a, const Item& b) {
  if (a.confidence != b.confidence) return a.confidence > b.confidence;
  return a.vertex < b.vertex;
}

// One item per distinct vertex of `candidates` that `admit` accepts (a
// class contributes each of its instances), at the vertex's best
// confidence, sorted by vertex. A lone class candidate's instances arrive
// in that order already.
template <typename Admit>
std::vector<Item> GatherDomain(
    const rdf::RdfGraph& graph,
    const std::vector<linking::LinkCandidate>& candidates, Admit admit) {
  std::vector<Item> items;
  for (const linking::LinkCandidate& c : candidates) {
    if (!c.is_class) {
      if (admit(c.vertex)) items.push_back({c.vertex, c.confidence});
      continue;
    }
    for (rdf::TermId inst : graph.InstancesOf(c.vertex)) {
      if (admit(inst)) items.push_back({inst, c.confidence});
    }
  }
  if (!std::is_sorted(items.begin(), items.end(), ByVertex)) {
    std::sort(items.begin(), items.end(), ByVertex);
  }
  items.erase(std::unique(items.begin(), items.end(),
                          [](const Item& a, const Item& b) {
                            return a.vertex == b.vertex;
                          }),
              items.end());
  return items;
}

}  // namespace

CandidateSpace CandidateSpace::Build(const rdf::RdfGraph& graph,
                                     const QueryGraph& query,
                                     bool neighborhood_pruning,
                                     const rdf::SignatureIndex* signatures,
                                     const rdf::GraphStats* stats) {
  CandidateSpace space;
  space.domains_.resize(query.vertices.size());
  space.by_vertex_.resize(query.vertices.size());

  // Domains are independent of each other, so their build order cannot
  // change the result; with statistics the smallest estimated domains go
  // first so the cheap ones are materialized (and available to early
  // TA-round consumers) before the expensive class expansions.
  std::vector<size_t> vertex_order(query.vertices.size());
  for (size_t i = 0; i < vertex_order.size(); ++i) vertex_order[i] = i;
  if (stats != nullptr) {
    auto domain_estimate = [&](size_t i) -> double {
      const QueryVertex& qv = query.vertices[i];
      if (qv.wildcard) return 0.0;
      double est = 0.0;
      for (const linking::LinkCandidate& c : qv.candidates) {
        est += c.is_class
                   ? static_cast<double>(stats->ClassInstanceCount(c.vertex))
                   : 1.0;
      }
      return est;
    };
    std::stable_sort(vertex_order.begin(), vertex_order.end(),
                     [&](size_t a, size_t b) {
                       return domain_estimate(a) < domain_estimate(b);
                     });
  }

  for (size_t i : vertex_order) {
    const QueryVertex& qv = query.vertices[i];
    VertexDomain& dom = space.domains_[i];
    dom.wildcard = qv.wildcard;
    dom.wildcard_confidence = qv.wildcard_confidence;
    if (qv.wildcard) continue;

    // Survival is the conjunction over the incident edges, so checking
    // the most selective edge first rejects doomed vertices soonest
    // without changing which survive.
    std::vector<int> incident;
    if (neighborhood_pruning) {
      incident = query.IncidentEdges(static_cast<int>(i));
      std::stable_sort(incident.begin(), incident.end(), [&](int a, int b) {
        return EdgeSupport(graph, query.edges[a]) <
               EdgeSupport(graph, query.edges[b]);
      });
    }
    std::vector<Item> gathered =
        GatherDomain(graph, qv.candidates, [&](rdf::TermId u) {
          for (int ei : incident) {
            if (!SurvivesEdge(graph, query.edges[ei], u, signatures)) {
              return false;
            }
          }
          return true;
        });

    // Copied out at their exact size: the gathering buffer grew by
    // doubling.
    std::vector<Item>& by_vertex = space.by_vertex_[i];
    by_vertex.assign(gathered.begin(), gathered.end());
    dom.items = by_vertex;
    if (!std::is_sorted(dom.items.begin(), dom.items.end(), ByConfidence)) {
      std::sort(dom.items.begin(), dom.items.end(), ByConfidence);
    }
  }
  return space;
}

std::optional<double> CandidateSpace::VertexDelta(int qv,
                                                  rdf::TermId u) const {
  const VertexDomain& dom = domains_[qv];
  if (dom.wildcard) return dom.wildcard_confidence;
  const std::vector<Item>& items = by_vertex_[qv];
  auto it = std::lower_bound(
      items.begin(), items.end(), u,
      [](const Item& item, rdf::TermId v) { return item.vertex < v; });
  if (it == items.end() || it->vertex != u) return std::nullopt;
  return it->confidence;
}

std::optional<double> CandidateSpace::EdgeDelta(const rdf::RdfGraph& graph,
                                                const QueryEdge& edge,
                                                int qv_from,
                                                rdf::TermId u_from,
                                                rdf::TermId u_to) {
  bool u_is_arg1 = qv_from == edge.from;
  if (edge.wildcard) {
    // Any direct predicate, either direction.
    for (const rdf::Edge& e : graph.OutEdges(u_from)) {
      if (e.neighbor == u_to) return edge.wildcard_confidence;
    }
    for (const rdf::Edge& e : graph.InEdges(u_from)) {
      if (e.neighbor == u_to) return edge.wildcard_confidence;
    }
    return std::nullopt;
  }
  std::optional<double> best;
  for (const paraphrase::ParaphraseEntry& cand : edge.candidates) {
    if (best.has_value() && cand.confidence <= *best) continue;
    bool connects = false;
    if (cand.path.IsSinglePredicate()) {
      rdf::TermId p = cand.path.steps[0].predicate;
      connects = graph.HasTriple(u_from, p, u_to) ||
                 graph.HasTriple(u_to, p, u_from);
    } else {
      const PredicatePath oriented =
          u_is_arg1 ? cand.path : cand.path.Reversed();
      connects = paraphrase::PathConnects(graph, u_from, u_to, oriented);
    }
    if (connects) best = cand.confidence;
  }
  return best;
}

std::vector<rdf::TermId> CandidateSpace::Expand(const rdf::RdfGraph& graph,
                                                const QueryEdge& edge,
                                                int side, rdf::TermId u) {
  // Collect everything, then one sort + unique: no per-call hash set, and
  // the matcher extends in ascending neighbor id order.
  std::vector<rdf::TermId> out;
  if (edge.wildcard) {
    auto outs = graph.OutEdges(u);
    auto ins = graph.InEdges(u);
    out.reserve(outs.size() + ins.size());
    for (const rdf::Edge& e : outs) out.push_back(e.neighbor);
    for (const rdf::Edge& e : ins) out.push_back(e.neighbor);
  } else {
    bool u_is_arg1 = side == edge.from;
    for (const paraphrase::ParaphraseEntry& cand : edge.candidates) {
      if (cand.path.IsSinglePredicate()) {
        rdf::TermId p = cand.path.steps[0].predicate;
        auto objects = graph.Objects(u, p);
        out.insert(out.end(), objects.begin(), objects.end());
        auto subjects = graph.Subjects(p, u);
        out.insert(out.end(), subjects.begin(), subjects.end());
      } else {
        const PredicatePath oriented =
            u_is_arg1 ? cand.path : cand.path.Reversed();
        std::vector<rdf::TermId> ends =
            paraphrase::PathEndpoints(graph, u, oriented);
        out.insert(out.end(), ends.begin(), ends.end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace match
}  // namespace ganswer
