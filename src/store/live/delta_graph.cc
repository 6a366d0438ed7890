#include "store/live/delta_graph.h"

#include <algorithm>
#include <utility>

namespace ganswer {
namespace store {
namespace live {

using rdf::Edge;
using rdf::TermId;
using rdf::TermKind;

DeltaGraph::DeltaGraph(std::shared_ptr<const Snapshot> base)
    : base_(std::move(base)) {
  dict_.InitExtension(&base_->graph->dict());
  num_triples_ = base_->graph->NumTriples();
  max_degree_ = base_->graph->MaxDegree();
}

DeltaGraph::VertexRuns& DeltaGraph::Touch(TermId v) {
  auto [it, inserted] = runs_.try_emplace(v);
  if (inserted) {
    // Copy-on-first-touch: seed both directions from the base CSR (new
    // vertices have empty base runs).
    std::span<const Edge> out = base_->graph->OutEdges(v);
    std::span<const Edge> in = base_->graph->InEdges(v);
    it->second.out.assign(out.begin(), out.end());
    it->second.in.assign(in.begin(), in.end());
  }
  return it->second;
}

uint64_t& DeltaGraph::PredFreq(TermId p) {
  auto [it, inserted] = pred_freq_.try_emplace(p);
  if (inserted) it->second = base_->graph->PredicateFrequency(p);
  return it->second;
}

DeltaGraph::BatchStats DeltaGraph::Apply(
    const std::vector<rdf::UpdateOp>& ops) {
  BatchStats stats;
  auto intern = [&](const std::string& text, TermKind kind) {
    size_t before = dict_.size();
    TermId id = dict_.Intern(text, kind);
    if (dict_.size() > before) {
      new_terms_.emplace_back(text, kind);
      ++stats.new_terms;
    }
    return id;
  };
  // Merged-state membership without allocating runs for no-op lookups.
  auto has_edge = [&](TermId s, TermId p, TermId o) {
    auto it = runs_.find(s);
    if (it != runs_.end()) {
      return std::binary_search(it->second.out.begin(), it->second.out.end(),
                                Edge{p, o});
    }
    return base_->graph->HasTriple(s, p, o);
  };
  auto mark = [&](TermId s, TermId o) {
    touched_.insert(s);
    touched_.insert(o);
    dirty_.insert(s);
    dirty_.insert(o);
  };

  for (const rdf::UpdateOp& op : ops) {
    if (op.is_delete) {
      // Set semantics: a delete naming any unknown term, or an absent
      // triple, is a counted no-op — it never interns new terms.
      auto s = dict_.Lookup(op.subject);
      auto p = dict_.Lookup(op.predicate);
      auto o = dict_.Lookup(op.object, op.object_kind);
      if (!s || !p || !o || !has_edge(*s, *p, *o)) {
        ++stats.noop_deletes;
        continue;
      }
      VertexRuns& rs = Touch(*s);
      auto pos = std::lower_bound(rs.out.begin(), rs.out.end(), Edge{*p, *o});
      rs.out.erase(pos);
      rs.out_touched = true;
      VertexRuns& ro = Touch(*o);  // May rehash runs_; rs is done above.
      auto rpos =
          std::lower_bound(ro.in.begin(), ro.in.end(), Edge{*p, *s});
      ro.in.erase(rpos);
      ro.in_touched = true;
      --PredFreq(*p);
      --num_triples_;
      ++delta_deletes_;
      ++stats.deleted;
      mark(*s, *o);
      continue;
    }
    TermId s = intern(op.subject, TermKind::kIri);
    TermId p = intern(op.predicate, TermKind::kIri);
    TermId o = intern(op.object, op.object_kind);
    if (has_edge(s, p, o)) {
      ++stats.noop_adds;
      continue;
    }
    VertexRuns& rs = Touch(s);
    auto pos = std::lower_bound(rs.out.begin(), rs.out.end(), Edge{p, o});
    rs.out.insert(pos, Edge{p, o});
    rs.out_touched = true;
    VertexRuns& ro = Touch(o);  // May rehash runs_; rs is done above.
    auto rpos = std::lower_bound(ro.in.begin(), ro.in.end(), Edge{p, s});
    ro.in.insert(rpos, Edge{p, s});
    ro.in_touched = true;
    ++PredFreq(p);
    ++num_triples_;
    ++delta_adds_;
    ++stats.added;
    mark(s, o);
  }
  return stats;
}

DeltaGraph::View DeltaGraph::BuildView() {
  const rdf::RdfGraph& base_graph = *base_->graph;
  const TermId type_pred = base_graph.type_predicate();
  const TermId subclass_pred = base_graph.subclass_predicate();
  auto has_pred = [](const std::vector<Edge>& run, TermId p) {
    auto it = std::lower_bound(run.begin(), run.end(), Edge{p, 0});
    return it != run.end() && it->predicate == p;
  };

  // Re-publish only the vertices this commit dirtied; every other touched
  // vertex keeps sharing the run published for the previous epoch.
  for (TermId v : dirty_) {
    const VertexRuns& r = runs_.at(v);
    if (r.out_touched) {
      auto it = published_out_.find(v);
      if (it != published_out_.end()) {
        published_bytes_ -= it->second->size() * sizeof(Edge);
      }
      published_out_[v] =
          std::make_shared<const std::vector<Edge>>(r.out);
      published_bytes_ += r.out.size() * sizeof(Edge);
    }
    if (r.in_touched) {
      auto it = published_in_.find(v);
      if (it != published_in_.end()) {
        published_bytes_ -= it->second->size() * sizeof(Edge);
      }
      published_in_[v] = std::make_shared<const std::vector<Edge>>(r.in);
      published_bytes_ += r.in.size() * sizeof(Edge);
    }
    max_degree_ = std::max(max_degree_, r.out.size() + r.in.size());
    // Class-ness from the vertex's own merged adjacency: object of rdf:type,
    // or either side of rdfs:subClassOf.
    is_class_[v] = has_pred(r.in, type_pred) || has_pred(r.out, subclass_pred)
                   || has_pred(r.in, subclass_pred);
  }
  dirty_.clear();

  auto overlay = std::make_shared<rdf::GraphOverlay>();
  overlay->base =
      std::shared_ptr<const rdf::RdfGraph>(base_, base_->graph.get());
  overlay->out_runs = published_out_;
  overlay->in_runs = published_in_;
  overlay->is_class = is_class_;
  overlay->predicate_freq = pred_freq_;
  overlay->num_triples = num_triples_;
  overlay->max_degree = max_degree_;
  {
    // Merged predicate list: base predicates minus the ones the delta
    // drained to zero, plus the ones it introduced, ascending.
    std::span<const TermId> base_preds = base_graph.Predicates();
    std::unordered_set<TermId> base_set(base_preds.begin(), base_preds.end());
    overlay->predicates.assign(base_preds.begin(), base_preds.end());
    std::erase_if(overlay->predicates, [&](TermId p) {
      auto it = pred_freq_.find(p);
      return it != pred_freq_.end() && it->second == 0;
    });
    for (const auto& [p, freq] : pred_freq_) {
      if (freq > 0 && base_set.find(p) == base_set.end()) {
        overlay->predicates.push_back(p);
      }
    }
    std::sort(overlay->predicates.begin(), overlay->predicates.end());
  }

  // Per-view immutable dictionary: replay the recorded new terms over the
  // base. Readers of older views never observe later interning.
  rdf::TermDictionary view_dict;
  view_dict.InitExtension(&base_graph.dict());
  for (const auto& [text, kind] : new_terms_) view_dict.Intern(text, kind);

  View view;
  auto graph = std::make_shared<const rdf::RdfGraph>(std::move(overlay),
                                                     std::move(view_dict));
  view.graph = graph;

  std::vector<TermId> touched(touched_.begin(), touched_.end());
  std::sort(touched.begin(), touched.end());

  auto base_sigs = std::shared_ptr<const rdf::SignatureIndex>(
      base_, base_->signatures.get());
  view.signatures = std::make_shared<const rdf::SignatureIndex>(
      rdf::SignatureIndex::BuildOverlay(*graph, std::move(base_sigs),
                                        touched));
  auto base_entities = std::shared_ptr<const linking::EntityIndex>(
      base_, base_->entity_index.get());
  view.entities = linking::EntityIndex::BuildOverlay(
      *graph, std::move(base_entities), touched);
  return view;
}

}  // namespace live
}  // namespace store
}  // namespace ganswer
