#include "rdf/rdf_graph.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {

namespace {

// A CSR offset array must have one entry per vertex plus one, start at 0,
// be non-decreasing, and end at the edge count.
Status ValidateOffsets(const std::vector<uint64_t>& offsets,
                       size_t num_vertices, size_t num_edges,
                       const char* which) {
  if (offsets.size() != num_vertices + 1 || offsets.front() != 0 ||
      offsets.back() != num_edges) {
    return Status::Corruption(std::string(which) + " offset array malformed");
  }
  for (size_t v = 0; v < num_vertices; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::Corruption(std::string(which) + " offsets not monotone");
    }
  }
  return Status::Ok();
}

// The edges of \p edges (sorted by (predicate, neighbor)) labelled \p p.
std::span<const Edge> PredicateRun(std::span<const Edge> edges, TermId p) {
  auto lo = std::lower_bound(edges.begin(), edges.end(), Edge{p, 0});
  auto hi = std::upper_bound(lo, edges.end(),
                             Edge{p, std::numeric_limits<TermId>::max()});
  return {lo, hi};
}

}  // namespace

RdfGraph::RdfGraph() {
  // Reserve the well-known predicates up front so their ids exist even for
  // graphs that never mention them.
  type_pred_ = dict_.Intern(kTypePredicate);
  subclass_pred_ = dict_.Intern(kSubClassOfPredicate);
  label_pred_ = dict_.Intern(kLabelPredicate);
}

RdfGraph::RdfGraph(std::shared_ptr<const GraphOverlay> overlay,
                   TermDictionary dict)
    : dict_(std::move(dict)), overlay_(std::move(overlay)) {
  const RdfGraph& base = *overlay_->base;
  type_pred_ = base.type_pred_;
  subclass_pred_ = base.subclass_pred_;
  label_pred_ = base.label_pred_;
  num_triples_ = overlay_->num_triples;
  max_degree_ = overlay_->max_degree;
  // The merged predicate list is small; own a copy so Predicates() and
  // NumPredicates() need no overlay branch.
  predicates_ = overlay_->predicates;
  finalized_ = true;
}

void RdfGraph::AddTriple(std::string_view subject, std::string_view predicate,
                         std::string_view object, TermKind object_kind) {
  Triple t;
  t.subject = dict_.Intern(subject);
  t.predicate = dict_.Intern(predicate);
  t.object = dict_.Intern(object, object_kind);
  AddTriple(t);
}

void RdfGraph::AddTriple(Triple t) {
  pending_.push_back(t);
  finalized_ = false;
}

Status RdfGraph::Finalize() {
  if (overlay_ != nullptr) {
    return Status::InvalidArgument("overlay graphs are immutable");
  }
  if (finalized_ && pending_.empty()) return Status::Ok();

  for (const Triple& t : pending_) {
    if (t.subject == kInvalidTerm || t.predicate == kInvalidTerm ||
        t.object == kInvalidTerm) {
      return Status::InvalidArgument("triple with invalid term id");
    }
  }

  // Gather every triple: the ones already flattened into the CSR (from a
  // previous Finalize) plus the pending batch.
  std::vector<Triple> triples;
  triples.reserve(num_triples_ + pending_.size());
  for (size_t v = 0; v + 1 < out_offsets_.size(); ++v) {
    for (uint64_t i = out_offsets_[v]; i < out_offsets_[v + 1]; ++i) {
      triples.push_back({static_cast<TermId>(v), out_edges_[i].predicate,
                         out_edges_[i].neighbor});
    }
  }
  triples.insert(triples.end(), pending_.begin(), pending_.end());
  pending_.clear();
  pending_.shrink_to_fit();

  // Size the vertex space to the whole dictionary (so unknown lookups are
  // safe) and to the largest id any triple mentions.
  size_t n = dict_.size();
  for (const Triple& t : triples) {
    size_t top = std::max({t.subject, t.object, t.predicate});
    n = std::max(n, top + 1);
  }

  // Out-CSR: Triple's (subject, predicate, object) order lays each
  // subject's edges out contiguously, already sorted by (predicate,
  // neighbor).
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  num_triples_ = triples.size();

  std::vector<uint64_t> predicate_freq(n, 0);
  std::vector<uint64_t> out_offsets(n + 1, 0);
  for (const Triple& t : triples) {
    ++out_offsets[t.subject + 1];
    ++predicate_freq[t.predicate];
  }
  for (size_t v = 0; v < n; ++v) out_offsets[v + 1] += out_offsets[v];
  std::vector<Edge> out_edges;
  out_edges.reserve(num_triples_);
  for (const Triple& t : triples) out_edges.push_back({t.predicate, t.object});

  // In-CSR: counting sort by object, then per-vertex sort so each run is
  // ordered by (predicate, neighbor) like before.
  std::vector<uint64_t> in_offsets(n + 1, 0);
  for (const Triple& t : triples) ++in_offsets[t.object + 1];
  for (size_t v = 0; v < n; ++v) in_offsets[v + 1] += in_offsets[v];
  std::vector<Edge> in_edges(num_triples_, Edge{});
  {
    std::vector<uint64_t> fill(in_offsets.begin(), in_offsets.end() - 1);
    for (const Triple& t : triples) {
      in_edges[fill[t.object]++] = {t.predicate, t.subject};
    }
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(in_edges.begin() + in_offsets[v],
              in_edges.begin() + in_offsets[v + 1]);
  }

  max_degree_ = 0;
  for (size_t v = 0; v < n; ++v) {
    size_t deg = (out_offsets[v + 1] - out_offsets[v]) +
                 (in_offsets[v + 1] - in_offsets[v]);
    max_degree_ = std::max(max_degree_, deg);
  }

  std::vector<TermId> predicates;
  for (TermId p = 0; p < predicate_freq.size(); ++p) {
    if (predicate_freq[p] > 0) predicates.push_back(p);
  }

  // A vertex is a class iff it is the object of rdf:type or touches
  // rdfs:subClassOf on either side.
  is_class_.assign(n, false);
  for (const Triple& t : triples) {
    if (t.predicate == type_pred_) is_class_[t.object] = true;
    if (t.predicate == subclass_pred_) {
      is_class_[t.subject] = true;
      is_class_[t.object] = true;
    }
  }

  out_edges_ = std::move(out_edges);
  out_offsets_ = std::move(out_offsets);
  in_edges_ = std::move(in_edges);
  in_offsets_ = std::move(in_offsets);
  predicates_ = std::move(predicates);
  predicate_freq_ = std::move(predicate_freq);

  finalized_ = true;
  return Status::Ok();
}

std::span<const Edge> RdfGraph::OutEdges(TermId v) const {
  if (overlay_ != nullptr) [[unlikely]] {
    auto it = overlay_->out_runs.find(v);
    if (it != overlay_->out_runs.end()) {
      return {it->second->data(), it->second->size()};
    }
    return overlay_->base->OutEdges(v);
  }
  size_t idx = static_cast<size_t>(v);
  if (idx + 1 >= out_offsets_.size()) return {};
  return {out_edges_.data() + out_offsets_[idx],
          out_offsets_[idx + 1] - out_offsets_[idx]};
}

std::span<const Edge> RdfGraph::InEdges(TermId v) const {
  if (overlay_ != nullptr) [[unlikely]] {
    auto it = overlay_->in_runs.find(v);
    if (it != overlay_->in_runs.end()) {
      return {it->second->data(), it->second->size()};
    }
    return overlay_->base->InEdges(v);
  }
  size_t idx = static_cast<size_t>(v);
  if (idx + 1 >= in_offsets_.size()) return {};
  return {in_edges_.data() + in_offsets_[idx],
          in_offsets_[idx + 1] - in_offsets_[idx]};
}

bool RdfGraph::HasTriple(TermId s, TermId p, TermId o) const {
  auto edges = OutEdges(s);
  Edge key{p, o};
  return std::binary_search(edges.begin(), edges.end(), key);
}

std::vector<TermId> RdfGraph::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  for (const Edge& e : PredicateRun(OutEdges(s), p)) out.push_back(e.neighbor);
  return out;
}

std::vector<TermId> RdfGraph::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  for (const Edge& e : PredicateRun(InEdges(o), p)) out.push_back(e.neighbor);
  return out;
}

bool RdfGraph::IsClass(TermId v) const {
  if (overlay_ != nullptr) [[unlikely]] {
    auto it = overlay_->is_class.find(v);
    if (it != overlay_->is_class.end()) return it->second;
    return overlay_->base->IsClass(v);
  }
  return v < is_class_.size() && is_class_[v];
}

bool RdfGraph::IsEntity(TermId v) const {
  if (v >= dict_.size() || dict_.IsLiteral(v)) return false;
  if (IsClass(v)) return false;
  // Predicate-only terms (never appear as subject or object) are not
  // entities.
  return Degree(v) > 0;
}

std::vector<TermId> RdfGraph::DirectTypes(TermId v) const {
  return Objects(v, type_pred_);
}

std::vector<TermId> RdfGraph::SuperClassesOf(TermId cls) const {
  std::vector<TermId> out;
  std::vector<bool> seen(dict_.size(), false);
  std::queue<TermId> q;
  q.push(cls);
  if (cls < seen.size()) seen[cls] = true;
  while (!q.empty()) {
    TermId c = q.front();
    q.pop();
    out.push_back(c);
    for (TermId super : Objects(c, subclass_pred_)) {
      if (!seen[super]) {
        seen[super] = true;
        q.push(super);
      }
    }
  }
  return out;
}

bool RdfGraph::IsInstanceOf(TermId v, TermId cls) const {
  for (TermId direct : DirectTypes(v)) {
    if (direct == cls) return true;
    for (TermId super : SuperClassesOf(direct)) {
      if (super == cls) return true;
    }
  }
  return false;
}

std::vector<TermId> RdfGraph::InstancesOf(TermId cls) const {
  // cls and its rdfs:subClassOf descendants. Hierarchies are small, so a
  // sorted vector is the seen set.
  std::vector<TermId> classes{cls};
  std::vector<TermId> seen{cls};
  for (size_t i = 0; i < classes.size(); ++i) {
    for (const Edge& e : PredicateRun(InEdges(classes[i]), subclass_pred_)) {
      auto at = std::lower_bound(seen.begin(), seen.end(), e.neighbor);
      if (at != seen.end() && *at == e.neighbor) continue;
      seen.insert(at, e.neighbor);
      classes.push_back(e.neighbor);
    }
  }

  // Each class's rdf:type in-edges are one run of instances, ascending.
  // The largest run is the base; the other runs contribute only what the
  // base lacks, found through a bitmap over the base's id range. Where
  // every subclass instance is also typed by the class itself, that is
  // nothing, and the base is the answer as it stands.
  std::vector<std::span<const Edge>> runs;
  for (TermId c : classes) {
    std::span<const Edge> run = PredicateRun(InEdges(c), type_pred_);
    if (!run.empty()) runs.push_back(run);
  }
  if (runs.empty()) return {};
  auto largest = std::max_element(
      runs.begin(), runs.end(),
      [](std::span<const Edge> a, std::span<const Edge> b) {
        return a.size() < b.size();
      });
  std::iter_swap(runs.begin(), largest);
  std::vector<TermId> result;
  result.reserve(runs[0].size());
  for (const Edge& e : runs[0]) result.push_back(e.neighbor);

  if (runs.size() == 1) return result;
  const TermId lo = result.front(), hi = result.back();
  std::vector<bool> in_base(hi - lo + 1, false);
  for (TermId v : result) in_base[v - lo] = true;
  std::vector<TermId> extra;
  for (size_t r = 1; r < runs.size(); ++r) {
    for (const Edge& e : runs[r]) {
      TermId v = e.neighbor;
      if (v < lo || v > hi || !in_base[v - lo]) extra.push_back(v);
    }
  }
  if (extra.empty()) return result;
  // Runs of different subclasses interleave and may share instances.
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  const size_t base_size = result.size();
  result.insert(result.end(), extra.begin(), extra.end());
  std::inplace_merge(result.begin(), result.begin() + base_size, result.end());
  return result;
}

Status RdfGraph::SaveBinary(BinaryWriter* out) const {
  if (!finalized_) {
    return Status::InvalidArgument("SaveBinary requires a finalized graph");
  }
  if (overlay_ != nullptr) {
    return Status::InvalidArgument(
        "overlay graphs are not serializable; compact to a flat graph first");
  }
  dict_.SaveBinary(out);
  out->WriteU64(num_triples_);
  out->WriteU64(max_degree_);
  out->WriteU32(type_pred_);
  out->WriteU32(subclass_pred_);
  out->WriteU32(label_pred_);
  out->WritePodVector(out_edges_);
  out->WritePodVector(out_offsets_);
  out->WritePodVector(in_edges_);
  out->WritePodVector(in_offsets_);
  out->WriteBoolVector(is_class_);
  out->WritePodVector(predicates_);
  out->WritePodVector(predicate_freq_);
  return Status::Ok();
}

Status RdfGraph::LoadBinary(BinaryReader* in) {
  GANSWER_RETURN_NOT_OK(dict_.LoadBinary(in));
  uint64_t num_triples = 0, max_degree = 0;
  GANSWER_RETURN_NOT_OK(in->ReadU64(&num_triples));
  GANSWER_RETURN_NOT_OK(in->ReadU64(&max_degree));
  GANSWER_RETURN_NOT_OK(in->ReadU32(&type_pred_));
  GANSWER_RETURN_NOT_OK(in->ReadU32(&subclass_pred_));
  GANSWER_RETURN_NOT_OK(in->ReadU32(&label_pred_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&out_edges_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&out_offsets_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&in_edges_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&in_offsets_));
  GANSWER_RETURN_NOT_OK(in->ReadBoolVector(&is_class_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&predicates_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&predicate_freq_));
  num_triples_ = num_triples;
  max_degree_ = max_degree;
  return ValidateLoaded();
}

Status RdfGraph::ValidateLoaded() {
  size_t n = out_offsets_.empty() ? 0 : out_offsets_.size() - 1;
  if (n < dict_.size() || out_edges_.size() != num_triples_ ||
      in_edges_.size() != num_triples_) {
    return Status::Corruption("graph CSR sizes inconsistent");
  }
  if (type_pred_ >= n || subclass_pred_ >= n || label_pred_ >= n) {
    return Status::Corruption("well-known predicate id out of range");
  }
  GANSWER_RETURN_NOT_OK(ValidateOffsets(out_offsets_, n, out_edges_.size(),
                                        "out-edge"));
  GANSWER_RETURN_NOT_OK(ValidateOffsets(in_offsets_, n, in_edges_.size(),
                                        "in-edge"));
  if (is_class_.size() != n || predicate_freq_.size() != n ||
      in_offsets_.size() != out_offsets_.size()) {
    return Status::Corruption("graph auxiliary array sizes inconsistent");
  }
  for (const std::vector<Edge>* edges : {&out_edges_, &in_edges_}) {
    for (const Edge& e : *edges) {
      if (e.predicate >= n || e.neighbor >= n) {
        return Status::Corruption("graph edge references unknown vertex");
      }
    }
  }
  for (TermId p : predicates_) {
    if (p >= n) return Status::Corruption("predicate id out of range");
  }
  pending_.clear();
  pending_.shrink_to_fit();
  finalized_ = true;
  return Status::Ok();
}

size_t RdfGraph::PredicateFrequency(TermId p) const {
  if (overlay_ != nullptr) [[unlikely]] {
    auto it = overlay_->predicate_freq.find(p);
    if (it != overlay_->predicate_freq.end()) return it->second;
    return overlay_->base->PredicateFrequency(p);
  }
  if (p >= predicate_freq_.size()) return 0;
  return predicate_freq_[p];
}

}  // namespace rdf
}  // namespace ganswer
