#include "rdf/graph_stats.h"

#include <algorithm>

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {

GraphStats GraphStats::Compute(const RdfGraph& graph) {
  GraphStats stats;
  stats.num_triples_ = graph.NumTriples();
  stats.num_vertices_ = graph.NumTerms();

  std::span<const TermId> preds = graph.Predicates();
  std::vector<TermId> predicates(preds.begin(), preds.end());
  std::sort(predicates.begin(), predicates.end());
  size_t np = predicates.size();
  std::vector<uint64_t> triples(np, 0);
  std::vector<uint64_t> distinct_subjects(np, 0);
  std::vector<uint64_t> distinct_objects(np, 0);
  auto slot_of = [&](TermId p) {
    return static_cast<size_t>(
        std::lower_bound(predicates.begin(), predicates.end(), p) -
        predicates.begin());
  };

  // Adjacency is sorted by (predicate, neighbor) within a vertex, so each
  // vertex contributes one run per predicate it uses: run length goes to
  // the triple count, the run itself counts one distinct subject (out
  // direction) resp. object (in direction).
  const size_t n = graph.NumTerms();
  for (TermId v = 0; v < n; ++v) {
    auto outs = graph.OutEdges(v);
    if (!outs.empty()) ++stats.subjects_with_out_;
    for (size_t i = 0; i < outs.size();) {
      TermId p = outs[i].predicate;
      size_t j = i;
      while (j < outs.size() && outs[j].predicate == p) ++j;
      size_t slot = slot_of(p);
      triples[slot] += j - i;
      ++distinct_subjects[slot];
      i = j;
    }
    auto ins = graph.InEdges(v);
    if (!ins.empty()) ++stats.objects_with_in_;
    for (size_t i = 0; i < ins.size();) {
      TermId p = ins[i].predicate;
      size_t j = i;
      while (j < ins.size() && ins[j].predicate == p) ++j;
      ++distinct_objects[slot_of(p)];
      i = j;
    }
  }

  std::vector<TermId> classes;
  std::vector<uint64_t> instance_counts;
  for (TermId v = 0; v < n; ++v) {
    if (!graph.IsClass(v)) continue;
    classes.push_back(v);
    instance_counts.push_back(graph.InstancesOf(v).size());
  }

  stats.predicates_ = std::move(predicates);
  stats.triples_ = std::move(triples);
  stats.distinct_subjects_ = std::move(distinct_subjects);
  stats.distinct_objects_ = std::move(distinct_objects);
  stats.classes_ = std::move(classes);
  stats.instance_counts_ = std::move(instance_counts);
  return stats;
}

size_t GraphStats::PredicateSlot(TermId p) const {
  auto it = std::lower_bound(predicates_.begin(), predicates_.end(), p);
  if (it == predicates_.end() || *it != p) return predicates_.size();
  return static_cast<size_t>(it - predicates_.begin());
}

double GraphStats::AvgOutFanout() const {
  if (subjects_with_out_ == 0) return 0.0;
  return static_cast<double>(num_triples_) /
         static_cast<double>(subjects_with_out_);
}

double GraphStats::AvgInFanout() const {
  if (objects_with_in_ == 0) return 0.0;
  return static_cast<double>(num_triples_) /
         static_cast<double>(objects_with_in_);
}

uint64_t GraphStats::TripleCount(TermId p) const {
  size_t slot = PredicateSlot(p);
  return slot < triples_.size() ? triples_[slot] : 0;
}

uint64_t GraphStats::DistinctSubjects(TermId p) const {
  size_t slot = PredicateSlot(p);
  return slot < distinct_subjects_.size() ? distinct_subjects_[slot] : 0;
}

uint64_t GraphStats::DistinctObjects(TermId p) const {
  size_t slot = PredicateSlot(p);
  return slot < distinct_objects_.size() ? distinct_objects_[slot] : 0;
}

uint64_t GraphStats::ClassInstanceCount(TermId cls) const {
  auto it = std::lower_bound(classes_.begin(), classes_.end(), cls);
  if (it == classes_.end() || *it != cls) return 0;
  return instance_counts_[static_cast<size_t>(it - classes_.begin())];
}

double GraphStats::AvgObjectsPerSubject(TermId p) const {
  size_t slot = PredicateSlot(p);
  if (slot >= triples_.size() || distinct_subjects_[slot] == 0) return 0.0;
  return static_cast<double>(triples_[slot]) /
         static_cast<double>(distinct_subjects_[slot]);
}

double GraphStats::AvgSubjectsPerObject(TermId p) const {
  size_t slot = PredicateSlot(p);
  if (slot >= triples_.size() || distinct_objects_[slot] == 0) return 0.0;
  return static_cast<double>(triples_[slot]) /
         static_cast<double>(distinct_objects_[slot]);
}

Status GraphStats::SaveBinary(BinaryWriter* out) const {
  if (out == nullptr) return Status::InvalidArgument("null writer");
  out->WriteU64(num_triples_);
  out->WriteU64(num_vertices_);
  out->WriteU64(subjects_with_out_);
  out->WriteU64(objects_with_in_);
  out->WritePodVector(predicates_);
  out->WritePodVector(triples_);
  out->WritePodVector(distinct_subjects_);
  out->WritePodVector(distinct_objects_);
  out->WritePodVector(classes_);
  out->WritePodVector(instance_counts_);
  return Status::Ok();
}

Status GraphStats::LoadBinary(BinaryReader* in) {
  if (in == nullptr) return Status::InvalidArgument("null reader");
  GANSWER_RETURN_NOT_OK(in->ReadU64(&num_triples_));
  GANSWER_RETURN_NOT_OK(in->ReadU64(&num_vertices_));
  GANSWER_RETURN_NOT_OK(in->ReadU64(&subjects_with_out_));
  GANSWER_RETURN_NOT_OK(in->ReadU64(&objects_with_in_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&predicates_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&triples_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&distinct_subjects_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&distinct_objects_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&classes_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&instance_counts_));
  return Validate();
}

Status GraphStats::Validate() const {
  if (triples_.size() != predicates_.size() ||
      distinct_subjects_.size() != predicates_.size() ||
      distinct_objects_.size() != predicates_.size()) {
    return Status::Corruption("graph stats predicate columns disagree");
  }
  if (instance_counts_.size() != classes_.size()) {
    return Status::Corruption("graph stats class columns disagree");
  }
  if (!std::is_sorted(predicates_.begin(), predicates_.end()) ||
      std::adjacent_find(predicates_.begin(), predicates_.end()) !=
          predicates_.end()) {
    return Status::Corruption("graph stats predicate keys not sorted");
  }
  if (!std::is_sorted(classes_.begin(), classes_.end()) ||
      std::adjacent_find(classes_.begin(), classes_.end()) != classes_.end()) {
    return Status::Corruption("graph stats class keys not sorted");
  }
  return Status::Ok();
}

}  // namespace rdf
}  // namespace ganswer
