#ifndef GANSWER_RDF_GRAPH_STATS_H_
#define GANSWER_RDF_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdf/rdf_graph.h"

namespace ganswer {
namespace rdf {

/// \brief Cardinality statistics of a finalized RdfGraph, computed once at
/// build time and consumed by the query planners (SparqlEngine join
/// ordering, CandidateSpace/TopKMatcher anchor and expansion ordering).
///
/// Per predicate: triple count, distinct subject count, distinct object
/// count. Per class: instance count through the rdfs:subClassOf closure
/// (what an `?x rdf:type <C>` pattern actually yields). Global: average
/// out/in fan-out over vertices that have edges at all. Everything is a
/// plain sorted column, so lookups are binary searches and the whole object
/// round-trips through the snapshot as POD vectors.
///
/// Statistics only steer *ordering* decisions, never filtering: a planner
/// consulting a stale or empty GraphStats still returns exact results, just
/// in a worse join order.
class GraphStats {
 public:
  GraphStats() = default;

  /// One pass over the CSR adjacency (O(V + E)) plus one InstancesOf walk
  /// per class vertex. \p graph must be finalized.
  static GraphStats Compute(const RdfGraph& graph);

  uint64_t num_triples() const { return num_triples_; }
  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_predicates() const { return predicates_.size(); }
  uint64_t num_classes() const { return classes_.size(); }

  /// Mean out-degree over vertices with at least one out-edge (>= 1 when
  /// the graph has triples); the fan-out of "follow any predicate forward".
  double AvgOutFanout() const;
  /// Mean in-degree over vertices with at least one in-edge.
  double AvgInFanout() const;

  /// Number of triples with predicate \p p; 0 for unknown terms.
  uint64_t TripleCount(TermId p) const;
  /// Number of distinct subjects appearing with predicate \p p.
  uint64_t DistinctSubjects(TermId p) const;
  /// Number of distinct objects appearing with predicate \p p.
  uint64_t DistinctObjects(TermId p) const;
  /// Instances of class \p cls through the subclass closure; 0 when \p cls
  /// is not a class vertex.
  uint64_t ClassInstanceCount(TermId cls) const;

  /// Expected |{o : <s, p, o>}| for a subject that uses \p p at all:
  /// TripleCount(p) / DistinctSubjects(p). 0 for unknown predicates.
  double AvgObjectsPerSubject(TermId p) const;
  /// Expected |{s : <s, p, o>}| for an object that \p p points at.
  double AvgSubjectsPerObject(TermId p) const;

  Status SaveBinary(BinaryWriter* out) const;
  /// Replaces the contents with previously saved statistics; validates that
  /// the key arrays are sorted and the column lengths agree.
  Status LoadBinary(BinaryReader* in);

  friend bool operator==(const GraphStats&, const GraphStats&) = default;

 private:
  size_t PredicateSlot(TermId p) const;
  Status Validate() const;

  uint64_t num_triples_ = 0;
  uint64_t num_vertices_ = 0;
  uint64_t subjects_with_out_ = 0;  // vertices with >= 1 out-edge
  uint64_t objects_with_in_ = 0;    // vertices with >= 1 in-edge
  // Columnar per-predicate records, keyed by the sorted predicates_ column
  // (parallel columns rather than a struct so the snapshot bytes contain no
  // padding and the section is deterministic).
  std::vector<TermId> predicates_;  // ascending
  std::vector<uint64_t> triples_;
  std::vector<uint64_t> distinct_subjects_;
  std::vector<uint64_t> distinct_objects_;
  // Per-class instance counts, keyed by the sorted classes_ column.
  std::vector<TermId> classes_;  // ascending
  std::vector<uint64_t> instance_counts_;
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_GRAPH_STATS_H_
