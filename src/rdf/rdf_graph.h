#ifndef GANSWER_RDF_RDF_GRAPH_H_
#define GANSWER_RDF_RDF_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "rdf/term_dictionary.h"
#include "rdf/triple.h"

namespace ganswer {
namespace rdf {

/// Well-known predicate names. The data generator and the QA pipeline agree
/// on these; the N-Triples parser maps full rdf:/rdfs: IRIs onto them.
inline constexpr std::string_view kTypePredicate = "rdf:type";
inline constexpr std::string_view kSubClassOfPredicate = "rdfs:subClassOf";
inline constexpr std::string_view kLabelPredicate = "rdfs:label";

/// One directed, predicate-labelled edge incident to a vertex.
struct Edge {
  TermId predicate = kInvalidTerm;
  TermId neighbor = kInvalidTerm;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class RdfGraph;

/// \brief Copy-on-write delta overlay over a finalized base graph — the
/// read-side substrate of the live ingestion subsystem (store/live).
///
/// A vertex the delta touched carries a fully merged (base + adds - deletes)
/// sorted adjacency run; every other vertex serves its base CSR run
/// untouched. Runs are shared_ptrs so successive epochs share the runs of
/// vertices a batch did not touch — building epoch N+1 from epoch N copies
/// two hash maps and re-merges only the batch's vertices, O(accumulated
/// delta), never O(base).
///
/// All fields are absolute (merged) values, not diffs: lookups are a single
/// hash probe with fallback to the base, no arithmetic at read time.
struct GraphOverlay {
  /// The immutable finalized base; pinned for the overlay's lifetime.
  std::shared_ptr<const RdfGraph> base;
  /// Merged sorted (predicate, neighbor) runs for touched vertices. A
  /// present-but-empty run masks the base (all of the vertex's edges in
  /// that direction were deleted).
  std::unordered_map<TermId, std::shared_ptr<const std::vector<Edge>>>
      out_runs;
  std::unordered_map<TermId, std::shared_ptr<const std::vector<Edge>>>
      in_runs;
  /// Absolute class status for every touched vertex (new vertices
  /// included; class-ness is a function of a vertex's own adjacency).
  std::unordered_map<TermId, bool> is_class;
  /// Absolute triple counts for predicates whose frequency changed.
  std::unordered_map<TermId, uint64_t> predicate_freq;
  /// The full ascending predicate list of the merged graph (small).
  std::vector<TermId> predicates;
  size_t num_triples = 0;
  /// Monotone upper bound on the true max degree (deletes do not shrink
  /// it); made exact again at compaction. Only /stats reports it.
  size_t max_degree = 0;
};

/// \brief In-memory RDF graph: dictionary-encoded triples with per-vertex
/// sorted adjacency in CSR form (out- and in-edges), plus the type
/// machinery the paper's match semantics need (class vertices, rdf:type
/// with subclass closure).
///
/// Adjacency is stored as two flat arrays per direction: one Edge array
/// holding every vertex's edges contiguously, sorted by (predicate,
/// neighbor) within a vertex, and one offset array indexed by vertex id.
/// OutEdges/InEdges return spans into these arrays. After Finalize() the
/// structure is immutable, so concurrent readers (the parallel miner and
/// matcher) share it without locks, and a hop touches one contiguous cache
/// run instead of chasing a per-vertex heap allocation.
///
/// Vertex ids are TermIds from the owned TermDictionary, so graph ids and
/// dictionary ids can be used interchangeably.
///
/// Construction protocol: Intern terms / AddTriple in any order, then call
/// Finalize() once. Queries before Finalize() are undefined. Adding more
/// triples after Finalize() and finalizing again rebuilds the CSR from the
/// union of old and new triples.
class RdfGraph {
 public:
  RdfGraph();

  /// Overlay view constructor (store/live): serves merged base+delta
  /// adjacency through the normal span accessors, so every engine built on
  /// `const RdfGraph&` works over live data unchanged. \p dict is an
  /// extension dictionary over overlay->base->dict(), adopted by move; the
  /// resulting graph is finalized and immutable. Overlay graphs cannot be
  /// re-finalized or serialized — compaction materializes a flat graph
  /// instead. The non-live hot path pays one predictable overlay_ == null
  /// branch per accessor.
  RdfGraph(std::shared_ptr<const GraphOverlay> overlay, TermDictionary dict);

  RdfGraph(const RdfGraph&) = delete;
  RdfGraph& operator=(const RdfGraph&) = delete;
  RdfGraph(RdfGraph&&) = default;
  RdfGraph& operator=(RdfGraph&&) = default;

  /// True for a graph constructed as a live delta overlay.
  bool is_overlay() const { return overlay_ != nullptr; }
  /// The overlay, or nullptr for a flat graph.
  const GraphOverlay* overlay() const { return overlay_.get(); }

  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  /// Interns the three terms and records the triple. Duplicate triples are
  /// deduplicated at Finalize().
  void AddTriple(std::string_view subject, std::string_view predicate,
                 std::string_view object,
                 TermKind object_kind = TermKind::kIri);

  /// Records an already-encoded triple.
  void AddTriple(Triple t);

  /// Sorts and deduplicates adjacency, computes class/type info. Must be
  /// called exactly once after the last AddTriple.
  Status Finalize();
  bool finalized() const { return finalized_; }

  size_t NumTerms() const { return dict_.size(); }
  size_t NumTriples() const { return num_triples_; }
  size_t NumPredicates() const { return predicates_.size(); }
  size_t MaxDegree() const { return max_degree_; }

  /// Out-edges of \p v sorted by (predicate, neighbor).
  std::span<const Edge> OutEdges(TermId v) const;
  /// In-edges of \p v sorted by (predicate, neighbor); Edge::neighbor is the
  /// source vertex.
  std::span<const Edge> InEdges(TermId v) const;

  size_t OutDegree(TermId v) const { return OutEdges(v).size(); }
  size_t InDegree(TermId v) const { return InEdges(v).size(); }
  size_t Degree(TermId v) const { return OutDegree(v) + InDegree(v); }

  /// True when the exact triple <s, p, o> is present.
  bool HasTriple(TermId s, TermId p, TermId o) const;

  /// Objects o with <s, p, o> in the graph.
  std::vector<TermId> Objects(TermId s, TermId p) const;
  /// Subjects s with <s, p, o> in the graph.
  std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// All distinct predicate ids used by at least one triple.
  std::span<const TermId> Predicates() const { return predicates_; }

  /// True when \p v names a class: it appears as the object of an rdf:type
  /// triple or on either side of rdfs:subClassOf.
  bool IsClass(TermId v) const;

  /// True when \p v is an entity vertex (an IRI that is not a class and not
  /// a predicate-only term).
  bool IsEntity(TermId v) const;

  /// Direct rdf:type classes of \p v (no closure).
  std::vector<TermId> DirectTypes(TermId v) const;

  /// True when \p v has rdf:type \p cls, directly or through the
  /// rdfs:subClassOf closure.
  bool IsInstanceOf(TermId v, TermId cls) const;

  /// All entities whose (closed) type set contains \p cls.
  std::vector<TermId> InstancesOf(TermId cls) const;

  /// Super-classes of \p cls through rdfs:subClassOf, including \p cls.
  std::vector<TermId> SuperClassesOf(TermId cls) const;

  /// Number of triples whose predicate is \p p; 0 for unknown predicates.
  /// Used by join ordering and candidate pruning as a selectivity estimate.
  size_t PredicateFrequency(TermId p) const;

  /// Convenience for tests and examples: id of the IRI term with this
  /// text.
  std::optional<TermId> Find(std::string_view text) const {
    return dict_.Lookup(text);
  }
  /// Id of a term with this text of either kind (IRI preferred) — for
  /// callers handling user-provided names that may denote literals
  /// (nicknames, dates).
  std::optional<TermId> FindTerm(std::string_view text) const {
    return dict_.LookupAny(text);
  }

  TermId type_predicate() const { return type_pred_; }
  TermId subclass_predicate() const { return subclass_pred_; }
  TermId label_predicate() const { return label_pred_; }

  /// Snapshot serialization of a finalized graph: the term dictionary plus
  /// the flat CSR arrays and class bitmap, so loading restores a servable
  /// graph with bulk reads — no re-interning, no re-sorting, no Finalize().
  Status SaveBinary(BinaryWriter* out) const;
  /// Replaces the contents with a previously saved graph; the loaded graph
  /// is immediately finalized. Structural invariants (offset monotonicity,
  /// edge bounds) are validated so a corrupt payload is rejected.
  Status LoadBinary(BinaryReader* in);

 private:
  Status ValidateLoaded();

  TermDictionary dict_;
  std::vector<Triple> pending_;
  // CSR adjacency: edges of vertex v live in *_edges_[*_offsets_[v] ..
  // *_offsets_[v + 1]), sorted by (predicate, neighbor). Offset arrays have
  // num_vertices + 1 entries; empty before the first Finalize().
  std::vector<Edge> out_edges_;
  std::vector<uint64_t> out_offsets_;
  std::vector<Edge> in_edges_;
  std::vector<uint64_t> in_offsets_;
  std::vector<bool> is_class_;
  std::vector<TermId> predicates_;
  std::vector<uint64_t> predicate_freq_;  // indexed by TermId, 0 if not a pred
  size_t num_triples_ = 0;
  size_t max_degree_ = 0;
  bool finalized_ = false;
  TermId type_pred_ = kInvalidTerm;
  TermId subclass_pred_ = kInvalidTerm;
  TermId label_pred_ = kInvalidTerm;
  // Live delta overlay; null for flat graphs (the common case). When set,
  // the CSR columns above are empty and every adjacency/class/frequency
  // accessor consults the overlay maps with fallback to overlay_->base.
  std::shared_ptr<const GraphOverlay> overlay_;
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_RDF_GRAPH_H_
