#ifndef GANSWER_LINKING_ENTITY_INDEX_H_
#define GANSWER_LINKING_ENTITY_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rdf/rdf_graph.h"

namespace ganswer {
namespace linking {

/// \brief Label index over the entities and classes of an RDF graph.
///
/// Every entity/class vertex is indexed under (a) each of its rdfs:label
/// literals and (b) the label derived from its IRI local name (underscores
/// to spaces, parenthetical disambiguators stripped) — so "Philadelphia"
/// hits <Philadelphia>, <Philadelphia_(film)> and <Philadelphia_76ers>,
/// which is precisely the ambiguity the paper's pipeline must cope with.
///
/// Two indexes are kept: full normalized label -> vertices (exact lookups)
/// and single token -> vertices (partial-match candidate generation).
class EntityIndex {
 public:
  /// \p graph must be finalized and outlive the index.
  explicit EntityIndex(const rdf::RdfGraph& graph);

  /// Overlay over an immutable \p base index (live views): re-derives the
  /// labels of \p touched vertices from \p graph (an overlay graph), merges
  /// their postings with the base's (with empty lists as tombstones masking
  /// the base), and serves every unaffected key from the base. Exact w.r.t.
  /// a full rebuild because every label input — the IRI/literal text, the
  /// rdfs:label out-edges, the class/entity status, the in-degree gate for
  /// name-like literals — is a function of the vertex's own adjacency, and
  /// both endpoints of every changed edge are in \p touched. O(|touched| +
  /// affected postings), never O(V).
  static std::unique_ptr<EntityIndex> BuildOverlay(
      const rdf::RdfGraph& graph, std::shared_ptr<const EntityIndex> base,
      const std::vector<rdf::TermId>& touched);

  /// Vertices whose normalized label equals the normalization of \p text.
  const std::vector<rdf::TermId>& ExactMatches(std::string_view text) const;

  /// Vertices one of whose label tokens equals the (lowercased) token.
  const std::vector<rdf::TermId>& TokenMatches(std::string_view token) const;

  /// All normalized labels of vertex \p v (IRI-derived first).
  const std::vector<std::string>& LabelsOf(rdf::TermId v) const;

  const rdf::RdfGraph& graph() const { return graph_; }
  size_t NumIndexedVertices() const {
    return base_ != nullptr ? num_indexed_ : labels_of_.size();
  }

  /// Snapshot serialization of the three label maps, with deterministic key
  /// order so identical indexes produce identical bytes.
  void SaveBinary(BinaryWriter* out) const;
  /// Restores an index over \p graph (the same graph the saved index was
  /// built from; postings are restored verbatim, nothing is re-derived).
  static StatusOr<std::unique_ptr<EntityIndex>> LoadBinary(
      const rdf::RdfGraph& graph, BinaryReader* in);

 private:
  struct LoadTag {};
  EntityIndex(const rdf::RdfGraph& graph, LoadTag) : graph_(graph) {}

  /// The per-vertex indexing rule shared by the full build and the overlay
  /// build: name-like in-referenced literals and entity/class vertices get
  /// their labels added, everything else is skipped.
  void MaybeIndex(rdf::TermId v);
  void IndexVertex(rdf::TermId v);
  void AddLabel(rdf::TermId v, std::string_view raw_label);
  /// Construction appends postings without duplicate checks (the scans were
  /// quadratic on hub tokens); this one pass sort+uniques every postings
  /// list. Insertion happens in ascending vertex order, so the sorted lists
  /// equal the old first-occurrence order exactly.
  void FinalizePostings();

  const rdf::RdfGraph& graph_;
  std::unordered_map<std::string, std::vector<rdf::TermId>> by_label_;
  std::unordered_map<std::string, std::vector<rdf::TermId>> by_token_;
  std::unordered_map<rdf::TermId, std::vector<std::string>> labels_of_;
  std::vector<rdf::TermId> empty_;
  std::vector<std::string> no_labels_;
  // Overlay mode: lookups probe this index's maps first (affected keys are
  // always present locally, possibly as empty tombstones) and fall through
  // to the shared immutable base. Null for a flat index.
  std::shared_ptr<const EntityIndex> base_;
  size_t num_indexed_ = 0;  // overlay mode only
};

}  // namespace linking
}  // namespace ganswer

#endif  // GANSWER_LINKING_ENTITY_INDEX_H_
