#ifndef GANSWER_RDF_SIGNATURE_INDEX_H_
#define GANSWER_RDF_SIGNATURE_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/rdf_graph.h"

namespace ganswer {
namespace rdf {

/// \brief gStore-style vertex signatures (Zou, Mo, Chen, Özsu, Zhao:
/// "gStore: Answering SPARQL Queries via Subgraph Matching", PVLDB 2011 —
/// the authors' engine, which production gAnswer evaluates its queries on).
///
/// Every vertex carries two fixed-width bit signatures, one per edge
/// direction, OR-ing a hash bit per incident predicate. Signature
/// containment (sig_required & sig_vertex == sig_required) is then a
/// constant-time NECESSARY condition for "this vertex has an incident edge
/// with predicate p" — false positives possible (hash collisions), false
/// negatives impossible. The matcher's neighborhood pruning (Sec. 4.2.2)
/// consults it before touching adjacency lists.
class SignatureIndex {
 public:
  /// Signature width. 64 bits keeps the check to a single AND even with
  /// the ~40 predicates of the generated schema; real gStore uses wider
  /// signatures plus a VS-tree over them.
  using Signature = uint64_t;

  /// Builds signatures for every vertex of the finalized \p graph, which
  /// must outlive the index.
  explicit SignatureIndex(const RdfGraph& graph);

  /// Overlay over an immutable \p base index (live views): recomputes the
  /// signatures of \p touched vertices from \p graph's merged runs (an
  /// overlay graph) and serves every other vertex from the base. O(|touched|
  /// * degree), never O(V). A vertex's signatures depend only on its own
  /// incident edges, so untouched vertices' base signatures stay exact.
  static SignatureIndex BuildOverlay(const RdfGraph& graph,
                                     std::shared_ptr<const SignatureIndex> base,
                                     const std::vector<TermId>& touched);

  /// The hash bit of predicate \p p.
  static Signature PredicateBit(TermId p);

  Signature OutSignature(TermId v) const;
  Signature InSignature(TermId v) const;

  /// Possibly-has checks: false means definitely no incident edge with
  /// \p p in that direction; true means "check the adjacency list".
  bool MaybeHasOut(TermId v, TermId p) const {
    return (OutSignature(v) & PredicateBit(p)) != 0;
  }
  bool MaybeHasIn(TermId v, TermId p) const {
    return (InSignature(v) & PredicateBit(p)) != 0;
  }
  bool MaybeHasEither(TermId v, TermId p) const {
    return MaybeHasOut(v, p) || MaybeHasIn(v, p);
  }

  /// Containment check for a whole required signature (the gStore
  /// primitive): every required bit present.
  static bool Covers(Signature vertex_sig, Signature required) {
    return (vertex_sig & required) == required;
  }

  size_t NumVertices() const {
    return base_ != nullptr ? num_vertices_ : out_.size();
  }

  /// Snapshot serialization: the two per-vertex signature arrays as-is.
  void SaveBinary(BinaryWriter* out) const;
  /// Restores an index previously saved with SaveBinary, skipping the
  /// per-edge rebuild of the graph constructor.
  static StatusOr<SignatureIndex> LoadBinary(BinaryReader* in);

 private:
  SignatureIndex() = default;  // empty shell for LoadBinary / BuildOverlay

  std::vector<Signature> out_;
  std::vector<Signature> in_;
  // Overlay mode: touched-vertex (out, in) signature pairs over a shared
  // immutable base. Null base_ (the common case) keeps the flat fast path.
  std::shared_ptr<const SignatureIndex> base_;
  std::unordered_map<TermId, std::pair<Signature, Signature>> overrides_;
  size_t num_vertices_ = 0;  // overlay mode only
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_SIGNATURE_INDEX_H_
