#ifndef GANSWER_LINKING_ENTITY_INDEX_H_
#define GANSWER_LINKING_ENTITY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_table.h"
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
/// Two sorted key tables are kept: full normalized label -> vertices
/// (exact lookups) and single token -> vertices (partial-match candidate
/// generation), each a key blob with u32 offsets and one u32 postings
/// array, found through a hash table of key positions. Tokens are
/// interned: a token's id is its rank among the sorted token keys, so one
/// lookup yields both. The
/// labels themselves live in one flat table: their text in a char blob, and
/// per label its sorted, distinct token ids, so the linker compares labels
/// with a query by intersecting sorted u32 spans and never splits or hashes
/// a label. Every array is stored as the snapshot holds it, so a load is
/// bulk reads plus one validation pass; only the two hash tables of key
/// positions are filled at load, one pass and one allocation each.
class EntityIndex {
 public:
  /// A token's interned id and its postings (ascending vertex ids).
  struct TokenEntry {
    uint32_t id = 0;
    std::span<const rdf::TermId> postings;
  };

  /// The flat label table: row r is one label, with its text and its token
  /// ids. Rows of one vertex are consecutive. Offsets are u32, which bounds
  /// the label text at 4 GiB and the token ids at 2^32 entries.
  struct LabelTable {
    std::string text;                         // every label, concatenated
    std::vector<uint32_t> text_offsets{0};    // rows + 1, into text
    std::vector<uint32_t> token_offsets{0};   // rows + 1, into token_ids
    std::vector<uint32_t> token_ids;          // per row sorted and distinct

    size_t rows() const { return text_offsets.size() - 1; }
    std::string_view Text(size_t row) const {
      return std::string_view(text).substr(
          text_offsets[row], text_offsets[row + 1] - text_offsets[row]);
    }
    std::span<const uint32_t> Tokens(size_t row) const {
      return std::span<const uint32_t>(token_ids)
          .subspan(token_offsets[row],
                   token_offsets[row + 1] - token_offsets[row]);
    }
  };

  /// The labels of one vertex: views into its rows of a label table,
  /// iterable as the label texts (IRI-derived first).
  class LabelList {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = std::string_view;

      Iterator() = default;
      std::string_view operator*() const { return table_->Text(row_); }
      Iterator& operator++() {
        ++row_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++row_;
        return old;
      }
      bool operator==(const Iterator& other) const {
        return row_ == other.row_;
      }

     private:
      friend class LabelList;
      Iterator(const LabelTable* table, size_t row)
          : table_(table), row_(row) {}
      const LabelTable* table_ = nullptr;
      size_t row_ = 0;
    };

    LabelList() = default;
    size_t size() const { return last_ - first_; }
    bool empty() const { return first_ == last_; }
    std::string_view operator[](size_t i) const {
      return table_->Text(first_ + i);
    }
    /// Sorted distinct token ids of label \p i.
    std::span<const uint32_t> Tokens(size_t i) const {
      return table_->Tokens(first_ + i);
    }
    Iterator begin() const { return Iterator(table_, first_); }
    Iterator end() const { return Iterator(table_, last_); }

   private:
    friend class EntityIndex;
    LabelList(const LabelTable* table, size_t first, size_t last)
        : table_(table), first_(first), last_(last) {}
    const LabelTable* table_ = nullptr;
    size_t first_ = 0;
    size_t last_ = 0;
  };

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
  /// affected postings), never O(V). Token ids agree with the base's; a
  /// token the base does not know gets an id at or above the base's
  /// TokenIdEnd(), so ids are equal exactly when the token strings are.
  static std::unique_ptr<EntityIndex> BuildOverlay(
      const rdf::RdfGraph& graph, std::shared_ptr<const EntityIndex> base,
      const std::vector<rdf::TermId>& touched);

  /// Vertices whose normalized label equals the normalization of \p text,
  /// ascending.
  std::span<const rdf::TermId> ExactMatches(std::string_view text) const;

  /// Vertices one of whose label tokens equals the (lowercased) token,
  /// ascending.
  std::span<const rdf::TermId> TokenMatches(std::string_view token) const;

  /// The id and postings of \p token, which must already be lowercase (a
  /// token of a normalized label), from one hash probe; nullopt when no
  /// label ever had it.
  std::optional<TokenEntry> FindToken(std::string_view token) const;

  /// All normalized labels of vertex \p v (IRI-derived first).
  LabelList LabelsOf(rdf::TermId v) const;

  /// The fewest distinct tokens among \p v's labels, capped at 255 (a
  /// smaller value only weakens a bound built on it); 0 when \p v has no
  /// labels. Inline for a full index: the linker asks once per deferred
  /// token candidate, thousands of times for a hub token.
  uint32_t MinLabelTokens(rdf::TermId v) const {
    if (base_ == nullptr) {
      return v < min_label_tokens_.size() ? min_label_tokens_[v] : 0;
    }
    return OverlayMinLabelTokens(v);
  }

  /// One past the largest token id this index (or its base) hands out.
  uint32_t TokenIdEnd() const { return token_id_end_; }

  const rdf::RdfGraph& graph() const { return graph_; }
  size_t NumIndexedVertices() const { return num_indexed_; }

  /// Snapshot serialization of a full (non-overlay) index: the label and
  /// token key tables exactly as held (sorted keys, so identical indexes
  /// produce identical bytes, and a token's id is its position), then the
  /// flat label table.
  void SaveBinary(BinaryWriter* out) const;
  /// Restores an index over \p graph (the same graph the saved index was
  /// built from). Every array is restored verbatim with one bulk read and
  /// checked in one validation pass; no key gets its own allocation and no
  /// label is split.
  static StatusOr<std::unique_ptr<EntityIndex>> LoadBinary(
      const rdf::RdfGraph& graph, BinaryReader* in);

 private:
  struct LoadTag {};
  EntityIndex(const rdf::RdfGraph& graph, LoadTag) : graph_(graph) {}

  /// Sorted keys, each with a postings list (ascending vertex ids): the key
  /// texts concatenated in one blob, and the lists in one array. Key i is
  /// keys[key_offsets[i], key_offsets[i + 1]) and its list is
  /// postings[postings_offsets[i], postings_offsets[i + 1]). Offsets are
  /// u32, like the label table's. Keys are found through `positions`, a
  /// hash table of key positions filled once the keys are final (it is not
  /// serialized): a binary search over tens of thousands of labels costs
  /// a cache miss per step on a cold request.
  struct PostingsTable {
    std::string keys;
    std::vector<uint32_t> key_offsets{0};       // size() + 1, into keys
    std::vector<uint32_t> postings_offsets{0};  // size() + 1, into postings
    std::vector<rdf::TermId> postings;
    IdTable positions;

    size_t size() const { return key_offsets.size() - 1; }
    std::string_view Key(size_t i) const {
      return std::string_view(keys).substr(key_offsets[i],
                                           key_offsets[i + 1] - key_offsets[i]);
    }
    std::span<const rdf::TermId> Postings(size_t i) const {
      return std::span<const rdf::TermId>(postings).subspan(
          postings_offsets[i], postings_offsets[i + 1] - postings_offsets[i]);
    }
    /// Position of \p key, or size() when absent.
    size_t Find(std::string_view key) const;
    /// Appends a key greater than every key so far; call IndexKeys() after
    /// the last one.
    void Append(std::string_view key, std::span<const rdf::TermId> list);
    /// Fills `positions` with every key, in one pass.
    void IndexKeys();
    void Save(BinaryWriter* out) const;
    /// Bulk-reads the four arrays, validates them (offsets span their
    /// arrays, keys strictly ascend, and each list strictly ascends below
    /// \p num_terms) and indexes the keys. \p what names the table in
    /// errors.
    Status Load(BinaryReader* in, size_t num_terms, const std::string& what);
  };

  /// The build's key -> postings maps, frozen into PostingsTables when the
  /// build ends.
  struct BuildMaps;

  /// The per-vertex indexing rule shared by the full build and the overlay
  /// build: name-like in-referenced literals and entity/class vertices get
  /// their labels added to \p maps, everything else is skipped. Rows are
  /// appended to labels_, and their token ids are provisional (first-seen
  /// order) until the build renumbers them.
  void MaybeIndex(BuildMaps* maps, rdf::TermId v);
  void AddLabel(BuildMaps* maps, rdf::TermId v, std::string_view raw_label,
                size_t first_row);
  /// The postings of normalized label \p norm here or in the base chain.
  std::span<const rdf::TermId> LabelPostings(std::string_view norm) const;
  /// Rewrites the provisional ids in labels_ through \p final_ids and
  /// re-sorts each row's span.
  void RenumberTokens(const std::vector<uint32_t>& final_ids);
  /// Full index: turns the sparse (vertex, first row) list of the build or
  /// the load into the dense per-vertex row ranges and Lmin array.
  void BuildDenseVertexTable(const std::vector<rdf::TermId>& vertices,
                             const std::vector<uint32_t>& vertex_rows);
  /// The index owning \p v's rows and the slot of \p v in its vertex
  /// table, or null when no index in the chain knows \p v.
  const EntityIndex* FindVertex(rdf::TermId v, size_t* slot) const;
  uint32_t OverlayMinLabelTokens(rdf::TermId v) const;

  const rdf::RdfGraph& graph_;
  PostingsTable by_label_;
  PostingsTable by_token_;
  // Overlay only: the id of each by_token_ key. A full index needs none,
  // since there a token's id is its position.
  std::vector<uint32_t> token_ids_;
  LabelTable labels_;
  // Vertex -> rows of labels_. A full index is dense: slot = vertex id,
  // vertex_rows_ has one entry per term plus one, and vertices_ is empty.
  // An overlay lists its touched vertices in vertices_ (ascending, those
  // that lost every label included, as tombstones) and vertex_rows_ has
  // one entry per listed vertex plus one.
  std::vector<rdf::TermId> vertices_;
  std::vector<uint32_t> vertex_rows_;
  // Per slot: the fewest distinct tokens among the vertex's labels.
  std::vector<uint8_t> min_label_tokens_;
  uint32_t token_id_end_ = 0;
  size_t num_indexed_ = 0;
  // Overlay mode: lookups probe this index's tables first (affected keys
  // are always present locally, possibly as empty tombstones) and fall
  // through to the shared immutable base. Null for a full index.
  std::shared_ptr<const EntityIndex> base_;
};

}  // namespace linking
}  // namespace ganswer

#endif  // GANSWER_LINKING_ENTITY_INDEX_H_
