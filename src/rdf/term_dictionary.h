#ifndef GANSWER_RDF_TERM_DICTIONARY_H_
#define GANSWER_RDF_TERM_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_table.h"
#include "common/status.h"

namespace ganswer {

class BinaryWriter;
class BinaryReader;

namespace rdf {

/// Integer id of an interned RDF term. Ids are dense, starting at 0, and
/// double as vertex ids in RdfGraph.
using TermId = uint32_t;

/// Sentinel for "no term".
constexpr TermId kInvalidTerm = static_cast<TermId>(-1);

/// Kind of an interned term. IRIs name entities, classes and predicates;
/// literals carry values ("1.98", "1962-03-21").
enum class TermKind : uint8_t { kIri = 0, kLiteral = 1 };

/// \brief Bidirectional string <-> id mapping for RDF terms.
///
/// All triples in an RdfGraph are dictionary-encoded: parsing interns each
/// subject/predicate/object once and the engine works on dense uint32 ids,
/// in the style of every disk-based RDF store (RDF-3X, gStore, Virtuoso).
///
/// Term texts live in one contiguous arena addressed by an offset column.
/// The lookup index is one open-addressing table of TermIds (IdTable),
/// probed by a hash of (kind, text) and compared against text(id) in the
/// arena: it stores no keys (views into the arena would dangle when it
/// grows), so a lookup allocates nothing and a load fills it in one
/// reserving pass.
///
/// EXTENSION MODE (the live-update delta layer): InitExtension(base) turns a
/// freshly constructed dictionary into an overlay over an immutable \p base.
/// Ids [0, base->size()) resolve through the base; new terms intern locally
/// and receive the next dense ids above it, so TermIds stay stable across
/// batch commits and double as vertex ids in the overlay graph. An extension
/// dictionary is in-memory only — it is never serialized (compaction
/// re-interns every term into a flat dictionary in id order instead).
class TermDictionary {
 public:
  TermDictionary() : offsets_{0} {}

  // Movable, not copyable: the dictionary backs id stability for a graph.
  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;
  TermDictionary(TermDictionary&&) = default;
  TermDictionary& operator=(TermDictionary&&) = default;

  /// Interns \p text with \p kind, returning the existing id when already
  /// present. IRIs and literals live in SEPARATE term spaces: the literal
  /// "country" (a label) and the IRI <country> (a predicate) are distinct
  /// terms even though their texts match — as in any real RDF store.
  TermId Intern(std::string_view text, TermKind kind = TermKind::kIri);

  /// Id of the term with \p text and \p kind, or std::nullopt.
  std::optional<TermId> Lookup(std::string_view text,
                               TermKind kind = TermKind::kIri) const;

  /// Id of a term with \p text of either kind, preferring the IRI.
  std::optional<TermId> LookupAny(std::string_view text) const;

  /// Turns this dictionary into an extension over \p base (see class
  /// comment). Must be called on a freshly constructed, empty dictionary;
  /// \p base must outlive this object and stay un-Interned (callers pin the
  /// owning snapshot). Ids below base->size() delegate to the base; local
  /// terms get ids base->size(), base->size()+1, ...
  void InitExtension(const TermDictionary* base);

  /// The base dictionary of an extension, or nullptr for a flat dictionary.
  const TermDictionary* extension_base() const { return base_; }
  /// Number of ids served by the base (0 for a flat dictionary); local
  /// (delta) terms are exactly the ids in [base_size(), size()).
  size_t base_size() const { return base_size_; }

  /// Text of term \p id. \p id must be valid. The view is stable for the
  /// life of the dictionary as long as no further Intern happens.
  std::string_view text(TermId id) const {
    if (id < base_size_) return base_->text(id);
    id -= static_cast<TermId>(base_size_);
    return std::string_view(arena_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  TermKind kind(TermId id) const {
    if (id < base_size_) return base_->kind(id);
    return static_cast<TermKind>(kinds_[id - base_size_]);
  }
  bool IsLiteral(TermId id) const {
    return kind(id) == TermKind::kLiteral;
  }

  /// Number of interned terms; valid ids are [0, size()).
  size_t size() const { return base_size_ + kinds_.size(); }

  /// Snapshot serialization: one contiguous string arena + an offset array
  /// + the kind array, so the matching load is three bulk reads.
  void SaveBinary(BinaryWriter* out) const;
  /// Replaces the contents with a previously saved dictionary. Term ids are
  /// preserved exactly; the lookup table is filled in one reserving pass,
  /// and a term saved twice is Status::Corruption.
  Status LoadBinary(BinaryReader* in);

 private:
  Status RebuildIndex();
  /// The local term equal to (\p text, \p kind), whose hash is \p hash,
  /// or kInvalidTerm with *slot at the empty slot where it would go.
  TermId Probe(std::string_view text, TermKind kind, uint64_t hash,
               size_t* slot) const;
  /// Id of (\p text, \p kind) here or, for an extension, in the base;
  /// kInvalidTerm when neither knows it.
  TermId Find(std::string_view text, TermKind kind, uint64_t hash) const;
  /// Resets the table for \p n terms and re-inserts every local term.
  void Rehash(size_t n);

  std::vector<char> arena_;
  std::vector<uint64_t> offsets_;  // local count + 1 entries; offsets_[0] == 0
  std::vector<uint8_t> kinds_;
  // GLOBAL ids of the local terms (IdTable::kEmpty is kInvalidTerm).
  IdTable table_;
  // Extension mode (see class comment). The base stays un-Interned and is
  // kept alive by the caller; base_size_ caches base_->size() so the hot
  // text()/kind() branch never chases the pointer for flat dictionaries.
  const TermDictionary* base_ = nullptr;
  size_t base_size_ = 0;
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_TERM_DICTIONARY_H_
