#include "rdf/term_dictionary.h"

#include <functional>

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {

namespace {

// Hash of a term: the text's hash, with the literal space flipped by a
// constant so the IRI <country> and the literal "country" probe from
// different slots of the one table.
uint64_t TermHash(std::string_view text, TermKind kind) {
  uint64_t h = std::hash<std::string_view>()(text);
  return kind == TermKind::kLiteral ? h ^ 0x9e3779b97f4a7c15ull : h;
}

// The table's probe predicate: the term of \p dict equal to (\p text,
// \p kind).
auto SameTerm(const TermDictionary& dict, std::string_view text,
              TermKind kind) {
  return [&dict, text, kind](TermId id) {
    return dict.kind(id) == kind && dict.text(id) == text;
  };
}

static_assert(IdTable::kEmpty == kInvalidTerm);

}  // namespace

void TermDictionary::InitExtension(const TermDictionary* base) {
  base_ = base;
  base_size_ = base->size();
}

TermId TermDictionary::Probe(std::string_view text, TermKind kind,
                             uint64_t hash, size_t* slot) const {
  return table_.Probe(hash, SameTerm(*this, text, kind), slot);
}

TermId TermDictionary::Find(std::string_view text, TermKind kind,
                            uint64_t hash) const {
  const TermId id = table_.Find(hash, SameTerm(*this, text, kind));
  if (id != kInvalidTerm) return id;
  return base_ != nullptr ? base_->Find(text, kind, hash) : kInvalidTerm;
}

void TermDictionary::Rehash(size_t n) {
  table_.Reset(n);
  for (size_t local = 0; local < kinds_.size(); ++local) {
    const TermId id = static_cast<TermId>(base_size_ + local);
    const uint64_t hash = TermHash(text(id), kind(id));
    size_t slot = 0;
    Probe(text(id), kind(id), hash, &slot);
    table_.Set(slot, hash, id);
  }
}

TermId TermDictionary::Intern(std::string_view text, TermKind kind) {
  const uint64_t hash = TermHash(text, kind);
  const TermId known = Find(text, kind, hash);
  if (known != kInvalidTerm) return known;
  if (!table_.Fits(kinds_.size() + 1)) Rehash(kinds_.size() + 1);
  size_t slot = 0;
  Probe(text, kind, hash, &slot);
  const TermId id = static_cast<TermId>(size());
  // The caller's view may alias this very arena, which is about to
  // reallocate: copy such a text out first.
  std::string copy;
  std::less_equal<const char*> before;
  if (!text.empty() && before(arena_.data(), text.data()) &&
      before(text.data() + text.size(), arena_.data() + arena_.size())) {
    text = copy.assign(text);
  }
  arena_.insert(arena_.end(), text.begin(), text.end());
  offsets_.push_back(arena_.size());
  kinds_.push_back(static_cast<uint8_t>(kind));
  table_.Set(slot, hash, id);
  return id;
}

std::optional<TermId> TermDictionary::Lookup(std::string_view text,
                                             TermKind kind) const {
  const TermId id = Find(text, kind, TermHash(text, kind));
  if (id == kInvalidTerm) return std::nullopt;
  return id;
}

void TermDictionary::SaveBinary(BinaryWriter* out) const {
  out->WritePodVector(offsets_);
  out->WriteString(std::string_view(arena_.data(), arena_.size()));
  out->WritePodVector(kinds_);
}

Status TermDictionary::LoadBinary(BinaryReader* in) {
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&offsets_));
  // The arena is a length-prefixed byte run — identical layout to a pod
  // vector of char, so the pod read applies.
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&arena_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&kinds_));
  return RebuildIndex();
}

Status TermDictionary::RebuildIndex() {
  if (offsets_.empty() || offsets_.front() != 0 ||
      offsets_.back() != arena_.size() ||
      kinds_.size() + 1 != offsets_.size()) {
    return Status::Corruption("term dictionary arena/offset mismatch");
  }
  size_t n = kinds_.size();
  // The whole column is validated before the first text() read: monotone
  // offsets between 0 and back() == arena size keep every term inside the
  // arena, while one offset past it would otherwise be read through.
  for (size_t i = 0; i < n; ++i) {
    if (offsets_[i] > offsets_[i + 1]) {
      return Status::Corruption("term dictionary offsets not monotone");
    }
    if (kinds_[i] > static_cast<uint8_t>(TermKind::kLiteral)) {
      return Status::Corruption("term dictionary bad term kind");
    }
  }
  table_.Reset(n);
  for (size_t i = 0; i < n; ++i) {
    const TermId id = static_cast<TermId>(i);
    const std::string_view t = text(id);
    const uint64_t hash = TermHash(t, kind(id));
    size_t slot = 0;
    if (Probe(t, kind(id), hash, &slot) != kInvalidTerm) {
      return Status::Corruption("term dictionary duplicate term '" +
                                std::string(t) + "'");
    }
    table_.Set(slot, hash, id);
  }
  return Status::Ok();
}

std::optional<TermId> TermDictionary::LookupAny(std::string_view text) const {
  auto iri = Lookup(text, TermKind::kIri);
  if (iri.has_value()) return iri;
  return Lookup(text, TermKind::kLiteral);
}

}  // namespace rdf
}  // namespace ganswer
