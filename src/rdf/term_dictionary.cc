#include "rdf/term_dictionary.h"

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {

namespace {

// Index key: literals get a prefix byte that cannot begin an IRI text used
// by this codebase, separating the two term spaces in one map.
std::string IndexKey(std::string_view text, TermKind kind) {
  std::string key;
  key.reserve(text.size() + 1);
  key += kind == TermKind::kLiteral ? '\x01' : '\x02';
  key += text;
  return key;
}

}  // namespace

void TermDictionary::InitExtension(const TermDictionary* base) {
  base_ = base;
  base_size_ = base->size();
}

TermId TermDictionary::Intern(std::string_view text, TermKind kind) {
  std::string key = IndexKey(text, kind);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  if (base_ != nullptr) {
    auto base_it = base_->index_.find(key);
    if (base_it != base_->index_.end()) return base_it->second;
  }
  TermId id = static_cast<TermId>(size());
  // Append from the key (which embeds a copy of the text) rather than from
  // the caller's view: the view may alias this very arena, which is about to
  // reallocate.
  arena_.insert(arena_.end(), key.begin() + 1, key.end());
  offsets_.push_back(arena_.size());
  kinds_.push_back(static_cast<uint8_t>(kind));
  index_.emplace(std::move(key), id);
  return id;
}

std::optional<TermId> TermDictionary::Lookup(std::string_view text,
                                             TermKind kind) const {
  std::string key = IndexKey(text, kind);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  if (base_ != nullptr) {
    auto base_it = base_->index_.find(key);
    if (base_it != base_->index_.end()) return base_it->second;
  }
  return std::nullopt;
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
  index_.clear();
  index_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string_view t = text(static_cast<TermId>(i));
    auto [it, inserted] = index_.emplace(
        IndexKey(t, static_cast<TermKind>(kinds_[i])), static_cast<TermId>(i));
    if (!inserted) {
      return Status::Corruption("term dictionary duplicate term '" +
                                std::string(t) + "'");
    }
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
