#include "rdf/signature_index.h"

#include "common/binary_io.h"

namespace ganswer {
namespace rdf {

SignatureIndex::SignatureIndex(const RdfGraph& graph) {
  size_t n = graph.dict().size();
  out_.assign(n, 0);
  in_.assign(n, 0);
  for (TermId v = 0; v < n; ++v) {
    for (const Edge& e : graph.OutEdges(v)) {
      out_[v] |= PredicateBit(e.predicate);
      in_[e.neighbor] |= PredicateBit(e.predicate);
    }
  }
}

SignatureIndex SignatureIndex::BuildOverlay(
    const RdfGraph& graph, std::shared_ptr<const SignatureIndex> base,
    const std::vector<TermId>& touched) {
  SignatureIndex index;
  index.num_vertices_ = graph.dict().size();
  index.overrides_.reserve(touched.size());
  for (TermId v : touched) {
    Signature out_sig = 0;
    for (const Edge& e : graph.OutEdges(v)) {
      out_sig |= PredicateBit(e.predicate);
    }
    Signature in_sig = 0;
    for (const Edge& e : graph.InEdges(v)) {
      in_sig |= PredicateBit(e.predicate);
    }
    index.overrides_[v] = {out_sig, in_sig};
  }
  index.base_ = std::move(base);
  return index;
}

SignatureIndex::Signature SignatureIndex::PredicateBit(TermId p) {
  // Fibonacci hash of the predicate id onto one of 64 bits.
  uint64_t h = static_cast<uint64_t>(p) * 0x9e3779b97f4a7c15ULL;
  return Signature{1} << (h >> 58);
}

void SignatureIndex::SaveBinary(BinaryWriter* out) const {
  out->WritePodVector(out_);
  out->WritePodVector(in_);
}

StatusOr<SignatureIndex> SignatureIndex::LoadBinary(BinaryReader* in) {
  SignatureIndex index;
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&index.out_));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&index.in_));
  if (index.out_.size() != index.in_.size()) {
    return Status::Corruption("signature arrays differ in length");
  }
  return index;
}

SignatureIndex::Signature SignatureIndex::OutSignature(TermId v) const {
  if (base_ != nullptr) [[unlikely]] {
    auto it = overrides_.find(v);
    if (it != overrides_.end()) return it->second.first;
    return base_->OutSignature(v);
  }
  return v < out_.size() ? out_[v] : 0;
}

SignatureIndex::Signature SignatureIndex::InSignature(TermId v) const {
  if (base_ != nullptr) [[unlikely]] {
    auto it = overrides_.find(v);
    if (it != overrides_.end()) return it->second.second;
    return base_->InSignature(v);
  }
  return v < in_.size() ? in_[v] : 0;
}

}  // namespace rdf
}  // namespace ganswer
