#include "linking/entity_index.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <unordered_set>

#include "common/binary_io.h"
#include "common/string_util.h"

namespace ganswer {
namespace linking {

EntityIndex::EntityIndex(const rdf::RdfGraph& graph) : graph_(graph) {
  for (rdf::TermId v = 0; v < graph.dict().size(); ++v) {
    MaybeIndex(v);
  }
  FinalizePostings();
}

void EntityIndex::MaybeIndex(rdf::TermId v) {
  const rdf::TermDictionary& dict = graph_.dict();
  if (dict.IsLiteral(v)) {
    // Name-like literals (capitalized, connected) are indexed too:
    // "Who was called Scarface?" must link "Scarface" to the nickname
    // literal vertex. Numeric/date literals stay out.
    std::string_view text = dict.text(v);
    bool name_like =
        !text.empty() && std::isupper(static_cast<unsigned char>(text[0]));
    if (name_like && graph_.InDegree(v) > 0) AddLabel(v, text);
    return;
  }
  if (!graph_.IsEntity(v) && !graph_.IsClass(v)) return;
  IndexVertex(v);
}

std::unique_ptr<EntityIndex> EntityIndex::BuildOverlay(
    const rdf::RdfGraph& graph, std::shared_ptr<const EntityIndex> base,
    const std::vector<rdf::TermId>& touched) {
  auto index = std::unique_ptr<EntityIndex>(new EntityIndex(graph, LoadTag{}));
  std::vector<rdf::TermId> sorted(touched);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Fresh postings for the touched vertices, derived from the overlay
  // graph's merged state by the same rule the full build uses.
  for (rdf::TermId v : sorted) index->MaybeIndex(v);
  index->FinalizePostings();

  // Affected keys: everything a touched vertex carries now (the local maps)
  // plus everything it carried in the base. Keys outside this union have
  // identical postings in base and rebuilt index, so the base serves them.
  std::unordered_set<rdf::TermId> touched_set(sorted.begin(), sorted.end());
  std::unordered_set<std::string> affected_labels, affected_tokens;
  size_t base_labeled_touched = 0;
  for (rdf::TermId v : sorted) {
    const std::vector<std::string>& old_labels = base->LabelsOf(v);
    if (!old_labels.empty()) ++base_labeled_touched;
    for (const std::string& label : old_labels) {
      affected_labels.insert(label);
      for (const std::string& token : SplitWhitespace(label)) {
        affected_tokens.insert(token);
      }
    }
  }

  // Every affected key gets a definitive local posting list: base carriers
  // outside the touched set plus the fresh touched carriers, sorted — which
  // is exactly the list a from-scratch rebuild would produce. An empty list
  // stays in the map as a tombstone masking the base.
  auto merge_affected =
      [&](std::unordered_map<std::string, std::vector<rdf::TermId>>* own,
          const std::unordered_map<std::string, std::vector<rdf::TermId>>&
              base_map,
          std::unordered_set<std::string>* affected) {
        for (const auto& [key, list] : *own) affected->insert(key);
        for (const std::string& key : *affected) {
          std::vector<rdf::TermId> merged;
          auto base_it = base_map.find(key);
          if (base_it != base_map.end()) {
            for (rdf::TermId v : base_it->second) {
              if (touched_set.find(v) == touched_set.end()) {
                merged.push_back(v);
              }
            }
          }
          auto own_it = own->find(key);
          if (own_it != own->end()) {
            merged.insert(merged.end(), own_it->second.begin(),
                          own_it->second.end());
          }
          std::sort(merged.begin(), merged.end());
          merged.erase(std::unique(merged.begin(), merged.end()),
                       merged.end());
          (*own)[key] = std::move(merged);
        }
      };
  merge_affected(&index->by_label_, base->by_label_, &affected_labels);
  merge_affected(&index->by_token_, base->by_token_, &affected_tokens);

  size_t own_labeled = 0;
  for (const auto& [v, labels] : index->labels_of_) {
    if (!labels.empty()) ++own_labeled;
  }
  // A touched vertex that lost all its labels needs an empty tombstone so
  // LabelsOf falls through to "no labels", not to the stale base entry.
  for (rdf::TermId v : sorted) index->labels_of_.try_emplace(v);
  index->num_indexed_ =
      base->NumIndexedVertices() - base_labeled_touched + own_labeled;
  index->base_ = std::move(base);
  return index;
}

void EntityIndex::IndexVertex(rdf::TermId v) {
  const rdf::TermDictionary& dict = graph_.dict();
  // IRI-derived label.
  AddLabel(v, dict.text(v));
  // Explicit rdfs:label literals.
  for (rdf::TermId label : graph_.Objects(v, graph_.label_predicate())) {
    AddLabel(v, dict.text(label));
  }
}

void EntityIndex::AddLabel(rdf::TermId v, std::string_view raw_label) {
  std::string norm = NormalizeLabel(raw_label);
  if (norm.empty()) return;
  // Leading-article variant: "The Godfather" is mentioned as "Godfather"
  // once the parser strips the determiner, so index both forms.
  for (const char* article : {"the ", "a ", "an "}) {
    if (norm.rfind(article, 0) == 0 && norm.size() > strlen(article)) {
      AddLabel(v, norm.substr(strlen(article)));
      break;
    }
  }
  auto& labels = labels_of_[v];
  if (std::find(labels.begin(), labels.end(), norm) != labels.end()) return;

  by_label_[norm].push_back(v);
  for (const std::string& token : SplitWhitespace(norm)) {
    by_token_[token].push_back(v);
  }
  labels.push_back(std::move(norm));
}

void EntityIndex::FinalizePostings() {
  for (auto& [label, list] : by_label_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  for (auto& [token, list] : by_token_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
}

void EntityIndex::SaveBinary(BinaryWriter* out) const {
  // Both postings maps are written in sorted key order.
  auto write_postings =
      [&](const std::unordered_map<std::string, std::vector<rdf::TermId>>& m) {
        std::vector<const std::string*> keys;
        keys.reserve(m.size());
        for (const auto& [key, list] : m) keys.push_back(&key);
        std::sort(keys.begin(), keys.end(),
                  [](const std::string* a, const std::string* b) {
                    return *a < *b;
                  });
        out->WriteVarint(keys.size());
        for (const std::string* key : keys) {
          out->WriteString(*key);
          out->WritePodVector(m.at(*key));
        }
      };
  write_postings(by_label_);
  write_postings(by_token_);

  std::vector<rdf::TermId> vertices;
  vertices.reserve(labels_of_.size());
  for (const auto& [v, labels] : labels_of_) vertices.push_back(v);
  std::sort(vertices.begin(), vertices.end());
  out->WriteVarint(vertices.size());
  for (rdf::TermId v : vertices) {
    const std::vector<std::string>& labels = labels_of_.at(v);
    out->WriteU32(v);
    out->WriteVarint(labels.size());
    for (const std::string& label : labels) out->WriteString(label);
  }
}

StatusOr<std::unique_ptr<EntityIndex>> EntityIndex::LoadBinary(
    const rdf::RdfGraph& graph, BinaryReader* in) {
  auto index =
      std::unique_ptr<EntityIndex>(new EntityIndex(graph, LoadTag{}));
  const size_t num_terms = graph.dict().size();
  auto read_postings =
      [&](std::unordered_map<std::string, std::vector<rdf::TermId>>* m) {
        uint64_t count = 0;
        GANSWER_RETURN_NOT_OK(in->ReadCount(&count));
        m->reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          std::string key;
          std::vector<rdf::TermId> list;
          GANSWER_RETURN_NOT_OK(in->ReadString(&key));
          GANSWER_RETURN_NOT_OK(in->ReadPodVector(&list));
          for (size_t j = 0; j < list.size(); ++j) {
            if (list[j] >= num_terms) {
              return Status::Corruption("entity index posting out of range");
            }
            // The linker merges postings lists by vertex id.
            if (j > 0 && list[j - 1] >= list[j]) {
              return Status::Corruption("entity index postings not sorted");
            }
          }
          if (!m->emplace(std::move(key), std::move(list)).second) {
            return Status::Corruption("duplicate entity index key");
          }
        }
        return Status::Ok();
      };
  GANSWER_RETURN_NOT_OK(read_postings(&index->by_label_));
  GANSWER_RETURN_NOT_OK(read_postings(&index->by_token_));

  uint64_t num_vertices = 0;
  GANSWER_RETURN_NOT_OK(in->ReadCount(&num_vertices));
  index->labels_of_.reserve(num_vertices);
  for (uint64_t i = 0; i < num_vertices; ++i) {
    rdf::TermId v = rdf::kInvalidTerm;
    GANSWER_RETURN_NOT_OK(in->ReadU32(&v));
    if (v >= num_terms) {
      return Status::Corruption("entity index vertex out of range");
    }
    uint64_t num_labels = 0;
    GANSWER_RETURN_NOT_OK(in->ReadCount(&num_labels));
    std::vector<std::string>& labels = index->labels_of_[v];
    labels.reserve(num_labels);
    for (uint64_t j = 0; j < num_labels; ++j) {
      std::string label;
      GANSWER_RETURN_NOT_OK(in->ReadString(&label));
      labels.push_back(std::move(label));
    }
  }
  return index;
}

const std::vector<rdf::TermId>& EntityIndex::ExactMatches(
    std::string_view text) const {
  std::string norm = NormalizeLabel(text);
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    auto it = idx->by_label_.find(norm);
    if (it != idx->by_label_.end()) return it->second;
  }
  return empty_;
}

const std::vector<rdf::TermId>& EntityIndex::TokenMatches(
    std::string_view token) const {
  std::string lower = ToLower(token);
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    auto it = idx->by_token_.find(lower);
    if (it != idx->by_token_.end()) return it->second;
  }
  return empty_;
}

const std::vector<std::string>& EntityIndex::LabelsOf(rdf::TermId v) const {
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    auto it = idx->labels_of_.find(v);
    if (it != idx->labels_of_.end()) return it->second;
  }
  return no_labels_;
}

}  // namespace linking
}  // namespace ganswer
