#include "linking/entity_index.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/binary_io.h"
#include "common/string_util.h"

namespace ganswer {
namespace linking {

namespace {

struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>()(s);
  }
};
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

// The postings of a label-map value (the list itself) or a token-map
// value (a BuildMaps::Token).
template <typename Value>
auto& PostingsOf(Value& value) {
  if constexpr (requires { value.postings; }) {
    return value.postings;
  } else {
    return value;
  }
}

void SortUnique(std::vector<rdf::TermId>* list) {
  std::sort(list->begin(), list->end());
  list->erase(std::unique(list->begin(), list->end()), list->end());
}

// Lmin of the rows [first, last): the fewest distinct tokens of a label,
// capped at 255; 0 for no rows.
uint8_t FewestTokens(const EntityIndex::LabelTable& labels, size_t first,
                     size_t last) {
  if (first == last) return 0;
  size_t fewest = 255;
  for (size_t row = first; row < last; ++row) {
    fewest = std::min(fewest, labels.Tokens(row).size());
  }
  return static_cast<uint8_t>(fewest);
}

// The map's entries in ascending key order.
template <typename Map>
std::vector<typename Map::value_type*> SortedEntries(Map& m) {
  std::vector<typename Map::value_type*> entries;
  entries.reserve(m.size());
  for (auto& entry : m) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

// Every offset array starts at 0, is monotone (strictly, when \p strict)
// and ends at the size of what it indexes, so no view reads out of bounds.
Status CheckOffsets(const std::vector<uint32_t>& offsets, size_t end,
                    bool strict, const std::string& what) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != end) {
    return Status::Corruption("entity index " + what +
                              " do not span their array");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (strict ? offsets[i - 1] >= offsets[i] : offsets[i - 1] > offsets[i]) {
      return Status::Corruption("entity index " + what + " not ascending");
    }
  }
  return Status::Ok();
}

}  // namespace

struct EntityIndex::BuildMaps {
  struct Token {
    static constexpr uint32_t kNoId = UINT32_MAX;
    uint32_t id = kNoId;  // provisional: first-seen order
    std::vector<rdf::TermId> postings;
  };
  // Postings are appended without duplicate checks (the scans were
  // quadratic on hub tokens) and sort+uniqued once, when frozen. Insertion
  // happens in ascending vertex order, so the sorted lists equal the old
  // first-occurrence order exactly.
  StringMap<std::vector<rdf::TermId>> labels;
  StringMap<Token> tokens;
};

size_t EntityIndex::PostingsTable::Find(std::string_view key) const {
  const uint32_t i =
      positions.Find(std::hash<std::string_view>()(key),
                     [&](uint32_t candidate) { return Key(candidate) == key; });
  return i == IdTable::kEmpty ? size() : i;
}

void EntityIndex::PostingsTable::Append(std::string_view key,
                                        std::span<const rdf::TermId> list) {
  keys += key;
  key_offsets.push_back(static_cast<uint32_t>(keys.size()));
  postings.insert(postings.end(), list.begin(), list.end());
  postings_offsets.push_back(static_cast<uint32_t>(postings.size()));
}

void EntityIndex::PostingsTable::IndexKeys() {
  positions.Reset(size());
  for (size_t i = 0; i < size(); ++i) {
    // Keys are distinct, so every probe ends at an empty slot.
    const uint64_t hash = std::hash<std::string_view>()(Key(i));
    size_t slot = 0;
    positions.Probe(hash, [](uint32_t) { return false; }, &slot);
    positions.Set(slot, hash, static_cast<uint32_t>(i));
  }
}

void EntityIndex::PostingsTable::Save(BinaryWriter* out) const {
  out->WriteString(keys);
  out->WritePodVector(key_offsets);
  out->WritePodVector(postings_offsets);
  out->WritePodVector(postings);
}

Status EntityIndex::PostingsTable::Load(BinaryReader* in, size_t num_terms,
                                        const std::string& what) {
  GANSWER_RETURN_NOT_OK(in->ReadString(&keys));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&key_offsets));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&postings_offsets));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&postings));
  GANSWER_RETURN_NOT_OK(
      CheckOffsets(key_offsets, keys.size(), false, what + " key offsets"));
  if (postings_offsets.size() != key_offsets.size()) {
    return Status::Corruption("entity index " + what +
                              " postings offsets do not match keys");
  }
  GANSWER_RETURN_NOT_OK(CheckOffsets(postings_offsets, postings.size(), false,
                                     what + " postings offsets"));
  // Keys are distinct, and a token's id is its rank among them.
  for (size_t i = 1; i < size(); ++i) {
    if (Key(i - 1) >= Key(i)) {
      return Status::Corruption("entity index " + what + " keys not sorted");
    }
  }
  for (rdf::TermId v : postings) {
    if (v >= num_terms) {
      return Status::Corruption("entity index " + what +
                                " posting out of range");
    }
  }
  // The linker merges postings lists by vertex id.
  for (size_t i = 0; i < size(); ++i) {
    std::span<const rdf::TermId> list = Postings(i);
    for (size_t j = 1; j < list.size(); ++j) {
      if (list[j - 1] >= list[j]) {
        return Status::Corruption("entity index " + what +
                                  " postings not sorted");
      }
    }
  }
  IndexKeys();
  return Status::Ok();
}

EntityIndex::EntityIndex(const rdf::RdfGraph& graph) : graph_(graph) {
  const size_t num_terms = graph.dict().size();
  BuildMaps maps;
  std::vector<rdf::TermId> vertices;
  std::vector<uint32_t> vertex_rows;
  for (rdf::TermId v = 0; v < num_terms; ++v) {
    const size_t first_row = labels_.rows();
    MaybeIndex(&maps, v);
    if (labels_.rows() == first_row) continue;
    vertices.push_back(v);
    vertex_rows.push_back(static_cast<uint32_t>(first_row));
  }
  vertex_rows.push_back(static_cast<uint32_t>(labels_.rows()));

  for (auto* entry : SortedEntries(maps.labels)) {
    SortUnique(&entry->second);
    by_label_.Append(entry->first, entry->second);
  }
  by_label_.IndexKeys();
  // Provisional ids are first-seen order; the final id is the token's rank
  // among the sorted keys, its position in by_token_.
  std::vector<uint32_t> final_ids(maps.tokens.size());
  uint32_t rank = 0;
  for (auto* entry : SortedEntries(maps.tokens)) {
    SortUnique(&entry->second.postings);
    by_token_.Append(entry->first, entry->second.postings);
    final_ids[entry->second.id] = rank++;
  }
  by_token_.IndexKeys();
  RenumberTokens(final_ids);
  token_id_end_ = rank;
  BuildDenseVertexTable(vertices, vertex_rows);
}

void EntityIndex::MaybeIndex(BuildMaps* maps, rdf::TermId v) {
  const rdf::TermDictionary& dict = graph_.dict();
  const size_t first_row = labels_.rows();
  if (dict.IsLiteral(v)) {
    // Name-like literals (capitalized, connected) are indexed too:
    // "Who was called Scarface?" must link "Scarface" to the nickname
    // literal vertex. Numeric/date literals stay out.
    std::string_view text = dict.text(v);
    bool name_like =
        !text.empty() && std::isupper(static_cast<unsigned char>(text[0]));
    if (name_like && graph_.InDegree(v) > 0) {
      AddLabel(maps, v, text, first_row);
    }
    return;
  }
  if (!graph_.IsEntity(v) && !graph_.IsClass(v)) return;
  // IRI-derived label, then the explicit rdfs:label literals.
  AddLabel(maps, v, dict.text(v), first_row);
  for (rdf::TermId label : graph_.Objects(v, graph_.label_predicate())) {
    AddLabel(maps, v, dict.text(label), first_row);
  }
}

void EntityIndex::AddLabel(BuildMaps* maps, rdf::TermId v,
                           std::string_view raw_label, size_t first_row) {
  std::string norm = NormalizeLabel(raw_label);
  if (norm.empty()) return;
  // Leading-article variant: "The Godfather" is mentioned as "Godfather"
  // once the parser strips the determiner, so index both forms.
  for (const char* article : {"the ", "a ", "an "}) {
    if (norm.rfind(article, 0) == 0 && norm.size() > strlen(article)) {
      AddLabel(maps, v, std::string_view(norm).substr(strlen(article)),
               first_row);
      break;
    }
  }
  // v's rows so far are the rows from first_row on.
  for (size_t row = first_row; row < labels_.rows(); ++row) {
    if (labels_.Text(row) == norm) return;
  }

  maps->labels[norm].push_back(v);
  std::vector<std::string_view> tokens;
  SplitWhitespace(norm, &tokens);
  const size_t span_begin = labels_.token_ids.size();
  for (std::string_view token : tokens) {
    auto it = maps->tokens.find(token);
    if (it == maps->tokens.end()) {
      it = maps->tokens.emplace(std::string(token), BuildMaps::Token{}).first;
      it->second.id = static_cast<uint32_t>(maps->tokens.size() - 1);
    }
    it->second.postings.push_back(v);
    labels_.token_ids.push_back(it->second.id);
  }
  auto span = labels_.token_ids.begin() + static_cast<ptrdiff_t>(span_begin);
  std::sort(span, labels_.token_ids.end());
  labels_.token_ids.erase(std::unique(span, labels_.token_ids.end()),
                          labels_.token_ids.end());
  labels_.text += norm;
  labels_.text_offsets.push_back(static_cast<uint32_t>(labels_.text.size()));
  labels_.token_offsets.push_back(
      static_cast<uint32_t>(labels_.token_ids.size()));
}

void EntityIndex::RenumberTokens(const std::vector<uint32_t>& final_ids) {
  for (uint32_t& id : labels_.token_ids) id = final_ids[id];
  for (size_t row = 0; row < labels_.rows(); ++row) {
    std::sort(labels_.token_ids.begin() + labels_.token_offsets[row],
              labels_.token_ids.begin() + labels_.token_offsets[row + 1]);
  }
}

void EntityIndex::BuildDenseVertexTable(
    const std::vector<rdf::TermId>& vertices,
    const std::vector<uint32_t>& vertex_rows) {
  const size_t num_terms = graph_.dict().size();
  // Slot v starts at the first row of the first listed vertex >= v.
  vertex_rows_.resize(num_terms + 1);
  size_t next = 0;
  for (size_t v = 0; v <= num_terms; ++v) {
    while (next < vertices.size() && vertices[next] < v) ++next;
    vertex_rows_[v] = vertex_rows[next];
  }
  min_label_tokens_.assign(num_terms, 0);
  for (size_t i = 0; i < vertices.size(); ++i) {
    min_label_tokens_[vertices[i]] =
        FewestTokens(labels_, vertex_rows[i], vertex_rows[i + 1]);
  }
  num_indexed_ = vertices.size();
}

std::unique_ptr<EntityIndex> EntityIndex::BuildOverlay(
    const rdf::RdfGraph& graph, std::shared_ptr<const EntityIndex> base,
    const std::vector<rdf::TermId>& touched) {
  auto index = std::unique_ptr<EntityIndex>(new EntityIndex(graph, LoadTag{}));
  std::vector<rdf::TermId> sorted(touched);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Fresh labels and postings for the touched vertices, derived from the
  // overlay graph's merged state by the same rule the full build uses.
  // Every touched vertex gets a slot, so one that lost all its labels is
  // an empty tombstone masking the stale base entry.
  BuildMaps maps;
  size_t own_labeled = 0;
  for (rdf::TermId v : sorted) {
    const size_t first_row = index->labels_.rows();
    index->MaybeIndex(&maps, v);
    const size_t last_row = index->labels_.rows();
    index->vertices_.push_back(v);
    index->vertex_rows_.push_back(static_cast<uint32_t>(first_row));
    index->min_label_tokens_.push_back(
        FewestTokens(index->labels_, first_row, last_row));
    if (last_row > first_row) ++own_labeled;
  }
  index->vertex_rows_.push_back(
      static_cast<uint32_t>(index->labels_.rows()));
  const size_t num_provisional = maps.tokens.size();

  // Affected keys: everything a touched vertex carries now (the local maps)
  // plus everything it carried in the base. Keys outside this union have
  // identical postings in base and rebuilt index, so the base serves them.
  std::unordered_set<rdf::TermId> touched_set(sorted.begin(), sorted.end());
  std::unordered_set<std::string> affected_labels, affected_tokens;
  size_t base_labeled_touched = 0;
  std::vector<std::string_view> tokens;
  for (rdf::TermId v : sorted) {
    LabelList old_labels = base->LabelsOf(v);
    if (!old_labels.empty()) ++base_labeled_touched;
    for (std::string_view label : old_labels) {
      affected_labels.emplace(label);
      SplitWhitespace(label, &tokens);
      for (std::string_view token : tokens) affected_tokens.emplace(token);
    }
  }

  // Every affected key gets a definitive local posting list: base carriers
  // outside the touched set plus the fresh touched carriers, sorted — which
  // is exactly the list a from-scratch rebuild would produce. An empty list
  // stays in the table as a tombstone masking the base.
  auto merge_affected = [&](auto* own, auto base_postings,
                            std::unordered_set<std::string>* affected) {
    for (const auto& [key, value] : *own) affected->insert(key);
    for (const std::string& key : *affected) {
      std::vector<rdf::TermId> merged;
      for (rdf::TermId v : base_postings(key)) {
        if (touched_set.find(v) == touched_set.end()) merged.push_back(v);
      }
      std::vector<rdf::TermId>& postings =
          PostingsOf(own->try_emplace(key).first->second);
      merged.insert(merged.end(), postings.begin(), postings.end());
      SortUnique(&merged);
      postings = std::move(merged);
    }
  };
  merge_affected(
      &maps.labels,
      [&](std::string_view key) { return base->LabelPostings(key); },
      &affected_labels);
  merge_affected(
      &maps.tokens,
      [&](std::string_view key) {
        std::optional<TokenEntry> entry = base->FindToken(key);
        return entry ? entry->postings : std::span<const rdf::TermId>();
      },
      &affected_tokens);

  // Frozen in sorted key order. Token ids: a token the base knows keeps the
  // base's id; the others are numbered from the base's TokenIdEnd() in
  // sorted key order. Keys the merge added come from base labels, so the
  // base knows them, and they have no provisional id to rewrite.
  for (auto* entry : SortedEntries(maps.labels)) {
    index->by_label_.Append(entry->first, entry->second);
  }
  index->by_label_.IndexKeys();
  std::vector<uint32_t> final_ids(num_provisional);
  uint32_t next_id = base->TokenIdEnd();
  for (auto* entry : SortedEntries(maps.tokens)) {
    std::optional<TokenEntry> known = base->FindToken(entry->first);
    const uint32_t id = known ? known->id : next_id++;
    if (entry->second.id != BuildMaps::Token::kNoId) {
      final_ids[entry->second.id] = id;
    }
    index->by_token_.Append(entry->first, entry->second.postings);
    index->token_ids_.push_back(id);
  }
  index->by_token_.IndexKeys();
  index->RenumberTokens(final_ids);
  index->token_id_end_ = next_id;

  index->num_indexed_ =
      base->NumIndexedVertices() - base_labeled_touched + own_labeled;
  index->base_ = std::move(base);
  return index;
}

void EntityIndex::SaveBinary(BinaryWriter* out) const {
  by_label_.Save(out);
  by_token_.Save(out);

  // The label table, with the dense vertex slots written sparsely: the
  // vertices that have labels and the first row of each.
  std::vector<rdf::TermId> vertices;
  std::vector<uint32_t> vertex_rows;
  vertices.reserve(num_indexed_);
  vertex_rows.reserve(num_indexed_ + 1);
  for (size_t v = 0; v + 1 < vertex_rows_.size(); ++v) {
    if (vertex_rows_[v] == vertex_rows_[v + 1]) continue;
    vertices.push_back(static_cast<rdf::TermId>(v));
    vertex_rows.push_back(vertex_rows_[v]);
  }
  vertex_rows.push_back(static_cast<uint32_t>(labels_.rows()));
  out->WritePodVector(vertices);
  out->WritePodVector(vertex_rows);
  out->WriteString(labels_.text);
  out->WritePodVector(labels_.text_offsets);
  out->WritePodVector(labels_.token_offsets);
  out->WritePodVector(labels_.token_ids);
}

StatusOr<std::unique_ptr<EntityIndex>> EntityIndex::LoadBinary(
    const rdf::RdfGraph& graph, BinaryReader* in) {
  auto index =
      std::unique_ptr<EntityIndex>(new EntityIndex(graph, LoadTag{}));
  const size_t num_terms = graph.dict().size();
  GANSWER_RETURN_NOT_OK(index->by_label_.Load(in, num_terms, "label"));
  GANSWER_RETURN_NOT_OK(index->by_token_.Load(in, num_terms, "token"));
  // A token's id is its position in the key order.
  const size_t vocabulary = index->by_token_.size();
  index->token_id_end_ = static_cast<uint32_t>(vocabulary);

  std::vector<rdf::TermId> vertices;
  std::vector<uint32_t> vertex_rows;
  LabelTable& labels = index->labels_;
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&vertices));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&vertex_rows));
  GANSWER_RETURN_NOT_OK(in->ReadString(&labels.text));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&labels.text_offsets));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&labels.token_offsets));
  GANSWER_RETURN_NOT_OK(in->ReadPodVector(&labels.token_ids));

  // One validation pass before any view is handed out.
  GANSWER_RETURN_NOT_OK(CheckOffsets(labels.text_offsets, labels.text.size(),
                                     false, "label text offsets"));
  const size_t rows = labels.rows();
  if (labels.token_offsets.size() != rows + 1) {
    return Status::Corruption("entity index token offsets do not match labels");
  }
  GANSWER_RETURN_NOT_OK(CheckOffsets(labels.token_offsets,
                                     labels.token_ids.size(), true,
                                     "token offsets"));
  for (size_t row = 0; row < rows; ++row) {
    std::span<const uint32_t> span = labels.Tokens(row);
    for (size_t j = 0; j < span.size(); ++j) {
      if (span[j] >= vocabulary) {
        return Status::Corruption("entity index token id out of range");
      }
      // Similarity intersects sorted distinct spans.
      if (j > 0 && span[j - 1] >= span[j]) {
        return Status::Corruption("entity index label tokens not sorted");
      }
    }
  }
  if (vertex_rows.size() != vertices.size() + 1) {
    return Status::Corruption("entity index vertex rows do not match vertices");
  }
  GANSWER_RETURN_NOT_OK(
      CheckOffsets(vertex_rows, rows, true, "vertex label ranges"));
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] >= num_terms) {
      return Status::Corruption("entity index vertex out of range");
    }
    if (i > 0 && vertices[i - 1] >= vertices[i]) {
      return Status::Corruption("entity index vertices not sorted");
    }
  }
  index->BuildDenseVertexTable(vertices, vertex_rows);
  return index;
}

std::span<const rdf::TermId> EntityIndex::LabelPostings(
    std::string_view norm) const {
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    const size_t i = idx->by_label_.Find(norm);
    if (i != idx->by_label_.size()) return idx->by_label_.Postings(i);
  }
  return {};
}

std::span<const rdf::TermId> EntityIndex::ExactMatches(
    std::string_view text) const {
  return LabelPostings(NormalizeLabel(text));
}

std::span<const rdf::TermId> EntityIndex::TokenMatches(
    std::string_view token) const {
  std::optional<TokenEntry> entry = FindToken(ToLower(token));
  return entry ? entry->postings : std::span<const rdf::TermId>();
}

std::optional<EntityIndex::TokenEntry> EntityIndex::FindToken(
    std::string_view token) const {
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    const size_t i = idx->by_token_.Find(token);
    if (i == idx->by_token_.size()) continue;
    const uint32_t id = idx->base_ == nullptr ? static_cast<uint32_t>(i)
                                              : idx->token_ids_[i];
    return TokenEntry{id, idx->by_token_.Postings(i)};
  }
  return std::nullopt;
}

const EntityIndex* EntityIndex::FindVertex(rdf::TermId v, size_t* slot) const {
  for (const EntityIndex* idx = this; idx != nullptr; idx = idx->base_.get()) {
    if (idx->base_ == nullptr) {
      if (size_t{v} + 1 >= idx->vertex_rows_.size()) return nullptr;
      *slot = v;
      return idx;
    }
    auto it = std::lower_bound(idx->vertices_.begin(), idx->vertices_.end(), v);
    if (it != idx->vertices_.end() && *it == v) {
      *slot = static_cast<size_t>(it - idx->vertices_.begin());
      return idx;
    }
  }
  return nullptr;
}

EntityIndex::LabelList EntityIndex::LabelsOf(rdf::TermId v) const {
  size_t slot = 0;
  const EntityIndex* owner = FindVertex(v, &slot);
  if (owner == nullptr) return LabelList();
  return LabelList(&owner->labels_, owner->vertex_rows_[slot],
                   owner->vertex_rows_[slot + 1]);
}

uint32_t EntityIndex::OverlayMinLabelTokens(rdf::TermId v) const {
  size_t slot = 0;
  const EntityIndex* owner = FindVertex(v, &slot);
  return owner != nullptr ? owner->min_label_tokens_[slot] : 0;
}

}  // namespace linking
}  // namespace ganswer
