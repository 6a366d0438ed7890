#include "paraphrase/paraphrase_dictionary.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/binary_io.h"
#include "common/string_util.h"

namespace ganswer {
namespace paraphrase {

PhraseId ParaphraseDictionary::AddPhrase(std::string_view phrase_text,
                                         std::vector<ParaphraseEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const ParaphraseEntry& a, const ParaphraseEntry& b) {
              return a.confidence > b.confidence;
            });

  std::string key = ToLower(phrase_text);
  auto existing = by_text_.find(key);
  if (existing != by_text_.end()) {
    phrases_[existing->second].entries = std::move(entries);
    return existing->second;
  }

  PhraseRecord rec;
  rec.text = key;
  for (const std::string& w : SplitWhitespace(key)) {
    rec.lemmas.push_back(lexicon_->Lemmatize(w));
  }
  rec.entries = std::move(entries);

  PhraseId id = static_cast<PhraseId>(phrases_.size());
  // Index each distinct lemma once.
  std::set<std::string> distinct(rec.lemmas.begin(), rec.lemmas.end());
  for (const std::string& lemma : distinct) {
    inverted_[lemma].push_back(id);
  }
  by_text_.emplace(rec.text, id);
  phrases_.push_back(std::move(rec));
  return id;
}

const std::vector<PhraseId>& ParaphraseDictionary::PhrasesContaining(
    std::string_view lemma) const {
  auto it = inverted_.find(std::string(lemma));
  return it == inverted_.end() ? empty_ : it->second;
}

std::optional<PhraseId> ParaphraseDictionary::FindByLemmas(
    const std::vector<std::string>& lemmas) const {
  if (lemmas.empty()) return std::nullopt;
  for (PhraseId id : PhrasesContaining(lemmas[0])) {
    if (phrases_[id].lemmas == lemmas) return id;
  }
  return std::nullopt;
}

void ParaphraseDictionary::NormalizeConfidences() {
  for (PhraseRecord& rec : phrases_) {
    if (rec.entries.empty()) continue;
    double best = rec.entries.front().confidence;
    if (best <= 0) continue;
    for (ParaphraseEntry& e : rec.entries) e.confidence /= best;
  }
}

void ParaphraseDictionary::SaveBinary(BinaryWriter* out) const {
  out->WriteVarint(phrases_.size());
  for (const PhraseRecord& rec : phrases_) {
    out->WriteString(rec.text);
    out->WriteVarint(rec.lemmas.size());
    for (const std::string& lemma : rec.lemmas) out->WriteString(lemma);
    out->WriteVarint(rec.entries.size());
    for (const ParaphraseEntry& e : rec.entries) {
      out->WriteDouble(e.confidence);
      out->WriteVarint(e.path.steps.size());
      for (const PathStep& s : e.path.steps) {
        out->WriteU32(s.predicate);
        out->WriteU8(s.forward ? 1 : 0);
      }
    }
  }
  // Lemma inverted index, keys sorted for deterministic bytes. by_text_ is
  // not written: it is exactly phrase text -> phrase id.
  std::vector<const std::string*> lemmas;
  lemmas.reserve(inverted_.size());
  for (const auto& [lemma, ids] : inverted_) lemmas.push_back(&lemma);
  std::sort(lemmas.begin(), lemmas.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  out->WriteVarint(lemmas.size());
  for (const std::string* lemma : lemmas) {
    out->WriteString(*lemma);
    out->WritePodVector(inverted_.at(*lemma));
  }
}

Status ParaphraseDictionary::LoadBinary(BinaryReader* in, size_t num_terms) {
  phrases_.clear();
  by_text_.clear();
  inverted_.clear();

  uint64_t num_phrases = 0;
  GANSWER_RETURN_NOT_OK(in->ReadCount(&num_phrases));
  phrases_.reserve(num_phrases);
  by_text_.reserve(num_phrases);
  for (uint64_t i = 0; i < num_phrases; ++i) {
    PhraseRecord rec;
    GANSWER_RETURN_NOT_OK(in->ReadString(&rec.text));
    uint64_t num_lemmas = 0;
    GANSWER_RETURN_NOT_OK(in->ReadCount(&num_lemmas));
    rec.lemmas.reserve(num_lemmas);
    for (uint64_t j = 0; j < num_lemmas; ++j) {
      std::string lemma;
      GANSWER_RETURN_NOT_OK(in->ReadString(&lemma));
      rec.lemmas.push_back(std::move(lemma));
    }
    uint64_t num_entries = 0;
    GANSWER_RETURN_NOT_OK(in->ReadCount(&num_entries));
    rec.entries.reserve(num_entries);
    for (uint64_t j = 0; j < num_entries; ++j) {
      ParaphraseEntry entry;
      GANSWER_RETURN_NOT_OK(in->ReadDouble(&entry.confidence));
      uint64_t num_steps = 0;
      GANSWER_RETURN_NOT_OK(in->ReadCount(&num_steps));
      entry.path.steps.reserve(num_steps);
      for (uint64_t s = 0; s < num_steps; ++s) {
        PathStep step;
        GANSWER_RETURN_NOT_OK(in->ReadU32(&step.predicate));
        uint8_t forward = 0;
        GANSWER_RETURN_NOT_OK(in->ReadU8(&forward));
        step.forward = forward != 0;
        if (step.predicate >= num_terms) {
          return Status::Corruption("paraphrase path predicate out of range");
        }
        entry.path.steps.push_back(step);
      }
      rec.entries.push_back(std::move(entry));
    }
    if (!by_text_.emplace(rec.text, static_cast<PhraseId>(i)).second) {
      return Status::Corruption("duplicate paraphrase phrase '" + rec.text +
                                "'");
    }
    phrases_.push_back(std::move(rec));
  }

  uint64_t num_inverted = 0;
  GANSWER_RETURN_NOT_OK(in->ReadCount(&num_inverted));
  inverted_.reserve(num_inverted);
  for (uint64_t i = 0; i < num_inverted; ++i) {
    std::string lemma;
    GANSWER_RETURN_NOT_OK(in->ReadString(&lemma));
    std::vector<PhraseId> ids;
    GANSWER_RETURN_NOT_OK(in->ReadPodVector(&ids));
    for (PhraseId id : ids) {
      if (id >= phrases_.size()) {
        return Status::Corruption("inverted index phrase id out of range");
      }
    }
    if (!inverted_.emplace(std::move(lemma), std::move(ids)).second) {
      return Status::Corruption("duplicate inverted index lemma");
    }
  }
  return Status::Ok();
}

Status ParaphraseDictionary::Save(std::ostream* out,
                                  const rdf::TermDictionary& dict) const {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  for (const PhraseRecord& rec : phrases_) {
    for (const ParaphraseEntry& e : rec.entries) {
      *out << rec.text << '\t';
      for (size_t i = 0; i < e.path.steps.size(); ++i) {
        if (i > 0) *out << ' ';
        const PathStep& s = e.path.steps[i];
        *out << (s.forward ? "+" : "-") << dict.text(s.predicate);
      }
      *out << '\t' << e.confidence << '\n';
    }
    if (rec.entries.empty()) {
      *out << rec.text << "\t\t0\n";  // keep phrase-only records
    }
  }
  return Status::Ok();
}

Status ParaphraseDictionary::Load(std::istream* in, rdf::RdfGraph* graph) {
  if (in == nullptr || graph == nullptr) {
    return Status::InvalidArgument("null stream or graph");
  }
  std::unordered_map<std::string, std::vector<ParaphraseEntry>> grouped;
  std::vector<std::string> order;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cols = Split(line, '\t', /*keep_empty=*/true);
    if (cols.size() != 3) {
      return Status::Corruption("paraphrase dictionary line " +
                                std::to_string(line_no) +
                                ": expected 3 tab-separated columns");
    }
    auto [group_it, first_seen] = grouped.try_emplace(std::move(cols[0]));
    if (first_seen) order.push_back(group_it->first);
    auto& entries = group_it->second;
    if (cols[1].empty()) continue;  // phrase with no mined paths
    ParaphraseEntry entry;
    for (const std::string& step_text : SplitWhitespace(cols[1])) {
      if (step_text.size() < 2 ||
          (step_text[0] != '+' && step_text[0] != '-')) {
        return Status::Corruption("paraphrase dictionary line " +
                                  std::to_string(line_no) +
                                  ": malformed path step '" + step_text + "'");
      }
      PathStep step;
      step.forward = step_text[0] == '+';
      step.predicate = graph->dict().Intern(step_text.substr(1));
      entry.path.steps.push_back(step);
    }
    // std::from_chars: no exceptions, no locale, and a trailing-garbage
    // check std::stod would silently accept.
    std::string_view conf = Trim(cols[2]);
    auto [end, ec] = std::from_chars(conf.data(), conf.data() + conf.size(),
                                     entry.confidence);
    if (ec != std::errc() || end != conf.data() + conf.size()) {
      return Status::Corruption("paraphrase dictionary line " +
                                std::to_string(line_no) +
                                ": bad confidence '" + cols[2] + "'");
    }
    entries.push_back(std::move(entry));
  }
  for (const std::string& phrase : order) {
    AddPhrase(phrase, std::move(grouped[phrase]));
  }
  return Status::Ok();
}

}  // namespace paraphrase
}  // namespace ganswer
