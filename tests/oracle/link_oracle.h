#ifndef GANSWER_TESTS_ORACLE_LINK_ORACLE_H_
#define GANSWER_TESTS_ORACLE_LINK_ORACLE_H_

// Reference oracle for EntityLinker::Link: the unpruned linker, which
// rescores every token posting with std::set-based coverage and Jaccard,
// runs the fuzzy pass and exact-match dominance over the full candidate
// map, and only then ranks. The production linker skips candidates that
// provably cannot reach the output; it must return exactly this list.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "linking/entity_index.h"
#include "linking/entity_linker.h"

namespace ganswer {
namespace testing {

inline std::vector<linking::LinkCandidate> ReferenceLink(
    const linking::EntityIndex& index,
    const linking::EntityLinker::Options& options, std::string_view phrase) {
  double log_max_degree =
      std::log(1.0 + static_cast<double>(index.graph().MaxDegree()));
  if (log_max_degree <= 0) log_max_degree = 1.0;
  auto popularity = [&](rdf::TermId v) {
    double d = std::log(1.0 + static_cast<double>(index.graph().Degree(v)));
    return d / log_max_degree;
  };

  std::string norm = NormalizeLabel(phrase);
  if (norm.empty()) return {};

  // Best string similarity per candidate vertex.
  std::unordered_map<rdf::TermId, double> similarity;

  // 1) Exact normalized matches.
  for (rdf::TermId v : index.ExactMatches(norm)) {
    similarity[v] = std::max(similarity[v], 1.0);
  }

  // Singular fallbacks for plural class mentions.
  std::vector<std::string> tokens = SplitWhitespace(norm);
  if (!tokens.empty() && EndsWith(tokens.back(), "s")) {
    const std::string& last = tokens.back();
    std::vector<std::string> singulars;
    if (EndsWith(last, "ies") && last.size() > 3) {
      singulars.push_back(last.substr(0, last.size() - 3) + "y");
    }
    if (EndsWith(last, "es") && last.size() > 2) {
      singulars.push_back(last.substr(0, last.size() - 2));
    }
    if (last.size() > 1) {
      singulars.push_back(last.substr(0, last.size() - 1));
    }
    for (const std::string& singular_last : singulars) {
      std::vector<std::string> singular_tokens = tokens;
      singular_tokens.back() = singular_last;
      for (rdf::TermId v : index.ExactMatches(Join(singular_tokens, " "))) {
        similarity[v] = std::max(similarity[v], 0.95);
      }
    }
  }

  // 2) Token-level candidates: vertices sharing a token with the phrase.
  std::set<std::string> query_tokens(tokens.begin(), tokens.end());
  for (const std::string& token : tokens) {
    for (rdf::TermId v : index.TokenMatches(token)) {
      auto [it, inserted] = similarity.try_emplace(v, 0.0);
      if (!inserted && it->second >= 1.0) continue;
      double best = it->second;
      for (std::string_view label : index.LabelsOf(v)) {
        std::vector<std::string> label_tokens = SplitWhitespace(label);
        size_t covered = 0;
        size_t shared = 0;
        std::set<std::string> label_set(label_tokens.begin(),
                                        label_tokens.end());
        for (const std::string& t : query_tokens) {
          if (label_set.count(t)) {
            ++covered;
            ++shared;
          }
        }
        size_t uni = query_tokens.size() + label_set.size() - shared;
        double jac = uni == 0 ? 0.0
                              : static_cast<double>(shared) /
                                    static_cast<double>(uni);
        double coverage =
            query_tokens.empty()
                ? 0.0
                : static_cast<double>(covered) /
                      static_cast<double>(query_tokens.size());
        best = std::max(best, 0.4 + 0.35 * coverage + 0.25 * jac);
      }
      it->second = best;
    }
  }

  // 3) Fuzzy fallback, only for small candidate sets.
  if (similarity.size() <= 32) {
    for (auto& [v, sim] : similarity) {
      if (sim >= 0.75) continue;
      for (std::string_view label : index.LabelsOf(v)) {
        double dice = BigramDice(norm, label);
        if (dice >= options.fuzzy_threshold) {
          sim = std::max(sim, 0.3 + 0.4 * dice);
        }
      }
    }
  }

  // Exact-match dominance.
  double best_sim = 0.0;
  for (const auto& [v, sim] : similarity) best_sim = std::max(best_sim, sim);
  if (best_sim >= 0.95) {
    std::erase_if(similarity,
                  [](const auto& entry) { return entry.second < 0.7; });
    for (auto& [v, sim] : similarity) {
      if (sim < 0.95) sim *= 0.6;
    }
  }

  std::vector<linking::LinkCandidate> out;
  out.reserve(similarity.size());
  for (const auto& [v, sim] : similarity) {
    linking::LinkCandidate c;
    c.vertex = v;
    c.is_class = index.graph().IsClass(v);
    c.confidence = options.similarity_weight * sim +
                   (1.0 - options.similarity_weight) * popularity(v);
    if (c.confidence < options.min_confidence) continue;
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const linking::LinkCandidate& a,
               const linking::LinkCandidate& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.vertex < b.vertex;
            });
  if (out.size() > options.max_candidates) {
    out.resize(options.max_candidates);
  }
  return out;
}

/// |exact ∪ singular ∪ token union| of \p phrase, and whether the exact or
/// singular part is non-empty: which branch of the linker a phrase takes.
struct LinkShape {
  size_t candidates = 0;
  bool exact = false;
};

inline LinkShape ShapeOf(const linking::EntityIndex& index,
                         std::string_view phrase) {
  LinkShape shape;
  std::string norm = NormalizeLabel(phrase);
  if (norm.empty()) return shape;
  std::set<rdf::TermId> all;
  for (rdf::TermId v : index.ExactMatches(norm)) all.insert(v);
  std::vector<std::string> tokens = SplitWhitespace(norm);
  if (!tokens.empty() && EndsWith(tokens.back(), "s")) {
    const std::string& last = tokens.back();
    for (std::string singular :
         {last.size() > 3 && EndsWith(last, "ies")
              ? last.substr(0, last.size() - 3) + "y"
              : std::string(),
          last.size() > 2 && EndsWith(last, "es")
              ? last.substr(0, last.size() - 2)
              : std::string(),
          last.substr(0, last.size() - 1)}) {
      if (singular.empty()) continue;
      std::vector<std::string> singular_tokens = tokens;
      singular_tokens.back() = singular;
      for (rdf::TermId v : index.ExactMatches(Join(singular_tokens, " "))) {
        all.insert(v);
      }
    }
  }
  shape.exact = !all.empty();
  for (const std::string& token : tokens) {
    for (rdf::TermId v : index.TokenMatches(token)) all.insert(v);
  }
  shape.candidates = all.size();
  return shape;
}

}  // namespace testing
}  // namespace ganswer

#endif  // GANSWER_TESTS_ORACLE_LINK_ORACLE_H_
