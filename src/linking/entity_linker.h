#ifndef GANSWER_LINKING_ENTITY_LINKER_H_
#define GANSWER_LINKING_ENTITY_LINKER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "linking/entity_index.h"

namespace ganswer {
namespace linking {

/// One candidate mapping of an argument phrase to a graph vertex, with the
/// paper's confidence probability delta(arg, u).
struct LinkCandidate {
  rdf::TermId vertex = rdf::kInvalidTerm;
  bool is_class = false;
  double confidence = 0.0;
};

/// \brief Entity linking (Sec. 4.2.1): maps an argument phrase to a ranked
/// list of candidate entities and classes with confidence probabilities.
///
/// Stands in for the DBpedia Lookup web service the paper calls. Candidate
/// generation: exact normalized-label matches first, then vertices sharing
/// label tokens, then fuzzy (bigram-Dice) matches over token-candidates.
/// Confidence blends string similarity with a degree-based popularity prior
/// — deliberately NOT enough to disambiguate "Philadelphia"; that is the
/// query evaluation stage's job.
///
/// Token candidates are scored once each and only if they can reach the
/// output. Query tokens and labels are compared as interned token ids
/// (EntityIndex). A vertex hitting s of the phrase's q distinct tokens,
/// whose labels have at least Lmin distinct tokens each, has similarity at
/// most 0.4 + 0.35·s/q + 0.25·s/(q + max(Lmin, s) - s). When the phrase
/// has more than 32 candidates (so no fuzzy pass), vertices that could
/// reach 0.95 are scored first, which settles exact-match dominance; under
/// dominance vertices whose bound is below 0.7 would be erased and are
/// skipped (with an exact or singular seed and a token list over 32
/// postings, those with 2s < q are never even generated), and the rest are
/// visited MaxScore-style, skipping those whose confidence bound falls
/// below the max_candidates-th best confidence or min_confidence. The
/// result is identical to scoring every candidate.
class EntityLinker {
 public:
  struct Options {
    size_t max_candidates = 8;
    /// Candidates below this confidence are dropped.
    double min_confidence = 0.25;
    /// Weight of string similarity vs popularity prior in the confidence.
    double similarity_weight = 0.75;
    /// Minimum bigram-Dice similarity for fuzzy token candidates.
    double fuzzy_threshold = 0.55;
  };

  /// \p index must outlive the linker.
  explicit EntityLinker(const EntityIndex* index);
  EntityLinker(const EntityIndex* index, Options options);

  /// Ranked candidates (non-ascending confidence) for \p phrase. Classes
  /// are flagged; both a class and entities may be returned for the same
  /// phrase ("actor" -> class <Actor> and entity <An_Actor_Prepares>).
  std::vector<LinkCandidate> Link(std::string_view phrase) const;

  const Options& options() const { return options_; }

 private:
  double Popularity(rdf::TermId v) const;
  /// Best token similarity of \p v's labels to a phrase of \p q distinct
  /// tokens, of which the index knows \p query_ids (sorted token ids).
  double TokenSimilarity(rdf::TermId v, std::span<const uint32_t> query_ids,
                         size_t q) const;

  const EntityIndex* index_;
  Options options_;
  double log_max_degree_;
};

}  // namespace linking
}  // namespace ganswer

#endif  // GANSWER_LINKING_ENTITY_LINKER_H_
