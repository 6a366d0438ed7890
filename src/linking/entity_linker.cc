#include "linking/entity_linker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>

#include "common/search.h"
#include "common/string_util.h"

namespace ganswer {
namespace linking {

namespace {

// The fuzzy pass runs only on calls with at most this many candidates.
constexpr size_t kFuzzyMaxCandidates = 32;

// Pruning compares similarity bounds against scores computed as
// 0.4 + 0.35·coverage + 0.25·jaccard. The two may round differently, so
// a vertex is pruned only when its bound is below the threshold by more
// than this, which is far above rounding error. A larger slack only
// prunes less; it never changes the result.
constexpr double kBoundSlack = 1e-9;

using Postings = std::span<const rdf::TermId>;

// A vertex of the token union with the number of distinct query tokens
// its labels contain.
struct TokenHit {
  rdf::TermId vertex;
  uint32_t shared;
};

struct Scored {
  rdf::TermId vertex;
  double similarity;
};

// A token candidate left for the bounded pass, with its similarity bound.
struct Deferred {
  rdf::TermId vertex;
  double bound;
};

void SortUnique(std::vector<std::string_view>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// The union of \p lists in ascending vertex order: a k-way merge over the
// sorted postings that counts, per vertex, how many of the lists hit it.
std::vector<TokenHit> CountTokenHits(std::vector<Postings> lists) {
  size_t total = 0;
  for (Postings list : lists) total += list.size();
  std::vector<TokenHit> hits;
  hits.reserve(total);
  while (!lists.empty()) {
    rdf::TermId v = lists.front().front();
    for (Postings list : lists) v = std::min(v, list.front());
    uint32_t shared = 0;
    bool drained = false;
    for (Postings& list : lists) {
      if (list.front() != v) continue;
      list = list.subspan(1);
      drained |= list.empty();
      ++shared;
    }
    if (drained) {
      std::erase_if(lists, [](Postings list) { return list.empty(); });
    }
    hits.push_back({v, shared});
  }
  return hits;
}

// Adds to each hit's count the \p probes lists that contain its vertex.
// Hits ascend, so each list is searched forward from the previous probe.
void ProbeTokenHits(std::span<const Postings> probes,
                    std::vector<TokenHit>* hits) {
  for (Postings list : probes) {
    auto it = list.begin();
    for (TokenHit& hit : *hits) {
      it = GallopingLowerBound(it, list.end(), hit.vertex);
      if (it == list.end()) break;
      if (*it == hit.vertex) ++hit.shared;
    }
  }
}

// The size of the intersection of two sorted, distinct id spans.
size_t CountShared(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  size_t shared = 0;
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() && y != b.end()) {
    if (*x < *y) {
      ++x;
    } else if (*y < *x) {
      ++y;
    } else {
      ++shared;
      ++x;
      ++y;
    }
  }
  return shared;
}

// Upper bound on the similarity of a vertex whose labels contain s of the
// phrase's q distinct tokens and have at least lmin distinct tokens each.
// A label of l distinct tokens sharing t <= min(s, l) of them scores
// 0.4 + 0.35·t/q + 0.25·t/(q + l - t), which grows with t and shrinks
// with l. If l >= s, it is at most the value at t = s and
// l = max(lmin, s); if l < s, then lmin < s and it is at most
// 0.4 + 0.6·l/q < 0.4 + 0.6·s/q, the same value. The expression is the
// score's own, term for term, so a label that attains it scores the same
// bits.
double SimilarityBound(size_t s, size_t q, size_t lmin) {
  const size_t l = std::max(lmin, s);
  const double jac =
      static_cast<double>(s) / static_cast<double>(q + l - s);
  const double coverage = static_cast<double>(s) / static_cast<double>(q);
  return 0.4 + 0.35 * coverage + 0.25 * jac;
}

}  // namespace

EntityLinker::EntityLinker(const EntityIndex* index)
    : EntityLinker(index, Options()) {}

EntityLinker::EntityLinker(const EntityIndex* index, Options options)
    : index_(index), options_(options) {
  log_max_degree_ =
      std::log(1.0 + static_cast<double>(index->graph().MaxDegree()));
  if (log_max_degree_ <= 0) log_max_degree_ = 1.0;
}

double EntityLinker::Popularity(rdf::TermId v) const {
  double d = std::log(1.0 + static_cast<double>(index_->graph().Degree(v)));
  return d / log_max_degree_;
}

double EntityLinker::TokenSimilarity(rdf::TermId v,
                                     std::span<const uint32_t> query_ids,
                                     size_t q) const {
  // Similarity rewards the label *containing* the whole mention: the paper
  // needs "Philadelphia" -> <Philadelphia_76ers> and "actor" ->
  // <An_Actor_Prepares> to stay candidates, while "Salt Lake City" ->
  // class <City> (mention barely covered) should not survive an exact
  // match. Query tokens the index does not know match no label token but
  // still count in q.
  double best = 0.0;
  const EntityIndex::LabelList labels = index_->LabelsOf(v);
  for (size_t i = 0; i < labels.size(); ++i) {
    std::span<const uint32_t> label_tokens = labels.Tokens(i);
    size_t shared = CountShared(query_ids, label_tokens);
    size_t uni = q + label_tokens.size() - shared;
    double jac = static_cast<double>(shared) / static_cast<double>(uni);
    double coverage = static_cast<double>(shared) / static_cast<double>(q);
    best = std::max(best, 0.4 + 0.35 * coverage + 0.25 * jac);
  }
  return best;
}

std::vector<LinkCandidate> EntityLinker::Link(std::string_view phrase) const {
  std::string norm = NormalizeLabel(phrase);
  if (norm.empty() || options_.max_candidates == 0) return {};

  // 1) Seeds: exact normalized matches (similarity 1) and singular
  // fallbacks for plural class mentions (0.95). Try every plausible
  // de-pluralization ("movies" -> "movie", "cities" -> "city", "crosses"
  // -> "cross") and keep whichever the index knows.
  std::vector<Scored> scored;
  for (rdf::TermId v : index_->ExactMatches(norm)) scored.push_back({v, 1.0});
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
      for (rdf::TermId v : index_->ExactMatches(Join(singular_tokens, " "))) {
        scored.push_back({v, 0.95});
      }
    }
  }
  // One seed per vertex, at its best similarity, sorted by vertex; token
  // candidates are appended after them.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.vertex != b.vertex) return a.vertex < b.vertex;
    return a.similarity > b.similarity;
  });
  scored.erase(std::unique(scored.begin(), scored.end(),
                           [](const Scored& a, const Scored& b) {
                             return a.vertex == b.vertex;
                           }),
               scored.end());
  const size_t num_seeds = scored.size();
  auto find_seed = [&](rdf::TermId v) -> Scored* {
    auto seeds_end = scored.begin() + num_seeds;
    auto it = std::lower_bound(
        scored.begin(), seeds_end, v,
        [](const Scored& s, rdf::TermId x) { return s.vertex < x; });
    return it != seeds_end && it->vertex == v ? &*it : nullptr;
  };

  // 2) Token candidates: every vertex sharing s >= 1 of the phrase's q
  // distinct tokens. A label scores 0.4 + 0.35·coverage + 0.25·jaccard,
  // and both terms are at most s/q, so 0.4 + 0.6·s/q bounds the score.
  // Each distinct token is looked up once, for its id (similarity) and its
  // postings (candidates).
  std::vector<std::string_view> query(tokens.begin(), tokens.end());
  SortUnique(&query);
  const size_t q = query.size();
  std::vector<uint32_t> query_ids;
  std::vector<Postings> lists;
  size_t longest = 0;
  for (std::string_view token : query) {
    std::optional<EntityIndex::TokenEntry> entry = index_->FindToken(token);
    if (!entry) continue;
    query_ids.push_back(entry->id);
    if (entry->postings.empty()) continue;
    lists.emplace_back(entry->postings);
    longest = std::max(longest, entry->postings.size());
  }
  std::sort(query_ids.begin(), query_ids.end());

  // The fuzzy gate counts |exact ∪ singular ∪ token union|, pruned or not,
  // so which calls run it never depends on pruning. A fuzzy score can
  // reach exactly 0.7 and so survive dominance; calls that run the fuzzy
  // pass therefore score every candidate.
  std::vector<TokenHit> hits;
  bool fuzzy = false;
  if (num_seeds > 0 && longest > kFuzzyMaxCandidates) {
    // Threshold merge. A seed scores >= 0.95, so dominance is certain, and
    // a list over 32 postings rules the fuzzy pass out. Then only vertices
    // with s >= m = ceil(q/2) can be emitted (2s < q scores below 0.7).
    // Such a vertex is in at least one of the n-m+1 shortest lists, so
    // those generate the candidates and the m-1 longest are only probed.
    const size_t m = (q + 1) / 2;
    if (lists.size() >= m) {
      std::sort(lists.begin(), lists.end(), [](Postings a, Postings b) {
        return a.size() < b.size();
      });
      const auto first_probe = lists.end() - static_cast<ptrdiff_t>(m - 1);
      hits = CountTokenHits({lists.begin(), first_probe});
      ProbeTokenHits({first_probe, lists.end()}, &hits);
      std::erase_if(hits, [m](const TokenHit& h) { return h.shared < m; });
    }
  } else {
    hits = CountTokenHits(std::move(lists));
    size_t num_candidates = num_seeds + hits.size();
    for (size_t i = 0; i < num_seeds; ++i) {
      auto it = std::lower_bound(
          hits.begin(), hits.end(), scored[i].vertex,
          [](const TokenHit& h, rdf::TermId x) { return h.vertex < x; });
      if (it != hits.end() && it->vertex == scored[i].vertex) {
        --num_candidates;
      }
    }
    fuzzy = num_candidates <= kFuzzyMaxCandidates;
  }

  // Vertices that could reach 0.95 (0.4 + 0.6·s/q >= 0.95, i.e.
  // 12s >= 11q: a permuted label, or s = q-1 once q >= 12) decide
  // exact-match dominance, so they are scored up front. The rest are
  // deferred to the bounded pass below, with the similarity bound of
  // their s and fewest label tokens.
  std::vector<Deferred> deferred;
  deferred.reserve(hits.size());
  for (const TokenHit& hit : hits) {
    const bool must_score = fuzzy || 12 * size_t{hit.shared} >= 11 * q;
    if (Scored* seed = find_seed(hit.vertex)) {
      // An exact match is final; a singular one is only raised by its own
      // token score, which is below 0.95 unless must_score holds.
      if (seed->similarity < 1.0 && must_score) {
        seed->similarity =
            std::max(seed->similarity,
                     TokenSimilarity(hit.vertex, query_ids, q));
      }
    } else if (must_score) {
      scored.push_back(
          {hit.vertex, TokenSimilarity(hit.vertex, query_ids, q)});
    } else {
      deferred.push_back(
          {hit.vertex, SimilarityBound(hit.shared, q,
                                       index_->MinLabelTokens(hit.vertex))});
    }
  }

  // 3) Fuzzy fallback over token candidates of similar-looking tokens is
  // covered by the bigram check against every candidate's labels. Fuzzy
  // similarity is capped at 0.7 so it can never rival an exact match; it
  // exists to rescue near-misses, so it is skipped when token matching
  // already produced a crowd of candidates or a solid score.
  if (fuzzy) {
    for (Scored& c : scored) {
      if (c.similarity >= 0.75) continue;
      for (std::string_view label : index_->LabelsOf(c.vertex)) {
        double dice = BigramDice(norm, label);
        if (dice >= options_.fuzzy_threshold) {
          c.similarity = std::max(c.similarity, 0.3 + 0.4 * dice);
        }
      }
    }
  }

  // Exact-match dominance: when the mention names some vertex exactly, the
  // remaining ambiguity is among exact matches (the three Philadelphias);
  // weak partial-token candidates (the City class for "Salt Lake City")
  // are spurious, not ambiguous. Every vertex that could reach 0.95 is
  // scored by now, so this is settled before any pruning below.
  const bool dominated =
      std::any_of(scored.begin(), scored.end(),
                  [](const Scored& c) { return c.similarity >= 0.95; });

  std::vector<LinkCandidate> out;
  // The max_candidates best confidences emitted so far (a min-heap).
  std::priority_queue<double, std::vector<double>, std::greater<double>> best;
  const double w = options_.similarity_weight;
  auto emit = [&](rdf::TermId v, double sim) {
    if (dominated) {
      if (sim < 0.7) return;
      // Surviving partial matches stay candidates (the data-driven
      // fallback may still need them) but at a clear confidence discount,
      // so their interpretations never tie an exact match's answers.
      if (sim < 0.95) sim *= 0.6;
    }
    LinkCandidate c;
    c.vertex = v;
    c.is_class = index_->graph().IsClass(v);
    c.confidence = w * sim + (1.0 - w) * Popularity(v);
    if (c.confidence < options_.min_confidence) return;
    out.push_back(c);
    if (best.size() < options_.max_candidates) {
      best.push(c.confidence);
    } else if (c.confidence > best.top()) {
      best.pop();
      best.push(c.confidence);
    }
  };
  for (const Scored& c : scored) emit(c.vertex, c.similarity);

  // 4) MaxScore over the deferred vertices, by descending bound. Under
  // dominance those whose bound is below 0.7 would be erased, so they are
  // dropped unscored: for q = 2 and s = 1 only a vertex with a
  // one-distinct-token label survives. A vertex's confidence is at most
  // w·bound + (1-w)·Popularity(v) (sims only shrink under dominance); it is
  // scored only if that reaches the max_candidates-th best confidence so
  // far and min_confidence. Popularity is looked up only when the
  // similarity term alone does not clear the threshold. A negative
  // similarity weight turns the bound around, so it never prunes.
  if (dominated) {
    std::erase_if(deferred, [](const Deferred& d) {
      return d.bound + kBoundSlack < 0.7;
    });
  }
  std::sort(deferred.begin(), deferred.end(),
            [](const Deferred& a, const Deferred& b) {
              return a.bound > b.bound;
            });
  for (const Deferred& d : deferred) {
    const double threshold =
        best.size() < options_.max_candidates
            ? options_.min_confidence
            : std::max(options_.min_confidence, best.top());
    const double sim_bound = w * d.bound;
    if (w >= 0 && sim_bound + kBoundSlack < threshold &&
        sim_bound + (1.0 - w) * Popularity(d.vertex) + kBoundSlack <
            threshold) {
      continue;
    }
    emit(d.vertex, TokenSimilarity(d.vertex, query_ids, q));
  }

  std::sort(out.begin(), out.end(),
            [](const LinkCandidate& a, const LinkCandidate& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.vertex < b.vertex;
            });
  if (out.size() > options_.max_candidates) {
    out.resize(options_.max_candidates);
  }
  return out;
}

}  // namespace linking
}  // namespace ganswer
