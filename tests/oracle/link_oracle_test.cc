// Differential test: EntityLinker::Link (count-once scoring, exact-dominance
// pruning, MaxScore early termination) vs the unpruned reference linker in
// oracle/link_oracle.h. Over every indexed label of a KB and phrases
// derived from them (shuffled token subsets, plurals, labels plus hub
// tokens, question n-grams), on a flat index and on a live overlay index,
// under the gAnswer, the DEANNA and a strict set of linking options, the
// candidate lists must be identical: same vertices, class flags and confidences, compared
// with ==.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/kb_generator.h"
#include "datagen/workload.h"
#include "deanna/deanna_qa.h"
#include "linking/entity_index.h"
#include "linking/entity_linker.h"
#include "nlp/lexicon.h"
#include "oracle/large_kb.h"
#include "oracle/link_oracle.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "prop/prop_support.h"
#include "store/live/delta_graph.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

using linking::EntityIndex;
using linking::EntityLinker;
using linking::LinkCandidate;

std::vector<std::string> AllLabels(const EntityIndex& index) {
  std::set<std::string> labels;
  for (rdf::TermId v = 0; v < index.graph().dict().size(); ++v) {
    for (std::string_view label : index.LabelsOf(v)) labels.emplace(label);
  }
  return {labels.begin(), labels.end()};
}

/// The \p n tokens with the longest postings lists.
std::vector<std::string> HubTokens(const EntityIndex& index,
                                   const std::vector<std::string>& labels,
                                   size_t n) {
  std::set<std::string> tokens;
  for (const std::string& label : labels) {
    for (const std::string& t : SplitWhitespace(label)) tokens.insert(t);
  }
  std::vector<std::pair<size_t, std::string>> by_postings;
  for (const std::string& t : tokens) {
    by_postings.emplace_back(index.TokenMatches(t).size(), t);
  }
  std::sort(by_postings.rbegin(), by_postings.rend());
  std::vector<std::string> hubs;
  for (size_t i = 0; i < n && i < by_postings.size(); ++i) {
    hubs.push_back(by_postings[i].second);
  }
  return hubs;
}

/// Every \p label_stride-th label verbatim, plus seeded variants of a
/// quarter of them, plus the 1- to 4-grams of the KB's workload questions.
std::vector<std::string> Phrases(const EntityIndex& index,
                                 const datagen::KbGenerator::GeneratedKb& kb,
                                 size_t label_stride, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> all_labels = AllLabels(index);
  std::vector<std::string> hubs = HubTokens(index, all_labels, 12);
  std::vector<std::string> labels;
  for (size_t i = rng.Next(label_stride); i < all_labels.size();
       i += label_stride) {
    labels.push_back(all_labels[i]);
  }
  std::vector<std::string> phrases = labels;
  for (const std::string& label : labels) {
    if (rng.Next(4) != 0) continue;
    std::vector<std::string> tokens = SplitWhitespace(label);
    // A shuffled non-empty token subset (the whole label permuted when
    // the subset draws every token).
    std::vector<std::string> subset = tokens;
    rng.Shuffle(&subset);
    subset.resize(1 + rng.Next(subset.size()));
    phrases.push_back(Join(subset, " "));
    // Plural forms of the last token.
    std::string last = tokens.back();
    phrases.push_back(label + "s");
    if (EndsWith(last, "y")) {
      phrases.push_back(label.substr(0, label.size() - 1) + "ies");
    } else {
      phrases.push_back(label + "es");
    }
    // The label plus one or two hub tokens ("... 2 inc").
    std::string with_hubs = label + " " + rng.Pick(hubs);
    phrases.push_back(with_hubs);
    phrases.push_back(with_hubs + " " + rng.Pick(hubs));
  }
  // Bare hub-token combinations: q = 1, 2 and 3 with no exact match.
  for (size_t i = 0; i < hubs.size(); ++i) {
    phrases.push_back(hubs[i]);
    phrases.push_back(hubs[i] + " " + hubs[(i + 1) % hubs.size()]);
    phrases.push_back(hubs[i] + " " + hubs[(i + 1) % hubs.size()] + " " +
                      hubs[(i + 2) % hubs.size()]);
  }
  datagen::WorkloadGenerator::Options wopt;
  wopt.seed = seed;
  std::set<std::string> grams;
  for (const datagen::GoldQuestion& q :
       datagen::WorkloadGenerator::Generate(kb, wopt)) {
    std::vector<std::string> tokens = SplitWhitespace(q.text);
    for (size_t n = 1; n <= 4; ++n) {
      for (size_t i = 0; i + n <= tokens.size(); ++i) {
        grams.insert(Join(std::vector<std::string>(tokens.begin() + i,
                                                   tokens.begin() + i + n),
                          " "));
      }
    }
  }
  phrases.insert(phrases.end(), grams.begin(), grams.end());
  return phrases;
}

/// How many phrases took each pruned branch of the linker.
struct Coverage {
  size_t pruned_with_exact = 0;
  size_t pruned_without_exact = 0;
};

void ExpectSameAsReference(const EntityIndex& index,
                           const std::vector<std::string>& phrases,
                           Coverage* coverage) {
  // Neither default option set ever produces a confidence near its
  // min_confidence, so a third, strict set makes that bound (and a short
  // top-k) do the pruning.
  EntityLinker::Options strict;
  strict.max_candidates = 2;
  strict.min_confidence = 0.5;
  strict.similarity_weight = 0.6;
  const EntityLinker::Options option_sets[] = {
      EntityLinker::Options(),
      deanna::DeannaQa::Options::DefaultLinkingOptions(),
      strict,
  };
  for (const EntityLinker::Options& options : option_sets) {
    EntityLinker linker(&index, options);
    for (const std::string& phrase : phrases) {
      std::vector<LinkCandidate> got = linker.Link(phrase);
      std::vector<LinkCandidate> want = ReferenceLink(index, options, phrase);
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].vertex == want[i].vertex &&
               got[i].is_class == want[i].is_class &&
               got[i].confidence == want[i].confidence;
      }
      if (!same) {
        ADD_FAILURE() << "linker differs from the reference on \"" << phrase
                      << "\" (max_candidates=" << options.max_candidates
                      << "): got " << got.size() << " candidates, want "
                      << want.size();
        return;
      }
    }
  }
  for (const std::string& phrase : phrases) {
    LinkShape shape = ShapeOf(index, phrase);
    if (shape.candidates <= 32) continue;
    ++(shape.exact ? coverage->pruned_with_exact
                   : coverage->pruned_without_exact);
  }
}

/// A live overlay index over \p graph: a snapshot of it under a delta that
/// adds entities labelled with hub tokens, gives base entities labels with
/// tokens the base has never seen (so the overlay interns ids past the
/// base vocabulary), and drops labels and types of existing ones, so hub
/// postings are merged between base and overlay. \p novel_phrases are
/// phrases over the new tokens, to be linked besides the base's.
struct LiveIndex {
  nlp::Lexicon lexicon;
  store::live::DeltaGraph::View view;
  std::vector<std::string> novel_phrases;
};

std::unique_ptr<LiveIndex> BuildLiveIndex(const rdf::RdfGraph& graph,
                                          const std::vector<std::string>& hubs,
                                          uint64_t seed) {
  auto live = std::make_unique<LiveIndex>();
  paraphrase::ParaphraseDictionary dict(&live->lexicon);
  std::string bytes;
  if (!store::WriteSnapshot(graph, dict, &bytes).ok()) return nullptr;
  auto snapshot = store::ReadSnapshot(bytes, &live->lexicon);
  if (!snapshot.ok()) return nullptr;
  store::live::DeltaGraph delta(
      std::make_shared<store::Snapshot>(std::move(snapshot).value()));

  Rng rng(seed);
  std::vector<rdf::UpdateOp> ops;
  for (size_t i = 0; i < 40; ++i) {
    std::string entity = "Live_" + rng.Pick(hubs) + "_" +
                         rng.Pick(hubs) + "_" +
                         std::to_string(i);
    ops.push_back({entity, "rdf:type", "Film", rdf::TermKind::kIri, false});
    ops.push_back({entity, "rdfs:label",
                   rng.Pick(hubs) + " " + std::to_string(i),
                   rdf::TermKind::kLiteral, false});
  }
  const rdf::TermDictionary& terms = graph.dict();
  const EntityIndex& base_index = *delta.base()->entity_index;
  for (rdf::TermId v = 0, added = 0; v < terms.size() && added < 20; ++v) {
    if (!graph.IsEntity(v) || rng.Next(20) != 0) continue;
    const std::string novel = "novel" + std::to_string(added++) + "x";
    const std::string hub = rng.Pick(hubs);
    ops.push_back({std::string(terms.text(v)), "rdfs:label",
                   novel + " " + hub, rdf::TermKind::kLiteral, false});
    for (std::string_view label : base_index.LabelsOf(v)) {
      live->novel_phrases.push_back(std::string(label) + " " + novel);
    }
    live->novel_phrases.push_back(novel);
    live->novel_phrases.push_back(novel + " " + hub);
    live->novel_phrases.push_back(hub + " " + novel + " " + rng.Pick(hubs));
  }
  const size_t first_delete = ops.size();
  for (rdf::TermId v = 0;
       v < terms.size() && ops.size() - first_delete < 40; ++v) {
    if (!graph.IsEntity(v) || rng.Next(50) != 0) continue;
    for (const rdf::Edge& e : graph.OutEdges(v)) {
      bool literal = terms.IsLiteral(e.neighbor);
      ops.push_back({std::string(terms.text(v)),
                     std::string(terms.text(e.predicate)),
                     std::string(terms.text(e.neighbor)),
                     literal ? rdf::TermKind::kLiteral : rdf::TermKind::kIri,
                     true});
    }
  }
  delta.Apply(ops);
  live->view = delta.BuildView();
  return live;
}

/// Runs the oracle on \p kb's flat index, or on a live overlay of it,
/// over the phrases of every \p label_stride-th label, and checks that
/// both pruned branches were exercised, not just the small calls.
void RunOracle(const datagen::KbGenerator::GeneratedKb& kb, bool live,
               size_t label_stride, uint64_t base_seed) {
  ForEachSeed(base_seed, 1, [&](uint64_t seed) {
    EntityIndex flat(kb.graph);
    std::vector<std::string> phrases = Phrases(flat, kb, label_stride, seed);
    Coverage coverage;
    if (live) {
      auto overlay =
          BuildLiveIndex(kb.graph, HubTokens(flat, AllLabels(flat), 12), seed);
      ASSERT_NE(overlay, nullptr);
      ASSERT_FALSE(overlay->novel_phrases.empty());
      std::optional<EntityIndex::TokenEntry> novel =
          overlay->view.entities->FindToken("novel0x");
      ASSERT_TRUE(novel.has_value());
      EXPECT_GE(novel->id, flat.TokenIdEnd());
      phrases.insert(phrases.end(), overlay->novel_phrases.begin(),
                     overlay->novel_phrases.end());
      ExpectSameAsReference(*overlay->view.entities, phrases, &coverage);
    } else {
      ExpectSameAsReference(flat, phrases, &coverage);
    }
    EXPECT_GT(coverage.pruned_with_exact, 500u);
    EXPECT_GT(coverage.pruned_without_exact, 500u);
  });
}

TEST(LinkOracleTest, DemoKbFlatIndex) { RunOracle(World().kb, false, 1, 1); }

TEST(LinkOracleTest, DemoKbLiveIndex) { RunOracle(World().kb, true, 1, 1); }

TEST(LinkOracleTest, LargeKbFlatIndex) { RunOracle(LargeKb(), false, 12, 101); }

TEST(LinkOracleTest, LargeKbLiveIndex) { RunOracle(LargeKb(), true, 12, 101); }

}  // namespace
}  // namespace testing
}  // namespace ganswer
