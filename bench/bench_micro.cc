// Google-benchmark micro-benchmarks for the performance-critical kernels:
// simple-path mining (offline), entity linking, dependency parsing,
// relation extraction, candidate-space construction, SPARQL BGP
// evaluation, and top-k subgraph matching.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/binary_io.h"
#include "common/search.h"
#include "common/string_util.h"
#include "deanna/deanna_qa.h"
#include "linking/entity_linker.h"
#include "match/candidates.h"
#include "nlp/dependency_parser.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "paraphrase/path_finder.h"
#include "qa/ganswer.h"
#include "rdf/graph_stats.h"
#include "rdf/signature_index.h"
#include "rdf/sparql_engine.h"
#include "rdf/sparql_parser.h"
#include "store/snapshot.h"

namespace {

using namespace ganswer;

const bench::BenchWorld& World() {
  static bench::BenchWorld* world = [] {
    auto* w = new bench::BenchWorld(bench::BuildWorld());
    return w;
  }();
  return *world;
}

void BM_Tokenize(benchmark::State& state) {
  const std::string q =
      "Who was married to an actor that played in Philadelphia ?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(nlp::Tokenizer::Tokenize(q));
  }
}
BENCHMARK(BM_Tokenize);

void BM_DependencyParse(benchmark::State& state) {
  nlp::DependencyParser parser(World().lexicon);
  const std::string q =
      "Who was married to an actor that played in Philadelphia ?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.Parse(q));
  }
}
BENCHMARK(BM_DependencyParse);

void BM_EntityLink(benchmark::State& state) {
  linking::EntityIndex index(World().kb.graph);
  linking::EntityLinker linker(&index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link("Philadelphia"));
  }
}
BENCHMARK(BM_EntityLink);

/// The KbGenerator KB at qabench's 16x scale, where numbered titles make
/// "2" and "3" hub tokens with thousands of postings, plus phrases that
/// hit the biggest hub: a film title without its article (an exact match,
/// so dominance prunes); the title minus its first word as well (no exact
/// match, so MaxScore prunes); a title of two distinct tokens, one the
/// hub ("mystic mystic 2": q = 2, where only the fewest-label-tokens bound
/// prunes); and a numbered person ("alma banik 2": q = 3, where the
/// threshold merge only probes the hub's postings).
struct HubLinkWorld {
  datagen::KbGenerator::GeneratedKb kb;
  std::unique_ptr<linking::EntityIndex> index;
  std::string exact_phrase;
  std::string no_exact_phrase;
  std::string two_token_phrase;
  std::string person_phrase;
};

/// The normalized tokens of \p name when it is an exact label of some
/// vertex, its last token is \p hub, and it has \p distinct distinct
/// tokens; empty otherwise.
std::vector<std::string> HubLabelTokens(const linking::EntityIndex& index,
                                        const std::string& name,
                                        const std::string& hub,
                                        size_t distinct) {
  std::vector<std::string> tokens = SplitWhitespace(NormalizeLabel(name));
  if (!tokens.empty() && tokens.front() == "the") tokens.erase(tokens.begin());
  if (tokens.empty() || tokens.back() != hub) return {};
  std::vector<std::string> sorted = tokens;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() != distinct || index.ExactMatches(Join(tokens, " ")).empty()) {
    return {};
  }
  return tokens;
}

const HubLinkWorld& HubWorld() {
  static HubLinkWorld* world = [] {
    auto* w = new HubLinkWorld();
    datagen::KbGenerator::Options options;
    options.num_families *= 16;
    options.num_films *= 16;
    options.num_cities *= 16;
    options.num_companies *= 16;
    options.num_books *= 16;
    options.num_teams *= 16;
    options.num_bands *= 16;
    auto kb = datagen::KbGenerator::Generate(options);
    if (!kb.ok()) std::abort();
    w->kb = std::move(kb).value();
    w->index = std::make_unique<linking::EntityIndex>(w->kb.graph);
    // The most-posted last word of a title: a sequel number.
    std::string hub;
    for (const std::string& film : w->kb.films) {
      std::vector<std::string> tokens = SplitWhitespace(NormalizeLabel(film));
      if (!tokens.empty() && w->index->TokenMatches(tokens.back()).size() >
                                 w->index->TokenMatches(hub).size()) {
        hub = tokens.back();
      }
    }
    for (const std::string& film : w->kb.films) {
      std::vector<std::string> tokens = SplitWhitespace(NormalizeLabel(film));
      if (!tokens.empty() && tokens.front() == "the") {
        tokens.erase(tokens.begin());
      }
      if (tokens.size() < 3 || tokens.back() != hub) continue;
      std::string shortened = Join(
          std::vector<std::string>(tokens.begin() + 1, tokens.end()), " ");
      if (w->index->ExactMatches(Join(tokens, " ")).empty() ||
          !w->index->ExactMatches(shortened).empty()) {
        continue;
      }
      w->exact_phrase = Join(tokens, " ");
      w->no_exact_phrase = shortened;
      break;
    }
    for (const std::string& film : w->kb.films) {
      std::vector<std::string> tokens =
          HubLabelTokens(*w->index, film, hub, 2);
      if (tokens.empty()) continue;
      w->two_token_phrase = Join(tokens, " ");
      break;
    }
    for (const std::string& person : w->kb.people) {
      std::vector<std::string> tokens =
          HubLabelTokens(*w->index, person, hub, 3);
      if (tokens.size() != 3) continue;
      w->person_phrase = Join(tokens, " ");
      break;
    }
    if (w->exact_phrase.empty() || w->two_token_phrase.empty() ||
        w->person_phrase.empty()) {
      std::abort();
    }
    return w;
  }();
  return *world;
}

void BM_EntityLinkHubExact(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  linking::EntityLinker linker(w.index.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(w.exact_phrase));
  }
  state.SetLabel(w.exact_phrase);
}
BENCHMARK(BM_EntityLinkHubExact);

void BM_EntityLinkHubNoExact(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  linking::EntityLinker linker(w.index.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(w.no_exact_phrase));
  }
  state.SetLabel(w.no_exact_phrase);
}
BENCHMARK(BM_EntityLinkHubNoExact);

void BM_EntityLinkHubTwoToken(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  linking::EntityLinker linker(w.index.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(w.two_token_phrase));
  }
  state.SetLabel(w.two_token_phrase);
}
BENCHMARK(BM_EntityLinkHubTwoToken);

void BM_EntityLinkPersonNumbered(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  linking::EntityLinker linker(w.index.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(w.person_phrase));
  }
  state.SetLabel(w.person_phrase);
}
BENCHMARK(BM_EntityLinkPersonNumbered);

// Loading the 16x entity index section, as the snapshot reader does: the
// load budget of the flat label table and its token spans.
void BM_EntityIndexLoad(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  BinaryWriter out;
  out.set_aligned(true);
  w.index->SaveBinary(&out);
  for (auto _ : state) {
    BinaryReader in(out.buffer());
    in.set_aligned(true);
    auto index = linking::EntityIndex::LoadBinary(w.kb.graph, &in);
    if (!index.ok()) std::abort();
    benchmark::DoNotOptimize(index);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_EntityIndexLoad)->Unit(benchmark::kMillisecond);

// The whole 16x snapshot (no paraphrases) loaded from memory, as
// ReadSnapshotFile does after its read: section CRCs, then every section
// loader, the term dictionary's table and the entity index included.
void BM_SnapshotLoad(benchmark::State& state) {
  const HubLinkWorld& w = HubWorld();
  static const nlp::Lexicon lexicon;
  paraphrase::ParaphraseDictionary no_phrases(&lexicon);
  std::string bytes;
  if (!store::WriteSnapshot(w.kb.graph, no_phrases, &bytes).ok()) std::abort();
  for (auto _ : state) {
    auto snapshot = store::ReadSnapshot(bytes, &lexicon);
    if (!snapshot.ok()) std::abort();
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

// CRC-32 over 6 MB, about the size of the 16x snapshot, whose sections
// the reader checksums on every load.
void BM_Crc32(benchmark::State& state) {
  std::mt19937 rng(42);
  std::string bytes(6 << 20, '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

/// A class with \p n instances, each also typed by one of five
/// subclasses, where 90% of the instances have a birthPlace edge and 25% a
/// deathPlace edge; the query asks for the class under both predicates.
struct ClassDomainWorld {
  rdf::RdfGraph graph;
  std::unique_ptr<rdf::SignatureIndex> signatures;
  rdf::GraphStats stats;
  match::QueryGraph query;
};

std::unique_ptr<ClassDomainWorld> BuildClassDomainWorld(size_t n) {
  auto w = std::make_unique<ClassDomainWorld>();
  rdf::RdfGraph& g = w->graph;
  for (int c = 0; c < 5; ++c) {
    g.AddTriple("Sub" + std::to_string(c), rdf::kSubClassOfPredicate,
                "Person");
  }
  for (size_t i = 0; i < n; ++i) {
    std::string person = "person" + std::to_string(i);
    g.AddTriple(person, rdf::kTypePredicate, "Person");
    g.AddTriple(person, rdf::kTypePredicate, "Sub" + std::to_string(i % 5));
    g.AddTriple(person, "hasGender", i % 2 == 0 ? "male" : "female");
    if (i % 10 != 0) {
      g.AddTriple(person, "birthPlace", "place" + std::to_string(i % 200));
    }
    if (i % 4 == 0) {
      g.AddTriple(person, "deathPlace",
                  "place" + std::to_string(i * 7 % 200));
    }
  }
  if (!g.Finalize().ok()) std::abort();
  w->signatures = std::make_unique<rdf::SignatureIndex>(g);
  w->stats = rdf::GraphStats::Compute(g);

  match::QueryVertex person, birth_place, death_place;
  person.candidates = {{*g.Find("Person"), /*is_class=*/true, 1.0}};
  birth_place.wildcard = true;
  death_place.wildcard = true;
  w->query.vertices = {person, birth_place, death_place};
  for (const char* pred : {"birthPlace", "deathPlace"}) {
    match::QueryEdge edge;
    edge.from = 0;
    edge.to = static_cast<int>(w->query.edges.size()) + 1;
    paraphrase::ParaphraseEntry entry;
    entry.path.steps = {{*g.Find(pred), true}};
    entry.confidence = 1.0;
    edge.candidates = {entry};
    w->query.edges.push_back(edge);
  }
  return w;
}

// The candidate space's worst case: expanding one big class candidate and
// pruning its instances by a common and a rare incident predicate, with
// signatures and statistics as the serving path passes them.
void BM_CandidateSpaceBuildClass(benchmark::State& state) {
  auto w = BuildClassDomainWorld(static_cast<size_t>(state.range(0)));
  size_t domain = 0;
  for (auto _ : state) {
    match::CandidateSpace space = match::CandidateSpace::Build(
        w->graph, w->query, /*neighborhood_pruning=*/true,
        w->signatures.get(), &w->stats);
    domain = space.domain(0).items.size();
    benchmark::DoNotOptimize(space);
  }
  state.counters["domain"] = static_cast<double>(domain);
}
BENCHMARK(BM_CandidateSpaceBuildClass)->Arg(1000)->Arg(16000);

void BM_PathMining(benchmark::State& state) {
  const auto& g = World().kb.graph;
  paraphrase::PathFinder::Options opt;
  opt.max_length = static_cast<size_t>(state.range(0));
  paraphrase::PathFinder finder(g, opt);
  auto ted = *g.Find("Ted_Kennedy");
  auto jr = *g.Find("John_F._Kennedy_Jr.");
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.FindPaths(ted, jr));
  }
}
BENCHMARK(BM_PathMining)->Arg(2)->Arg(3)->Arg(4);

// --- Sorted-run probes: the index-probe kernels behind SparqlEngine. ---
//
// The engine probes sorted adjacency and permutation runs with random keys
// (enumerate()) and with monotonically advancing nearby keys (the merge
// join gallop). The three variants are measured on both access patterns so
// the std::lower_bound baseline, the branchless probe and the galloping
// search can be compared like-for-like.

std::vector<uint32_t> SortedKeys(size_t n) {
  std::mt19937 rng(42);
  std::vector<uint32_t> keys(n);
  uint32_t next = 0;
  for (auto& k : keys) k = next += 1 + rng() % 8;
  return keys;
}

std::vector<uint32_t> RandomProbes(const std::vector<uint32_t>& keys,
                                   size_t n) {
  std::mt19937 rng(7);
  std::vector<uint32_t> probes(n);
  for (auto& p : probes) p = keys[rng() % keys.size()];
  return probes;
}

template <typename Search>
void ProbeRandom(benchmark::State& state, Search search) {
  auto keys = SortedKeys(static_cast<size_t>(state.range(0)));
  auto probes = RandomProbes(keys, 1024);
  size_t i = 0;
  for (auto _ : state) {
    auto it = search(keys.begin(), keys.end(), probes[i]);
    benchmark::DoNotOptimize(it);
    i = (i + 1) % probes.size();
  }
}

// Merge-join shape: each probe lands a short stride past the previous hit,
// restarting from the hit position — where galloping's exponential bracket
// pays off against a full-width bisection.
template <typename Search>
void ProbeAdvancing(benchmark::State& state, Search search) {
  auto keys = SortedKeys(static_cast<size_t>(state.range(0)));
  std::mt19937 rng(7);
  auto it = keys.begin();
  for (auto _ : state) {
    if (keys.end() - it < 64) it = keys.begin();
    uint32_t target = *(it + 1 + rng() % 32);
    it = search(it, keys.end(), target);
    benchmark::DoNotOptimize(it);
  }
}

void BM_LowerBoundStd(benchmark::State& state) {
  ProbeRandom(state, [](auto first, auto last, uint32_t v) {
    return std::lower_bound(first, last, v);
  });
}
BENCHMARK(BM_LowerBoundStd)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

void BM_LowerBoundBranchless(benchmark::State& state) {
  ProbeRandom(state, [](auto first, auto last, uint32_t v) {
    return BranchlessLowerBound(first, last, v);
  });
}
BENCHMARK(BM_LowerBoundBranchless)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

void BM_MergeAdvanceStd(benchmark::State& state) {
  ProbeAdvancing(state, [](auto first, auto last, uint32_t v) {
    return std::lower_bound(first, last, v);
  });
}
BENCHMARK(BM_MergeAdvanceStd)->Arg(1 << 14)->Arg(1 << 20);

void BM_MergeAdvanceGalloping(benchmark::State& state) {
  ProbeAdvancing(state, [](auto first, auto last, uint32_t v) {
    return GallopingLowerBound(first, last, v);
  });
}
BENCHMARK(BM_MergeAdvanceGalloping)->Arg(1 << 14)->Arg(1 << 20);

void BM_SparqlBgp(benchmark::State& state) {
  const auto& g = World().kb.graph;
  rdf::SparqlEngine engine(g);
  auto query = rdf::SparqlParser::Parse(
      "SELECT ?w WHERE { ?w <spouse> ?a . ?a rdf:type <Actor> . "
      "?f <starring> ?a }");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(*query));
  }
}
BENCHMARK(BM_SparqlBgp);

void BM_QuestionUnderstanding(benchmark::State& state) {
  const auto& world = World();
  qa::GAnswer system(&world.kb.graph, &world.lexicon, world.verified.get());
  const std::string q =
      "Who was married to an actor that played in Philadelphia ?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system.understander().Understand(q));
  }
}
BENCHMARK(BM_QuestionUnderstanding);

void BM_EndToEndAsk(benchmark::State& state) {
  const auto& world = World();
  qa::GAnswer system(&world.kb.graph, &world.lexicon, world.verified.get());
  const std::string q =
      "Who was married to an actor that played in Philadelphia ?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Ask(q));
  }
}
BENCHMARK(BM_EndToEndAsk);

void BM_DeannaAsk(benchmark::State& state) {
  const auto& world = World();
  deanna::DeannaQa system(&world.kb.graph, &world.lexicon,
                          world.verified.get());
  const std::string q =
      "Who was married to an actor that played in Philadelphia ?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Ask(q));
  }
}
BENCHMARK(BM_DeannaAsk);

}  // namespace

BENCHMARK_MAIN();
