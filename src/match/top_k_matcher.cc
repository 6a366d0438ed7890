#include "match/top_k_matcher.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

namespace ganswer {
namespace match {

namespace {

// Best-possible total log-confidence of all edges (best candidate each).
double BestEdgeLogSum(const QueryGraph& query) {
  double sum = 0.0;
  for (const QueryEdge& e : query.edges) {
    double best = e.wildcard ? e.wildcard_confidence
                             : (e.candidates.empty()
                                    ? 0.0
                                    : e.candidates.front().confidence);
    if (best <= 0) return -1e18;  // edge can never contribute
    sum += std::log(best);
  }
  return sum;
}

}  // namespace

TopKMatcher::TopKMatcher(const rdf::RdfGraph* graph)
    : TopKMatcher(graph, Options()) {}

TopKMatcher::TopKMatcher(const rdf::RdfGraph* graph, Options options)
    : graph_(graph), options_(options), stats_(options.stats) {
  if (stats_ == nullptr) {
    owned_stats_ =
        std::make_unique<rdf::GraphStats>(rdf::GraphStats::Compute(*graph));
    stats_ = owned_stats_.get();
  }
}

StatusOr<std::vector<Match>> TopKMatcher::FindTopK(const QueryGraph& query,
                                                   RunStats* stats) const {
  RunStats local;
  if (query.vertices.empty()) {
    return Status::InvalidArgument("empty query graph");
  }
  bool any_concrete = false;
  for (const QueryVertex& v : query.vertices) {
    if (!v.wildcard) any_concrete = true;
  }
  if (!any_concrete) {
    return Status::InvalidArgument(
        "all query vertices are wildcards; nothing anchors the search");
  }

  CandidateSpace space =
      CandidateSpace::Build(*graph_, query, options_.neighborhood_pruning,
                            options_.signatures, stats_);

  std::vector<Match> all;

  if (query.edges.empty()) {
    // Single-vertex query: the domain of the (unique) concrete vertex is
    // the answer set.
    for (size_t i = 0; i < query.vertices.size(); ++i) {
      if (query.vertices[i].wildcard) continue;
      for (const CandidateSpace::Item& item : space.domain(i).items) {
        if (item.confidence <= 0) continue;
        Match m;
        m.assignment.assign(query.vertices.size(), rdf::kInvalidTerm);
        m.assignment[i] = item.vertex;
        m.score = std::log(item.confidence);
        all.push_back(std::move(m));
      }
    }
  } else {
    // Cursor per non-wildcard vertex list.
    std::vector<int> cursor_vertex;  // query vertex index per cursor
    for (size_t i = 0; i < query.vertices.size(); ++i) {
      if (!query.vertices[i].wildcard && !space.domain(i).items.empty()) {
        cursor_vertex.push_back(static_cast<int>(i));
      }
    }
    if (cursor_vertex.empty()) {
      // Every concrete vertex pruned to nothing: no matches.
      if (stats != nullptr) *stats = local;
      return std::vector<Match>{};
    }
    // Anchor the smallest domains first: their anchored searches are the
    // cheapest probes and they exhaust soonest, which is what ends the TA
    // loop when early stop is off. Every cursor still runs every round, and
    // duplicates carry identical (assignment, score) pairs, so the ranked
    // output is unchanged by this ordering.
    std::stable_sort(cursor_vertex.begin(), cursor_vertex.end(),
                     [&](int a, int b) {
                       return space.domain(a).items.size() <
                              space.domain(b).items.size();
                     });
    std::vector<size_t> cursor(cursor_vertex.size(), 0);

    std::set<std::vector<rdf::TermId>> seen;
    double edge_best_sum = BestEdgeLogSum(query);
    double theta = -std::numeric_limits<double>::infinity();

    // One pool for the whole TA loop when more than one anchored search can
    // run per round; every worker task gets its own SubgraphMatcher (the
    // graph and candidate space are shared read-only), so the only
    // cross-thread state is the per-task output buffer it owns.
    int threads = ThreadPool::ResolveThreads(options_.exec.threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1 && cursor_vertex.size() > 1) {
      pool = std::make_unique<ThreadPool>(threads);
    }
    size_t total_expansions = 0;

    auto update_theta = [&]() {
      if (all.size() < options_.k) return;
      std::vector<double> scores;
      scores.reserve(all.size());
      for (const Match& m : all) scores.push_back(m.score);
      std::nth_element(scores.begin(), scores.begin() + (options_.k - 1),
                       scores.end(), std::greater<double>());
      theta = scores[options_.k - 1];
    };

    bool progress = true;
    while (progress) {
      ++local.rounds;
      progress = false;

      // Collect this round's anchored searches (one per in-range cursor),
      // run them — fanned across the pool when present — into per-task
      // buffers, then merge in cursor order. The merge sequence is exactly
      // the serial execution's, so dedup against `seen` and the
      // max_total_matches cut behave identically for any thread count.
      struct AnchorTask {
        int qv;
        rdf::TermId anchor;
      };
      std::vector<AnchorTask> tasks;
      for (size_t ci = 0; ci < cursor_vertex.size(); ++ci) {
        int qv = cursor_vertex[ci];
        const auto& items = space.domain(qv).items;
        if (cursor[ci] >= items.size()) continue;
        progress = true;
        tasks.push_back({qv, items[cursor[ci]].vertex});
      }

      std::vector<std::vector<Match>> found(tasks.size());
      std::vector<size_t> expansions(tasks.size(), 0);
      auto run_task = [&](size_t t) {
        SubgraphMatcher matcher(graph_, &query, &space, *stats_);
        matcher.FindMatchesFrom(tasks[t].qv, tasks[t].anchor,
                                options_.max_matches_per_anchor, &found[t]);
        expansions[t] = matcher.stats().expansions;
      };
      if (pool != nullptr && tasks.size() > 1) {
        pool->ParallelFor(0, tasks.size(), run_task);
      } else {
        for (size_t t = 0; t < tasks.size(); ++t) run_task(t);
      }

      local.anchored_searches += tasks.size();
      for (size_t t = 0; t < tasks.size(); ++t) {
        total_expansions += expansions[t];
        for (Match& m : found[t]) {
          if (seen.size() >= options_.max_total_matches) break;
          if (seen.insert(m.assignment).second) {
            all.push_back(std::move(m));
          }
        }
      }
      for (size_t ci = 0; ci < cursor.size(); ++ci) ++cursor[ci];
      update_theta();

      if (options_.ta_early_stop && edge_best_sum > -1e17) {
        // Equation 3 with the advanced cursors.
        double upbound = edge_best_sum;
        bool exhausted = false;
        for (size_t ci = 0; ci < cursor_vertex.size(); ++ci) {
          const auto& items = space.domain(cursor_vertex[ci]).items;
          if (cursor[ci] >= items.size()) {
            exhausted = true;  // no undiscovered match uses this list
            break;
          }
          double conf = items[cursor[ci]].confidence;
          if (conf <= 0) {
            exhausted = true;
            break;
          }
          upbound += std::log(conf);
        }
        if (exhausted) break;
        // Strict inequality: matches tying the k-th score are kept (the
        // paper returns all equal-score matches), so stopping at
        // theta == Upbound could drop undiscovered ties.
        if (theta > upbound && all.size() >= options_.k) {
          local.stopped_early = true;
          break;
        }
      }
      if (seen.size() >= options_.max_total_matches) break;
    }
    local.expansions = total_expansions;
  }

  // Rank by the pinned MatchOrder and cut to k, keeping ties with the k-th
  // score (the paper counts equal-score matches once).
  SortAndCutTopK(&all, options_.k);
  local.distinct_matches = all.size();
  if (stats != nullptr) *stats = local;
  return all;
}

}  // namespace match
}  // namespace ganswer
