#include "rdf/sparql_engine.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <set>
#include <span>
#include <unordered_map>

#include "common/search.h"
#include "rdf/sparql_parser.h"

namespace ganswer {
namespace rdf {

namespace {

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

// First Edge with .predicate >= p in a (predicate, neighbor)-sorted
// adjacency run.
const Edge* EdgeRunLowerBound(std::span<const Edge> edges, TermId p) {
  return BranchlessLowerBound(
      edges.data(), edges.data() + edges.size(), p,
      [](const Edge& e, TermId key) { return e.predicate < key; });
}

// Galloping advance to the first pair with .first >= k in a sorted
// permutation run.
const std::pair<TermId, TermId>* PairRunGallop(
    const std::pair<TermId, TermId>* first,
    const std::pair<TermId, TermId>* last, TermId k) {
  return GallopingLowerBound(
      first, last, k,
      [](const std::pair<TermId, TermId>& e, TermId key) {
        return e.first < key;
      });
}

// A triple pattern with constants resolved to term ids and variables
// resolved to slots in the binding vector.
struct ResolvedPattern {
  // For each position: var slot (if is_var) or constant term id.
  std::array<bool, 3> is_var{};
  std::array<size_t, 3> var_slot{};
  std::array<TermId, 3> constant{};
};

struct ResolveOutcome {
  std::vector<ResolvedPattern> resolved;
  std::unordered_map<std::string, size_t> var_slots;
  // An unknown constant makes the whole BGP unsatisfiable, but every
  // pattern must still be walked so all written variables get slots: a
  // selected variable appearing only alongside an unknown constant is
  // bound-but-empty (SPARQL semantics), not an InvalidArgument.
  bool impossible = false;
};

ResolveOutcome ResolvePatterns(const RdfGraph& graph,
                               const std::vector<TriplePattern>& patterns) {
  ResolveOutcome out;
  auto slot_of = [&](const std::string& name) {
    auto [it, _] = out.var_slots.emplace(name, out.var_slots.size());
    return it->second;
  };
  out.resolved.reserve(patterns.size());
  for (const TriplePattern& tp : patterns) {
    ResolvedPattern rp;
    const PatternTerm* terms[3] = {&tp.subject, &tp.predicate, &tp.object};
    for (int i = 0; i < 3; ++i) {
      if (terms[i]->is_var) {
        rp.is_var[i] = true;
        rp.var_slot[i] = slot_of(terms[i]->text);
      } else {
        auto id = graph.dict().Lookup(terms[i]->text, terms[i]->kind);
        if (!id.has_value()) {
          out.impossible = true;  // constant never interned: no matches
          continue;
        }
        rp.is_var[i] = false;
        rp.constant[i] = *id;
      }
    }
    out.resolved.push_back(rp);
  }
  return out;
}

// Estimated candidate rows for `rp` given which variable slots are already
// bound. Constants contribute exact degrees where the graph has them; bound
// variables contribute statistics averages (their value is unknown at plan
// time). Lower is more selective.
double EstimatePattern(const RdfGraph& graph, const GraphStats& stats,
                       const ResolvedPattern& rp,
                       const std::vector<bool>& bound) {
  auto known = [&](int i) { return !rp.is_var[i] || bound[rp.var_slot[i]]; };
  bool sk = known(0), pk = known(1), ok = known(2);
  bool s_const = !rp.is_var[0], p_const = !rp.is_var[1],
       o_const = !rp.is_var[2];
  if (sk && pk && ok) return 1.0;  // pure existence filter
  if (sk) {
    if (ok) return 1.0;  // both endpoints fixed, predicate free
    double est = s_const ? static_cast<double>(graph.OutDegree(rp.constant[0]))
                         : stats.AvgOutFanout();
    if (pk && p_const) {
      est = std::min(est, stats.AvgObjectsPerSubject(rp.constant[1]));
    }
    return est;
  }
  if (ok) {
    if (pk && p_const) {
      TermId p = rp.constant[1];
      // `?x rdf:type <C>` yields the class's instances — the statistic the
      // planner keeps exactly for this, far tighter than the per-object
      // average of the heavily skewed type predicate.
      if (o_const && p == graph.type_predicate()) {
        return static_cast<double>(stats.ClassInstanceCount(rp.constant[2]));
      }
      double est = stats.AvgSubjectsPerObject(p);
      if (o_const) est = std::min(
          est, static_cast<double>(graph.InDegree(rp.constant[2])));
      return est;
    }
    return o_const ? static_cast<double>(graph.InDegree(rp.constant[2]))
                   : stats.AvgInFanout();
  }
  if (pk) {
    if (p_const) return static_cast<double>(stats.TripleCount(rp.constant[1]));
    // Predicate is a bound variable: one group of unknown identity.
    return stats.num_predicates() > 0
               ? static_cast<double>(stats.num_triples()) /
                     static_cast<double>(stats.num_predicates())
               : 0.0;
  }
  return static_cast<double>(stats.num_triples());
}

// True when `rp` shares at least one variable with the bound set (or has no
// variables at all, making it a pure filter).
bool SharesBoundVar(const ResolvedPattern& rp, const std::vector<bool>& bound) {
  bool any_var = false;
  for (int i = 0; i < 3; ++i) {
    if (!rp.is_var[i]) continue;
    any_var = true;
    if (bound[rp.var_slot[i]]) return true;
  }
  return !any_var;
}

}  // namespace

SparqlEngine::SparqlEngine(const RdfGraph& graph)
    : SparqlEngine(graph, Options()) {}

SparqlEngine::SparqlEngine(const RdfGraph& graph, Options options)
    : graph_(graph), options_(options) {
  if (const char* env = std::getenv("GANSWER_SPARQL_NAIVE");
      env != nullptr && env[0] == '1') {
    options_.use_planner = false;
  }
  if (options_.stats != nullptr) {
    stats_ = options_.stats;
  } else {
    owned_stats_ = std::make_unique<GraphStats>(GraphStats::Compute(graph));
    stats_ = owned_stats_.get();
  }

  // Permutation indexes, built by one counting pass per direction straight
  // off the CSR: group sizes are the (exact) predicate frequencies, and
  // because vertices are visited in ascending id order and per-vertex
  // adjacency is sorted by (predicate, neighbor), each predicate's pairs
  // come out sorted by (s, o) in PSO resp. (o, s) in POS — no hashing, no
  // comparison sort, and edge-less terms (literals) cost one empty span.
  auto predicates = graph.Predicates();
  slot_predicate_.assign(predicates.begin(), predicates.end());
  std::sort(slot_predicate_.begin(), slot_predicate_.end());
  const size_t num_slots = slot_predicate_.size();
  pred_slot_.assign(graph.NumTerms(), kNoSlot);
  for (size_t k = 0; k < num_slots; ++k) {
    pred_slot_[slot_predicate_[k]] = static_cast<uint32_t>(k);
  }
  slot_offsets_.assign(num_slots + 1, 0);
  for (size_t k = 0; k < num_slots; ++k) {
    slot_offsets_[k + 1] =
        slot_offsets_[k] + graph.PredicateFrequency(slot_predicate_[k]);
  }
  pso_.resize(slot_offsets_.back());
  pos_.resize(slot_offsets_.back());
  std::vector<size_t> cursor(slot_offsets_.begin(), slot_offsets_.end() - 1);
  const TermId n = static_cast<TermId>(graph.NumTerms());
  for (TermId s = 0; s < n; ++s) {
    for (const Edge& e : graph.OutEdges(s)) {
      pso_[cursor[pred_slot_[e.predicate]]++] = {s, e.neighbor};
    }
  }
  cursor.assign(slot_offsets_.begin(), slot_offsets_.end() - 1);
  for (TermId o = 0; o < n; ++o) {
    for (const Edge& e : graph.InEdges(o)) {
      pos_[cursor[pred_slot_[e.predicate]]++] = {o, e.neighbor};
    }
  }
}

size_t SparqlEngine::PredSlot(TermId p) const {
  if (p >= pred_slot_.size() || pred_slot_[p] == kNoSlot) {
    return slot_predicate_.size();
  }
  return pred_slot_[p];
}

SparqlEngine::PlannerCounters SparqlEngine::planner_counters() const {
  PlannerCounters c;
  c.planned_queries = planned_queries_.load(std::memory_order_relaxed);
  c.naive_queries = naive_queries_.load(std::memory_order_relaxed);
  c.range_lookups = range_lookups_.load(std::memory_order_relaxed);
  c.full_scans = full_scans_.load(std::memory_order_relaxed);
  c.intermediate_bindings =
      intermediate_bindings_.load(std::memory_order_relaxed);
  c.merge_joins = merge_joins_.load(std::memory_order_relaxed);
  return c;
}

namespace {

// Greedy cost-based join order: cheapest-estimated pattern first, then
// repeatedly the pattern connected to the bound variables that minimizes
// the estimated intermediate-result size; a cross product is taken only
// when no unused pattern touches a bound variable.
std::vector<std::pair<size_t, double>> PlanJoinOrder(
    const RdfGraph& graph, const GraphStats& stats,
    const std::vector<ResolvedPattern>& resolved, size_t num_slots) {
  const size_t n = resolved.size();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(num_slots, false);
  std::vector<std::pair<size_t, double>> plan;
  plan.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_cost = 0.0;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = step == 0 || SharesBoundVar(resolved[i], bound);
      double cost = EstimatePattern(graph, stats, resolved[i], bound);
      if (best == n || (connected && !best_connected) ||
          (connected == best_connected && cost < best_cost)) {
        best = i;
        best_cost = cost;
        best_connected = connected;
      }
    }
    used[best] = true;
    plan.emplace_back(best, best_cost);
    for (int i = 0; i < 3; ++i) {
      if (resolved[best].is_var[i]) bound[resolved[best].var_slot[i]] = true;
    }
  }
  return plan;
}

// One side of a leading sort-merge join: the sorted (key, other) pair run
// of a pattern's predicate group, keyed on the shared join variable.
struct MergeSide {
  const std::pair<TermId, TermId>* begin = nullptr;
  const std::pair<TermId, TermId>* end = nullptr;
  size_t other_slot = 0;  // binding slot of the non-key variable
};

}  // namespace

StatusOr<std::vector<std::vector<TermId>>> SparqlEngine::EvaluateBgp(
    const std::vector<TriplePattern>& patterns,
    const std::vector<std::string>& out_vars, bool stop_at_first) const {
  ResolveOutcome rs = ResolvePatterns(graph_, patterns);
  const std::vector<ResolvedPattern>& resolved = rs.resolved;

  std::vector<size_t> out_slots;
  for (const std::string& v : out_vars) {
    auto it = rs.var_slots.find(v);
    if (it == rs.var_slots.end()) {
      return Status::InvalidArgument("selected variable ?" + v +
                                     " not bound by any pattern");
    }
    out_slots.push_back(it->second);
  }
  if (rs.impossible) return std::vector<std::vector<TermId>>{};

  std::vector<std::vector<TermId>> rows;
  if (resolved.empty()) {
    // Empty BGP: one empty solution (SPARQL semantics).
    rows.emplace_back(out_slots.size(), kInvalidTerm);
    return rows;
  }

  const bool planned = options_.use_planner;
  uint64_t local_range = 0, local_full = 0, local_bind = 0, local_merge = 0;

  std::vector<size_t> order;
  order.reserve(resolved.size());
  if (planned) {
    for (const auto& [i, est] :
         PlanJoinOrder(graph_, *stats_, resolved, rs.var_slots.size())) {
      order.push_back(i);
    }
    planned_queries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (size_t i = 0; i < resolved.size(); ++i) order.push_back(i);
    naive_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<TermId> binding(rs.var_slots.size(), kInvalidTerm);

  // Value of pattern position i under the current binding, or kInvalidTerm.
  auto value_of = [&](const ResolvedPattern& rp, int i) -> TermId {
    if (!rp.is_var[i]) return rp.constant[i];
    return binding[rp.var_slot[i]];
  };

  // Enumerates the concrete triples matching `rp` under the current
  // binding, calling fn(s, p, o) for each; fn returns false to stop early.
  // Planned mode resolves bound terms to sorted runs by binary search;
  // naive mode reproduces the baseline's linear scans and filters.
  auto enumerate = [&](const ResolvedPattern& rp, auto&& fn) {
    TermId s = value_of(rp, 0), p = value_of(rp, 1), o = value_of(rp, 2);
    bool sb = s != kInvalidTerm, pb = p != kInvalidTerm, ob = o != kInvalidTerm;
    if (sb && pb && ob) {
      if (planned) ++local_range;
      if (graph_.HasTriple(s, p, o)) {
        ++local_bind;
        fn(s, p, o);
      }
      return;
    }
    if (sb) {
      auto edges = graph_.OutEdges(s);
      if (planned && pb) {
        // Binary-search the predicate run instead of filtering the whole
        // adjacency list.
        ++local_range;
        const Edge* it = EdgeRunLowerBound(edges, p);
        const Edge* end = edges.data() + edges.size();
        for (; it != end && it->predicate == p; ++it) {
          ++local_bind;
          if (!fn(s, p, it->neighbor)) return;
        }
        return;
      }
      for (const Edge& e : edges) {
        if (pb && e.predicate != p) continue;
        if (ob && e.neighbor != o) continue;
        ++local_bind;
        if (!fn(s, e.predicate, e.neighbor)) return;
      }
      return;
    }
    if (ob) {
      if (planned && pb) {
        // The in-edge adjacency is sorted by (predicate, neighbor), so the
        // subjects form one binary-searched run — degree-sized, always no
        // larger than the POS group the same probe would search.
        ++local_range;
        auto edges = graph_.InEdges(o);
        const Edge* it = EdgeRunLowerBound(edges, p);
        const Edge* end = edges.data() + edges.size();
        for (; it != end && it->predicate == p; ++it) {
          ++local_bind;
          if (!fn(it->neighbor, p, o)) return;
        }
        return;
      }
      for (const Edge& e : graph_.InEdges(o)) {
        if (pb && e.predicate != p) continue;
        ++local_bind;
        if (!fn(e.neighbor, e.predicate, o)) return;
      }
      return;
    }
    if (pb) {
      ++local_full;
      size_t slot = PredSlot(p);
      if (slot == slot_predicate_.size()) return;
      for (size_t i = slot_offsets_[slot]; i < slot_offsets_[slot + 1]; ++i) {
        ++local_bind;
        if (!fn(pso_[i].first, p, pso_[i].second)) return;
      }
      return;
    }
    ++local_full;
    for (size_t k = 0; k < slot_predicate_.size(); ++k) {
      for (size_t i = slot_offsets_[k]; i < slot_offsets_[k + 1]; ++i) {
        ++local_bind;
        if (!fn(pso_[i].first, slot_predicate_[k], pso_[i].second)) return;
      }
    }
  };

  bool done = false;
  auto recurse = [&](auto&& self, size_t idx) -> void {
    if (done) return;
    if (idx == order.size()) {
      std::vector<TermId> row;
      row.reserve(out_slots.size());
      for (size_t slot : out_slots) row.push_back(binding[slot]);
      rows.push_back(std::move(row));
      if (stop_at_first) done = true;
      return;
    }
    const ResolvedPattern& rp = resolved[order[idx]];
    enumerate(rp, [&](TermId s, TermId p, TermId o) -> bool {
      // Bind unbound vars; check consistency for repeated vars within the
      // pattern (e.g. ?x p ?x).
      TermId vals[3] = {s, p, o};
      std::array<size_t, 3> newly_bound;
      size_t num_new = 0;
      bool consistent = true;
      for (int i = 0; i < 3 && consistent; ++i) {
        if (!rp.is_var[i]) continue;
        size_t slot = rp.var_slot[i];
        if (binding[slot] == kInvalidTerm) {
          binding[slot] = vals[i];
          newly_bound[num_new++] = slot;
        } else if (binding[slot] != vals[i]) {
          consistent = false;
        }
      }
      if (consistent) self(self, idx + 1);
      for (size_t i = 0; i < num_new; ++i) binding[newly_bound[i]] = kInvalidTerm;
      return !done;
    });
  };

  // Leading sort-merge join: when the plan's first two patterns have
  // constant predicates, share exactly one variable and have free
  // variables everywhere else, both predicate groups are sorted on the
  // shared variable's side (PSO when it is the subject, POS when it is the
  // object), so the join is one linear merge of two sorted runs instead of
  // |A| binary probes.
  auto merge_side = [&](const ResolvedPattern& rp,
                        size_t key_slot) -> std::optional<MergeSide> {
    if (rp.is_var[1]) return std::nullopt;  // predicate must be constant
    size_t slot = PredSlot(rp.constant[1]);
    if (slot == slot_predicate_.size()) return std::nullopt;
    bool key_at_subject = rp.is_var[0] && rp.var_slot[0] == key_slot;
    bool key_at_object = rp.is_var[2] && rp.var_slot[2] == key_slot;
    if (key_at_subject == key_at_object) return std::nullopt;  // need one side
    MergeSide side;
    const auto& arr = key_at_subject ? pso_ : pos_;
    side.begin = arr.data() + slot_offsets_[slot];
    side.end = arr.data() + slot_offsets_[slot + 1];
    // The non-key side must be a free variable. A constant there means the
    // pattern resolves to a selective PSO/POS probe on that constant — the
    // plan the orderer already picked — and merging would instead scan the
    // whole predicate group (catastrophic for skewed groups like rdf:type).
    int other_pos = key_at_subject ? 2 : 0;
    if (!rp.is_var[other_pos] || rp.var_slot[other_pos] == key_slot) {
      return std::nullopt;
    }
    side.other_slot = rp.var_slot[other_pos];
    return side;
  };

  auto try_merge_join = [&]() -> bool {
    if (!planned || order.size() < 2) return false;
    const ResolvedPattern& a = resolved[order[0]];
    const ResolvedPattern& b = resolved[order[1]];
    // Exactly one shared variable (predicates are constants below, so only
    // subject/object slots participate).
    std::set<size_t> va, vb;
    for (int i = 0; i < 3; ++i) {
      if (a.is_var[i]) va.insert(a.var_slot[i]);
      if (b.is_var[i]) vb.insert(b.var_slot[i]);
    }
    std::vector<size_t> shared;
    for (size_t s : va) {
      if (vb.count(s) > 0) shared.push_back(s);
    }
    if (shared.size() != 1) return false;
    size_t key = shared[0];
    auto sa = merge_side(a, key);
    auto sb = merge_side(b, key);
    if (!sa.has_value() || !sb.has_value()) return false;

    ++local_merge;
    const auto* ia = sa->begin;
    const auto* ib = sb->begin;
    while (ia != sa->end && ib != sb->end && !done) {
      if (ia->first < ib->first) {
        // The next matching key is usually a few entries ahead, so gallop:
        // exponential probe + branchless binary search in the bracket
        // beats a full-width lower_bound on long permutation runs.
        ia = PairRunGallop(ia, sa->end, ib->first);
        continue;
      }
      if (ib->first < ia->first) {
        ib = PairRunGallop(ib, sb->end, ia->first);
        continue;
      }
      TermId k = ia->first;
      const auto* ea = ia;
      while (ea != sa->end && ea->first == k) ++ea;
      const auto* eb = ib;
      while (eb != sb->end && eb->first == k) ++eb;
      binding[key] = k;
      for (const auto* pa = ia; pa != ea && !done; ++pa) {
        binding[sa->other_slot] = pa->second;
        for (const auto* pb = ib; pb != eb && !done; ++pb) {
          ++local_bind;
          binding[sb->other_slot] = pb->second;
          recurse(recurse, 2);
          binding[sb->other_slot] = kInvalidTerm;
        }
        binding[sa->other_slot] = kInvalidTerm;
      }
      binding[key] = kInvalidTerm;
      ia = ea;
      ib = eb;
    }
    return true;
  };

  if (!try_merge_join()) recurse(recurse, 0);

  range_lookups_.fetch_add(local_range, std::memory_order_relaxed);
  full_scans_.fetch_add(local_full, std::memory_order_relaxed);
  intermediate_bindings_.fetch_add(local_bind, std::memory_order_relaxed);
  merge_joins_.fetch_add(local_merge, std::memory_order_relaxed);
  return rows;
}

StatusOr<SparqlResult> SparqlEngine::Execute(const SparqlQuery& query) const {
  SparqlResult result;

  // Collect output variables.
  std::vector<std::string> out_vars = query.select_vars;
  if (query.form == SparqlQuery::Form::kSelect && query.select_all) {
    std::set<std::string> seen;
    for (const TriplePattern& tp : query.patterns) {
      for (const PatternTerm* t : {&tp.subject, &tp.predicate, &tp.object}) {
        if (t->is_var && seen.insert(t->text).second) {
          out_vars.push_back(t->text);
        }
      }
    }
  }
  if (query.form == SparqlQuery::Form::kAsk) out_vars.clear();

  bool stop_at_first = query.form == SparqlQuery::Form::kAsk;
  auto rows = EvaluateBgp(query.patterns, out_vars, stop_at_first);
  if (!rows.ok()) return rows.status();

  if (query.form == SparqlQuery::Form::kAsk) {
    result.ask_result = !rows->empty();
    return result;
  }

  result.var_names = out_vars;
  result.rows = std::move(rows).value();
  if (query.distinct) {
    std::sort(result.rows.begin(), result.rows.end());
    result.rows.erase(std::unique(result.rows.begin(), result.rows.end()),
                      result.rows.end());
  }
  if (query.order_by.has_value()) {
    size_t col = out_vars.size();
    for (size_t i = 0; i < out_vars.size(); ++i) {
      if (out_vars[i] == query.order_by->var) col = i;
    }
    if (col == out_vars.size()) {
      return Status::InvalidArgument("ORDER BY variable ?" +
                                     query.order_by->var +
                                     " is not among the result variables");
    }
    bool desc = query.order_by->descending;
    const TermDictionary& dict = graph_.dict();
    auto sort_key = [&](TermId t) -> std::pair<double, std::string_view> {
      std::string_view text = dict.text(t);
      // The arena view is not NUL-terminated; strtod needs a terminated
      // copy (ORDER BY keys are short literals).
      std::string buf(text);
      char* end = nullptr;
      double num = std::strtod(buf.c_str(), &end);
      bool numeric = end != buf.c_str() && *end == '\0';
      return {numeric ? num : std::numeric_limits<double>::quiet_NaN(), text};
    };
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const std::vector<TermId>& a,
                         const std::vector<TermId>& b) {
                       auto [na, ta] = sort_key(a[col]);
                       auto [nb, tb] = sort_key(b[col]);
                       bool both_numeric = na == na && nb == nb;  // !NaN
                       bool less = both_numeric ? na < nb : ta < tb;
                       bool greater = both_numeric ? nb < na : tb < ta;
                       return desc ? greater : less;
                     });
  }
  if (query.offset.has_value()) {
    size_t off = std::min(*query.offset, result.rows.size());
    result.rows.erase(result.rows.begin(), result.rows.begin() + off);
  }
  if (query.limit.has_value() && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
  }
  return result;
}

StatusOr<SparqlResult> SparqlEngine::ExecuteText(std::string_view text) const {
  auto query = SparqlParser::Parse(text);
  if (!query.ok()) return query.status();
  return Execute(*query);
}

StatusOr<std::vector<TermId>> SparqlEngine::SelectOne(
    const std::vector<TriplePattern>& patterns, const std::string& var) const {
  auto rows = EvaluateBgp(patterns, {var}, /*stop_at_first=*/false);
  if (!rows.ok()) return rows.status();
  std::vector<TermId> out;
  out.reserve(rows->size());
  for (const auto& row : *rows) out.push_back(row[0]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

std::string RenderPatternTerm(const PatternTerm& t) {
  if (t.is_var) return "?" + t.text;
  if (t.kind == TermKind::kLiteral) return "\"" + t.text + "\"";
  if (t.text.find(':') != std::string::npos &&
      t.text.find("://") == std::string::npos) {
    return t.text;  // prefixed name
  }
  return "<" + t.text + ">";
}

std::string RenderPattern(const TriplePattern& tp) {
  return RenderPatternTerm(tp.subject) + " " + RenderPatternTerm(tp.predicate) +
         " " + RenderPatternTerm(tp.object);
}

// Access path the executor takes for `rp` given the already-bound slots —
// mirrors the case analysis in EvaluateBgp's enumerate().
const char* AccessPathName(const ResolvedPattern& rp,
                           const std::vector<bool>& bound, bool planned) {
  auto known = [&](int i) { return !rp.is_var[i] || bound[rp.var_slot[i]]; };
  bool sk = known(0), pk = known(1), ok = known(2);
  if (sk && pk && ok) return "existence probe (HasTriple)";
  if (sk && pk) {
    return planned ? "subject+predicate range (out-edge run)"
                   : "subject scan + predicate filter";
  }
  if (sk) return "subject scan (out-edges)";
  if (ok && pk) {
    return planned ? "object+predicate range (in-edge run)"
                   : "object scan + predicate filter";
  }
  if (ok) return "object scan (in-edges)";
  if (pk) return "predicate scan (PSO)";
  return "full scan";
}

}  // namespace

StatusOr<std::string> SparqlEngine::ExplainPlan(const SparqlQuery& query) const {
  ResolveOutcome rs = ResolvePatterns(graph_, query.patterns);
  std::string out;
  const bool planned = options_.use_planner;
  out += planned ? "query plan: cost-based join order"
                 : "query plan: naive textual order (planner disabled)";
  out += " (" + std::to_string(query.patterns.size()) + " pattern";
  if (query.patterns.size() != 1) out += "s";
  out += ")\n";
  if (rs.impossible) {
    out += "  unsatisfiable: a constant is not in the dictionary; "
           "empty result\n";
    return out;
  }
  if (rs.resolved.empty()) {
    out += "  empty BGP: one empty solution\n";
    return out;
  }

  std::vector<std::pair<size_t, double>> plan;
  if (planned) {
    plan = PlanJoinOrder(graph_, *stats_, rs.resolved, rs.var_slots.size());
  } else {
    std::vector<bool> bound(rs.var_slots.size(), false);
    for (size_t i = 0; i < rs.resolved.size(); ++i) {
      plan.emplace_back(
          i, EstimatePattern(graph_, *stats_, rs.resolved[i], bound));
      for (int j = 0; j < 3; ++j) {
        if (rs.resolved[i].is_var[j]) bound[rs.resolved[i].var_slot[j]] = true;
      }
    }
  }

  std::vector<bool> bound(rs.var_slots.size(), false);
  for (size_t step = 0; step < plan.size(); ++step) {
    const auto& [pi, est] = plan[step];
    const ResolvedPattern& rp = rs.resolved[pi];
    char est_buf[32];
    std::snprintf(est_buf, sizeof(est_buf), "%.1f", est);
    out += "  " + std::to_string(step + 1) + ". " +
           RenderPattern(query.patterns[pi]) + "   ~" + est_buf +
           " rows via " + AccessPathName(rp, bound, planned) + "\n";
    for (int j = 0; j < 3; ++j) {
      if (rp.is_var[j]) bound[rp.var_slot[j]] = true;
    }
  }
  return out;
}

std::string SparqlQuery::ToString() const {
  auto term_text = [](const PatternTerm& t) -> std::string {
    if (t.is_var) return "?" + t.text;
    if (t.kind == TermKind::kLiteral) return "\"" + t.text + "\"";
    if (t.text.find(':') != std::string::npos &&
        t.text.find("://") == std::string::npos) {
      return t.text;  // prefixed name
    }
    return "<" + t.text + ">";
  };
  std::string out;
  if (form == Form::kAsk) {
    out = "ASK";
  } else {
    out = "SELECT";
    if (distinct) out += " DISTINCT";
    if (select_all || select_vars.empty()) {
      out += " *";
    } else {
      for (const auto& v : select_vars) out += " ?" + v;
    }
  }
  out += " WHERE { ";
  for (const TriplePattern& tp : patterns) {
    out += term_text(tp.subject) + " " + term_text(tp.predicate) + " " +
           term_text(tp.object) + " . ";
  }
  out += "}";
  if (order_by.has_value()) {
    out += " ORDER BY ";
    out += order_by->descending ? "DESC(" : "ASC(";
    out += "?" + order_by->var + ")";
  }
  if (limit.has_value()) out += " LIMIT " + std::to_string(*limit);
  if (offset.has_value()) out += " OFFSET " + std::to_string(*offset);
  return out;
}

}  // namespace rdf
}  // namespace ganswer
