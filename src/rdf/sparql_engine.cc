#include "rdf/sparql_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <tuple>
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
    : graph_(graph) {
  if (options.stats != nullptr) {
    stats_ = options.stats;
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
  c.range_lookups = range_lookups_.load(std::memory_order_relaxed);
  c.full_scans = full_scans_.load(std::memory_order_relaxed);
  c.intermediate_bindings =
      intermediate_bindings_.load(std::memory_order_relaxed);
  c.merge_joins = merge_joins_.load(std::memory_order_relaxed);
  return c;
}

namespace {

// How one join step enumerates its pattern's triples. It depends only on
// which positions are constants or bound by earlier steps, and in the
// backtracking join the variables bound at step i are exactly those of
// steps 0..i-1, so it is decided once per query.
enum class Access : uint8_t {
  kProbe,                // s, p, o known: one HasTriple
  kSubjectPredicateRun,  // s, p known: binary-searched out-edge run
  kSubjectScan,          // s known, p free: out-edges (o filters if known)
  kObjectPredicateRun,   // o, p known: binary-searched in-edge run
  kObjectScan,           // o known, s and p free: the in-edge list
  kPredicateGroup,       // only p known: its PSO group
  kFullScan,             // nothing known: every PSO group
};

Access AccessFor(const ResolvedPattern& rp, const std::vector<bool>& bound) {
  auto known = [&](int i) { return !rp.is_var[i] || bound[rp.var_slot[i]]; };
  bool sk = known(0), pk = known(1), ok = known(2);
  if (sk && pk && ok) return Access::kProbe;
  if (sk) return pk ? Access::kSubjectPredicateRun : Access::kSubjectScan;
  if (ok) return pk ? Access::kObjectPredicateRun : Access::kObjectScan;
  return pk ? Access::kPredicateGroup : Access::kFullScan;
}

const char* AccessName(Access access) {
  switch (access) {
    case Access::kProbe: return "existence probe (HasTriple)";
    case Access::kSubjectPredicateRun:
      return "subject+predicate range (out-edge run)";
    case Access::kSubjectScan: return "subject scan (out-edges)";
    case Access::kObjectPredicateRun:
      return "object+predicate range (in-edge run)";
    case Access::kObjectScan: return "object scan (in-edges)";
    case Access::kPredicateGroup: return "predicate scan (PSO)";
    case Access::kFullScan: return "full scan";
  }
  return "";
}

struct PlanStep {
  size_t pattern = 0;     // index into the query's pattern list
  double estimate = 0.0;  // estimated candidate rows at this step
  Access access = Access::kFullScan;
};

// One side of the leading sort-merge join: a pattern's predicate group,
// sorted on the join key (PSO when the key is the subject, POS when it is
// the object).
struct MergeSide {
  size_t pred_slot = 0;
  bool key_at_subject = false;
  size_t other_slot = 0;  // binding slot of the non-key variable
};

// The whole execution plan of one BGP: what EvaluateBgp runs and
// ExplainPlan renders.
struct Plan {
  std::vector<PlanStep> steps;  // join order
  // Steps 0 and 1 run as one sort-merge join on variable slot merge_key.
  bool merge_join = false;
  size_t merge_key = 0;
  std::array<MergeSide, 2> merge_sides{};
};

// The merge side of `rp` keyed on `key`: the predicate must be a constant
// with a group, the key must sit at exactly one of subject and object, and
// the other end must be a free variable. A constant there means the
// pattern resolves to a selective PSO/POS probe on that constant — the plan
// the orderer already picked — and merging would instead scan the whole
// predicate group (catastrophic for skewed groups like rdf:type).
std::optional<MergeSide> MergeSideFor(const ResolvedPattern& rp, size_t key,
                                      const std::vector<uint32_t>& pred_slot) {
  if (rp.is_var[1]) return std::nullopt;
  TermId p = rp.constant[1];
  if (p >= pred_slot.size() || pred_slot[p] == kNoSlot) return std::nullopt;
  bool key_at_subject = rp.is_var[0] && rp.var_slot[0] == key;
  bool key_at_object = rp.is_var[2] && rp.var_slot[2] == key;
  if (key_at_subject == key_at_object) return std::nullopt;
  int other = key_at_subject ? 2 : 0;
  if (!rp.is_var[other] || rp.var_slot[other] == key) return std::nullopt;
  return MergeSide{pred_slot[p], key_at_subject, rp.var_slot[other]};
}

// Greedy cost-based join order: cheapest-estimated pattern first, then
// repeatedly the pattern connected to the bound variables that minimizes
// the estimated intermediate-result size; a cross product is taken only
// when no unused pattern touches a bound variable. Each step's access path
// follows from the variables bound before it. The first two steps become
// a sort-merge join when both have constant predicates, share exactly one
// variable and are free everywhere else: both groups are then sorted on
// the shared variable, so the join is one linear merge of two sorted runs
// instead of |A| binary probes.
Plan MakePlan(const RdfGraph& graph, const GraphStats& stats,
              const std::vector<ResolvedPattern>& resolved, size_t num_vars,
              const std::vector<uint32_t>& pred_slot) {
  const size_t n = resolved.size();
  std::vector<bool> used(n, false);
  std::vector<bool> bound(num_vars, false);
  Plan plan;
  plan.steps.reserve(n);
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
    plan.steps.push_back({best, best_cost, AccessFor(resolved[best], bound)});
    for (int i = 0; i < 3; ++i) {
      if (resolved[best].is_var[i]) bound[resolved[best].var_slot[i]] = true;
    }
  }

  if (n < 2) return plan;
  const ResolvedPattern& a = resolved[plan.steps[0].pattern];
  const ResolvedPattern& b = resolved[plan.steps[1].pattern];
  // Each side then has exactly two variables, the key and its other end;
  // distinct other ends make the key the only shared variable.
  for (int pos : {0, 2}) {
    if (!a.is_var[pos]) continue;
    auto side_a = MergeSideFor(a, a.var_slot[pos], pred_slot);
    auto side_b = MergeSideFor(b, a.var_slot[pos], pred_slot);
    if (side_a && side_b && side_a->other_slot != side_b->other_slot) {
      plan.merge_join = true;
      plan.merge_key = a.var_slot[pos];
      plan.merge_sides = {*side_a, *side_b};
      break;
    }
  }
  return plan;
}

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

  const Plan plan =
      MakePlan(graph_, *stats_, resolved, rs.var_slots.size(), pred_slot_);
  planned_queries_.fetch_add(1, std::memory_order_relaxed);
  uint64_t local_range = 0, local_full = 0, local_bind = 0;

  std::vector<TermId> binding(rs.var_slots.size(), kInvalidTerm);

  // Value of pattern position i under the current binding, or kInvalidTerm.
  auto value_of = [&](const ResolvedPattern& rp, int i) -> TermId {
    if (!rp.is_var[i]) return rp.constant[i];
    return binding[rp.var_slot[i]];
  };

  // Enumerates the concrete triples matching `rp` along the step's access
  // path, calling fn(s, p, o) for each; fn returns false to stop early.
  auto enumerate = [&](const ResolvedPattern& rp, Access access, auto&& fn) {
    TermId s = value_of(rp, 0), p = value_of(rp, 1), o = value_of(rp, 2);
    switch (access) {
      case Access::kProbe:
        ++local_range;
        if (graph_.HasTriple(s, p, o)) {
          ++local_bind;
          fn(s, p, o);
        }
        return;
      case Access::kSubjectPredicateRun: {
        ++local_range;
        auto edges = graph_.OutEdges(s);
        const Edge* end = edges.data() + edges.size();
        for (const Edge* it = EdgeRunLowerBound(edges, p);
             it != end && it->predicate == p; ++it) {
          ++local_bind;
          if (!fn(s, p, it->neighbor)) return;
        }
        return;
      }
      case Access::kSubjectScan:
        for (const Edge& e : graph_.OutEdges(s)) {
          if (o != kInvalidTerm && e.neighbor != o) continue;
          ++local_bind;
          if (!fn(s, e.predicate, e.neighbor)) return;
        }
        return;
      case Access::kObjectPredicateRun: {
        // The in-edge adjacency is sorted by (predicate, neighbor), so the
        // subjects form one binary-searched run — degree-sized, always no
        // larger than the POS group the same probe would search.
        ++local_range;
        auto edges = graph_.InEdges(o);
        const Edge* end = edges.data() + edges.size();
        for (const Edge* it = EdgeRunLowerBound(edges, p);
             it != end && it->predicate == p; ++it) {
          ++local_bind;
          if (!fn(it->neighbor, p, o)) return;
        }
        return;
      }
      case Access::kObjectScan:
        for (const Edge& e : graph_.InEdges(o)) {
          ++local_bind;
          if (!fn(e.neighbor, e.predicate, o)) return;
        }
        return;
      case Access::kPredicateGroup: {
        ++local_full;
        size_t slot = PredSlot(p);
        if (slot == slot_predicate_.size()) return;
        for (size_t i = slot_offsets_[slot]; i < slot_offsets_[slot + 1]; ++i) {
          ++local_bind;
          if (!fn(pso_[i].first, p, pso_[i].second)) return;
        }
        return;
      }
      case Access::kFullScan:
        ++local_full;
        for (size_t k = 0; k < slot_predicate_.size(); ++k) {
          for (size_t i = slot_offsets_[k]; i < slot_offsets_[k + 1]; ++i) {
            ++local_bind;
            if (!fn(pso_[i].first, slot_predicate_[k], pso_[i].second)) return;
          }
        }
        return;
    }
  };

  bool done = false;
  auto recurse = [&](auto&& self, size_t idx) -> void {
    if (done) return;
    if (idx == plan.steps.size()) {
      std::vector<TermId> row;
      row.reserve(out_slots.size());
      for (size_t slot : out_slots) row.push_back(binding[slot]);
      rows.push_back(std::move(row));
      if (stop_at_first) done = true;
      return;
    }
    const PlanStep& step = plan.steps[idx];
    const ResolvedPattern& rp = resolved[step.pattern];
    enumerate(rp, step.access, [&](TermId s, TermId p, TermId o) -> bool {
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

  if (plan.merge_join) {
    merge_joins_.fetch_add(1, std::memory_order_relaxed);
    auto run = [&](const MergeSide& side) {
      const auto& arr = side.key_at_subject ? pso_ : pos_;
      return std::pair{arr.data() + slot_offsets_[side.pred_slot],
                       arr.data() + slot_offsets_[side.pred_slot + 1]};
    };
    const MergeSide& sa = plan.merge_sides[0];
    const MergeSide& sb = plan.merge_sides[1];
    auto [ia, a_end] = run(sa);
    auto [ib, b_end] = run(sb);
    while (ia != a_end && ib != b_end && !done) {
      if (ia->first < ib->first) {
        // The next matching key is usually a few entries ahead, so gallop:
        // exponential probe + branchless binary search in the bracket
        // beats a full-width lower_bound on long permutation runs.
        ia = PairRunGallop(ia, a_end, ib->first);
        continue;
      }
      if (ib->first < ia->first) {
        ib = PairRunGallop(ib, b_end, ia->first);
        continue;
      }
      TermId k = ia->first;
      const auto* ea = ia;
      while (ea != a_end && ea->first == k) ++ea;
      const auto* eb = ib;
      while (eb != b_end && eb->first == k) ++eb;
      binding[plan.merge_key] = k;
      for (const auto* pa = ia; pa != ea && !done; ++pa) {
        binding[sa.other_slot] = pa->second;
        for (const auto* pb = ib; pb != eb && !done; ++pb) {
          ++local_bind;
          binding[sb.other_slot] = pb->second;
          recurse(recurse, 2);
          binding[sb.other_slot] = kInvalidTerm;
        }
        binding[sa.other_slot] = kInvalidTerm;
      }
      binding[plan.merge_key] = kInvalidTerm;
      ia = ea;
      ib = eb;
    }
  } else {
    recurse(recurse, 0);
  }

  range_lookups_.fetch_add(local_range, std::memory_order_relaxed);
  full_scans_.fetch_add(local_full, std::memory_order_relaxed);
  intermediate_bindings_.fetch_add(local_bind, std::memory_order_relaxed);
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
    // One key per row, computed before sorting: (not a number, value,
    // text). Numbers (text that strtod parses whole, not NaN) come first,
    // by value with ties broken by text; everything else follows by text.
    // That is a total order, so the sort is well defined on mixed columns;
    // DESC reverses it.
    using Key = std::tuple<bool, double, std::string_view>;
    std::vector<std::pair<Key, std::vector<TermId>>> keyed;
    keyed.reserve(result.rows.size());
    std::string buf;  // strtod needs a NUL-terminated copy of the arena text
    for (std::vector<TermId>& row : result.rows) {
      std::string_view text = graph_.dict().text(row[col]);
      buf.assign(text);
      char* end = nullptr;
      double num = std::strtod(buf.c_str(), &end);
      bool numeric = end != buf.c_str() && *end == '\0' && !std::isnan(num);
      keyed.emplace_back(Key{!numeric, numeric ? num : 0.0, text},
                         std::move(row));
    }
    const bool desc = query.order_by->descending;
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       return desc ? b.first < a.first : a.first < b.first;
                     });
    for (size_t i = 0; i < keyed.size(); ++i) {
      result.rows[i] = std::move(keyed[i].second);
    }
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

}  // namespace

StatusOr<std::string> SparqlEngine::ExplainPlan(const SparqlQuery& query) const {
  ResolveOutcome rs = ResolvePatterns(graph_, query.patterns);
  std::string out = "query plan: cost-based join order (" +
                    std::to_string(query.patterns.size()) + " pattern";
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

  const Plan plan =
      MakePlan(graph_, *stats_, rs.resolved, rs.var_slots.size(), pred_slot_);
  for (size_t step = 0; step < plan.steps.size(); ++step) {
    const PlanStep& ps = plan.steps[step];
    const TriplePattern& tp = query.patterns[ps.pattern];
    std::string via;
    if (plan.merge_join && step < 2) {
      const MergeSide& side = plan.merge_sides[step];
      via = "leading sort-merge join on ?" +
            (side.key_at_subject ? tp.subject : tp.object).text +
            (side.key_at_subject ? " (PSO group)" : " (POS group)");
    } else {
      via = AccessName(ps.access);
    }
    char est_buf[32];
    std::snprintf(est_buf, sizeof(est_buf), "%.1f", ps.estimate);
    out += "  " + std::to_string(step + 1) + ". " + RenderPattern(tp) +
           "   ~" + est_buf + " rows via " + via + "\n";
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
