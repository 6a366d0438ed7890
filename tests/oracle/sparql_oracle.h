#ifndef GANSWER_TESTS_ORACLE_SPARQL_ORACLE_H_
#define GANSWER_TESTS_ORACLE_SPARQL_ORACLE_H_

// Reference oracle for the SPARQL-lite evaluator: a deliberately naive
// nested-loop join over the RAW triple list (the text triples the test
// added, not RdfGraph's CSR), with none of SparqlEngine's machinery — no
// predicate index, no selectivity reordering, no early termination. Any
// answer disagreement between this and SparqlEngine is a bug in one of
// them.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "rdf/rdf_graph.h"
#include "rdf/sparql.h"
#include "test_support.h"

namespace ganswer {
namespace testing {

struct SparqlOracleResult {
  /// False mirrors SparqlEngine's InvalidArgument cases (selected or
  /// ORDER BY variable not bound by any pattern).
  bool ok = true;
  /// SELECT rows BEFORE ORDER BY / OFFSET / LIMIT, but after DISTINCT.
  /// Row order is meaningless (compare as sorted multisets).
  std::vector<std::vector<rdf::TermId>> rows;
  std::vector<std::string> var_names;
  bool ask_result = false;
};

/// Evaluates \p query against the raw triple list by exhaustive nested-loop
/// join in the patterns' written order.
inline SparqlOracleResult NaiveSparqlEvaluate(
    const rdf::RdfGraph& graph, const std::vector<RawTriple>& raw,
    const rdf::SparqlQuery& query) {
  SparqlOracleResult result;
  const rdf::TermDictionary& dict = graph.dict();

  // Encode the ground-truth triples (dedup; AddTriple dedups at Finalize).
  std::set<std::array<rdf::TermId, 3>> triple_set;
  for (const RawTriple& t : raw) {
    auto s = dict.Lookup(t.s, rdf::TermKind::kIri);
    auto p = dict.Lookup(t.p, rdf::TermKind::kIri);
    auto o = dict.Lookup(t.o, t.object_kind);
    if (!s || !p || !o) std::abort();  // raw triples were interned by Add
    triple_set.insert({*s, *p, *o});
  }
  std::vector<std::array<rdf::TermId, 3>> triples(triple_set.begin(),
                                                  triple_set.end());

  // Output variables, mirroring the engine: SELECT * takes variables in
  // first-occurrence order across the patterns.
  std::vector<std::string> out_vars = query.select_vars;
  if (query.form == rdf::SparqlQuery::Form::kSelect && query.select_all) {
    std::set<std::string> seen;
    for (const rdf::TriplePattern& tp : query.patterns) {
      for (const rdf::PatternTerm* t :
           {&tp.subject, &tp.predicate, &tp.object}) {
        if (t->is_var && seen.insert(t->text).second) {
          out_vars.push_back(t->text);
        }
      }
    }
  }
  if (query.form == rdf::SparqlQuery::Form::kAsk) out_vars.clear();

  std::set<std::string> bound_vars;
  for (const rdf::TriplePattern& tp : query.patterns) {
    for (const rdf::PatternTerm* t : {&tp.subject, &tp.predicate, &tp.object}) {
      if (t->is_var) bound_vars.insert(t->text);
    }
  }
  for (const std::string& v : out_vars) {
    if (!bound_vars.count(v)) {
      result.ok = false;
      return result;
    }
  }
  if (query.form == rdf::SparqlQuery::Form::kSelect &&
      query.order_by.has_value() &&
      std::find(out_vars.begin(), out_vars.end(), query.order_by->var) ==
          out_vars.end()) {
    result.ok = false;  // engine: ORDER BY var must be a result var
    return result;
  }
  result.var_names = out_vars;

  // Nested-loop join in written pattern order.
  std::map<std::string, rdf::TermId> binding;
  auto term_matches = [&](const rdf::PatternTerm& t, rdf::TermId id,
                          std::vector<std::string>* newly) {
    if (t.is_var) {
      auto it = binding.find(t.text);
      if (it != binding.end()) return it->second == id;
      binding.emplace(t.text, id);
      newly->push_back(t.text);
      return true;
    }
    auto want = dict.Lookup(t.text, t.kind);
    return want.has_value() && *want == id;
  };

  std::vector<std::vector<rdf::TermId>> rows;
  auto emit = [&]() {
    std::vector<rdf::TermId> row;
    for (const std::string& v : out_vars) {
      auto it = binding.find(v);
      row.push_back(it == binding.end() ? rdf::kInvalidTerm : it->second);
    }
    rows.push_back(std::move(row));
  };

  std::function<void(size_t)> join = [&](size_t depth) {
    if (depth == query.patterns.size()) {
      emit();
      return;
    }
    const rdf::TriplePattern& tp = query.patterns[depth];
    for (const auto& t : triples) {
      std::vector<std::string> newly;
      bool ok_match = term_matches(tp.subject, t[0], &newly) &&
                      term_matches(tp.predicate, t[1], &newly) &&
                      term_matches(tp.object, t[2], &newly);
      if (ok_match) join(depth + 1);
      for (const std::string& v : newly) binding.erase(v);
    }
  };
  if (query.patterns.empty()) {
    emit();  // empty BGP: one (empty/unbound) solution, SPARQL semantics
  } else {
    join(0);
  }

  if (query.form == rdf::SparqlQuery::Form::kAsk) {
    result.ask_result = !rows.empty();
    return result;
  }
  if (query.distinct) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
  result.rows = std::move(rows);
  return result;
}

/// The engine's ORDER BY order, replicated for checking that an engine
/// result honoring ORDER BY really is sorted. Ascending, numbers (text that
/// strtod parses whole, not NaN) come first, by value with ties broken by
/// text, then every other value by text; descending is the exact reverse.
/// True when \p a may precede \p b.
inline bool OrderByLeq(const rdf::TermDictionary& dict, rdf::TermId a,
                       rdf::TermId b, bool descending) {
  // (not a number, value, text), compared lexicographically.
  auto key = [&](rdf::TermId t) {
    std::string_view text = dict.text(t);
    std::string buf(text);  // strtod needs a NUL terminator
    char* end = nullptr;
    double num = std::strtod(buf.c_str(), &end);
    bool numeric = end != buf.c_str() && *end == '\0' && !std::isnan(num);
    return std::tuple(!numeric, numeric ? num : 0.0, text);
  };
  return descending ? !(key(a) < key(b)) : !(key(b) < key(a));
}

}  // namespace testing
}  // namespace ganswer

#endif  // GANSWER_TESTS_ORACLE_SPARQL_ORACLE_H_
