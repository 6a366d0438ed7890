#ifndef GANSWER_RDF_SPARQL_H_
#define GANSWER_RDF_SPARQL_H_

#include <optional>
#include <string>
#include <vector>

#include "rdf/term_dictionary.h"

namespace ganswer {
namespace rdf {

/// One position of a triple pattern: either a variable ("?x", stored
/// without the '?') or a constant RDF term.
struct PatternTerm {
  bool is_var = false;
  std::string text;
  /// Literal constants match literal terms; IRI constants match IRIs.
  TermKind kind = TermKind::kIri;

  static PatternTerm Var(std::string name) {
    return PatternTerm{true, std::move(name), TermKind::kIri};
  }
  static PatternTerm Iri(std::string text) {
    return PatternTerm{false, std::move(text), TermKind::kIri};
  }
  static PatternTerm Literal(std::string text) {
    return PatternTerm{false, std::move(text), TermKind::kLiteral};
  }

  friend bool operator==(const PatternTerm&, const PatternTerm&) = default;
};

/// A SPARQL triple pattern `s p o`.
struct TriplePattern {
  PatternTerm subject;
  PatternTerm predicate;
  PatternTerm object;

  friend bool operator==(const TriplePattern&, const TriplePattern&) = default;
};

/// \brief The SPARQL fragment the engine evaluates: SELECT/ASK over a basic
/// graph pattern, with DISTINCT and LIMIT. This is the fragment both the
/// DEANNA baseline emits and gold-answer computation uses; the paper's own
/// failure analysis (Table 10) notes that aggregation (ORDER BY/OFFSET)
/// is out of scope for the QA pipeline.
struct SparqlQuery {
  enum class Form { kSelect, kAsk };

  /// ORDER BY [ASC|DESC](?var). Ascending order puts numbers (values whose
  /// whole text parses as a number that is not NaN) first, by value with
  /// ties broken by text, then every other value by text; DESC is the exact
  /// reverse. Enough for the paper's own aggregation example
  /// "ORDER BY DESC(?x) OFFSET 0 LIMIT 1".
  struct OrderBy {
    std::string var;
    bool descending = false;
  };

  Form form = Form::kSelect;
  bool distinct = false;
  /// Empty with select_all == true means `SELECT *`.
  std::vector<std::string> select_vars;
  bool select_all = false;
  std::vector<TriplePattern> patterns;
  std::optional<OrderBy> order_by;
  std::optional<size_t> limit;
  std::optional<size_t> offset;

  /// Serializes back to SPARQL text (stable formatting, for logs/tests).
  std::string ToString() const;
};

/// Result of query evaluation. For ASK queries only ask_result is
/// meaningful; for SELECT, rows are parallel to var_names.
struct SparqlResult {
  std::vector<std::string> var_names;
  std::vector<std::vector<TermId>> rows;
  bool ask_result = false;
};

}  // namespace rdf
}  // namespace ganswer

#endif  // GANSWER_RDF_SPARQL_H_
