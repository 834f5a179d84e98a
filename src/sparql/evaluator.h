#ifndef ALEX_SPARQL_EVALUATOR_H_
#define ALEX_SPARQL_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/dataset.h"
#include "sparql/ast.h"

namespace alex::sparql {

/// A solution table: `variables` names the columns, each row holds one
/// concrete RDF term per column. Terms (not dictionary ids) are used so
/// results from stores with different dictionaries can be merged — the
/// federation layer depends on this.
struct QueryResult {
  std::vector<std::string> variables;
  std::vector<std::vector<rdf::Term>> rows;

  size_t NumRows() const { return rows.size(); }
};

/// Evaluates a parsed SELECT query against one triple store.
///
/// Join strategy: triple patterns are ordered greedily by how many of their
/// components are bound (constants or previously bound variables), then each
/// pattern is matched through the store's indexes and extends the partial
/// bindings (index nested-loop join). FILTERs are applied as soon as their
/// variable binds. DISTINCT and LIMIT are applied on output.
Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dictionary& dict,
                             const rdf::TripleStore& store);

/// Convenience overload for a Dataset.
Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dataset& dataset);

/// Parses and evaluates in one step.
Result<QueryResult> EvaluateQuery(std::string_view query_text,
                                  const rdf::Dataset& dataset);

/// Evaluates an ASK query (or any query treated existentially): true if at
/// least one solution exists. Stops at the first match.
Result<bool> Ask(const SelectQuery& query, const rdf::Dataset& dataset);

/// Parses and evaluates an ASK query in one step.
Result<bool> AskQuery(std::string_view query_text,
                      const rdf::Dataset& dataset);

/// Compares two terms under a FILTER operator. Numeric/date comparisons are
/// value-based; everything else is lexicographic over lexical forms.
bool CompareTerms(const rdf::Term& lhs, CompareOp op, const rdf::Term& rhs);

}  // namespace alex::sparql

#endif  // ALEX_SPARQL_EVALUATOR_H_
