#include "sparql/evaluator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "similarity/value.h"
#include "sparql/parser.h"

namespace alex::sparql {
namespace {

using rdf::Term;
using rdf::TermId;

/// Partial solution: one optional term per variable index.
using Binding = std::vector<std::optional<Term>>;

struct EvalContext {
  const rdf::Dictionary* dict = nullptr;
  const rdf::TripleStore* store = nullptr;
  std::unordered_map<std::string, size_t> var_index;
};

/// Index of a component's variable, or nullopt for a constant.
std::optional<size_t> VarIndexOf(const EvalContext& ctx, const TermOrVar& tv) {
  if (!IsVariable(tv)) return std::nullopt;
  return ctx.var_index.at(std::get<Variable>(tv).name);
}

/// Number of bound components a pattern has under the current binding.
int BoundScore(const EvalContext& ctx, const TriplePatternAst& tp,
               const std::vector<bool>& bound_vars) {
  int score = 0;
  for (const TermOrVar* tv : {&tp.subject, &tp.predicate, &tp.object}) {
    auto vi = VarIndexOf(ctx, *tv);
    if (!vi.has_value() || bound_vars[*vi]) ++score;
  }
  return score;
}

/// Greedy join order: repeatedly take the pattern with the most bound
/// components given the variables bound so far. `initially_bound` marks
/// variables already bound by an outer (base) solution.
std::vector<const TriplePatternAst*> OrderPatterns(
    const EvalContext& ctx, const std::vector<TriplePatternAst>& patterns,
    std::vector<bool> bound) {
  std::vector<const TriplePatternAst*> remaining;
  for (const auto& tp : patterns) remaining.push_back(&tp);
  std::vector<const TriplePatternAst*> ordered;
  while (!remaining.empty()) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      int score = BoundScore(ctx, *remaining[i], bound);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    const TriplePatternAst* chosen = remaining[best];
    remaining.erase(remaining.begin() + best);
    ordered.push_back(chosen);
    for (const TermOrVar* tv :
         {&chosen->subject, &chosen->predicate, &chosen->object}) {
      auto vi = VarIndexOf(ctx, *tv);
      if (vi.has_value()) bound[*vi] = true;
    }
  }
  return ordered;
}

/// Filters indexed by the variable they guard: slot -> the filters to check
/// when that variable binds (query order preserved). Built once per filter
/// scope, so the per-binding check below touches only the relevant filters
/// instead of rescanning every FILTER of the query.
using FiltersBySlot = std::vector<std::vector<const FilterAst*>>;

FiltersBySlot GroupFiltersBySlot(const EvalContext& ctx,
                                 const std::vector<FilterAst>& filters,
                                 size_t num_vars) {
  FiltersBySlot by_slot(num_vars);
  for (const FilterAst& f : filters) {
    auto it = ctx.var_index.find(f.var.name);
    if (it == ctx.var_index.end()) continue;  // Filter on unused var: ignore.
    by_slot[it->second].push_back(&f);
  }
  return by_slot;
}

bool FiltersPassFor(const FiltersBySlot& filters, const Binding& binding,
                    size_t just_bound) {
  if (!binding[just_bound].has_value()) return true;
  const Term& value = *binding[just_bound];
  for (const FilterAst* f : filters[just_bound]) {
    if (!CompareTerms(value, f->op, f->value)) return false;
  }
  return true;
}

/// Recursively matches patterns[pi..] extending `binding`; calls `emit` for
/// each complete solution. Returns false to stop early (LIMIT reached).
bool MatchPatterns(const EvalContext& ctx, const FiltersBySlot& filters,
                   const std::vector<const TriplePatternAst*>& patterns,
                   size_t pi, Binding* binding,
                   const std::function<bool(const Binding&)>& emit) {
  if (pi == patterns.size()) return emit(*binding);
  const TriplePatternAst& tp = *patterns[pi];

  // Resolve each component to a concrete TermId (constant / bound var) or
  // a wildcard with the variable index to bind.
  rdf::TriplePattern probe;
  std::optional<size_t> unbound[3];
  const TermOrVar* comps[3] = {&tp.subject, &tp.predicate, &tp.object};
  TermId* slots[3] = {&probe.subject, &probe.predicate, &probe.object};
  for (int i = 0; i < 3; ++i) {
    auto vi = VarIndexOf(ctx, *comps[i]);
    const Term* constant = nullptr;
    if (!vi.has_value()) {
      constant = &std::get<Term>(*comps[i]);
    } else if ((*binding)[*vi].has_value()) {
      constant = &*(*binding)[*vi];
    } else {
      unbound[i] = vi;
      continue;
    }
    auto id = ctx.dict->Lookup(*constant);
    if (!id.has_value()) return true;  // Constant absent: no matches here.
    *slots[i] = *id;
  }

  bool keep_going = true;
  ctx.store->ForEachMatch(probe, [&](const rdf::Triple& t) {
    TermId ids[3] = {t.subject, t.predicate, t.object};
    // Bind unbound variables, honoring repeated variables in the pattern.
    std::vector<std::pair<size_t, Term>> newly_bound;
    bool consistent = true;
    for (int i = 0; i < 3 && consistent; ++i) {
      if (!unbound[i].has_value()) continue;
      const size_t vi = *unbound[i];
      const Term& value = ctx.dict->term(ids[i]);
      if ((*binding)[vi].has_value()) {
        consistent = (*binding)[vi] == value;
      } else {
        // A variable may repeat within this same pattern.
        bool already = false;
        for (auto& [pvi, pval] : newly_bound) {
          if (pvi == vi) {
            already = true;
            consistent = (pval == value);
          }
        }
        if (!already) newly_bound.emplace_back(vi, value);
      }
    }
    if (!consistent) return true;
    for (auto& [vi, value] : newly_bound) {
      (*binding)[vi] = value;
      if (!FiltersPassFor(filters, *binding, vi)) {
        for (auto& [uvi, uval] : newly_bound) (*binding)[uvi].reset();
        return true;
      }
    }
    keep_going = MatchPatterns(ctx, filters, patterns, pi + 1, binding, emit);
    for (auto& [vi, value] : newly_bound) (*binding)[vi].reset();
    return keep_going;
  });
  return keep_going;
}

std::string RowKey(const std::vector<Term>& row) {
  std::string key;
  for (const Term& t : row) {
    key += t.ToNTriples();
    key += '\x1e';
  }
  return key;
}

}  // namespace

bool CompareTerms(const Term& lhs, CompareOp op, const Term& rhs) {
  const sim::TypedValue a = sim::ParseValue(lhs);
  const sim::TypedValue b = sim::ParseValue(rhs);
  int cmp = 0;
  if (a.is_numeric() && b.is_numeric()) {
    cmp = (a.real < b.real) ? -1 : (a.real > b.real ? 1 : 0);
  } else if (a.kind == sim::ValueKind::kDate &&
             b.kind == sim::ValueKind::kDate) {
    cmp = (a.date_days < b.date_days) ? -1
                                      : (a.date_days > b.date_days ? 1 : 0);
  } else {
    cmp = a.text.compare(b.text);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dictionary& dict,
                             const rdf::TripleStore& store) {
  EvalContext ctx;
  ctx.dict = &dict;
  ctx.store = &store;

  const std::vector<std::string> mentioned = query.MentionedVariables();
  for (size_t i = 0; i < mentioned.size(); ++i) {
    ctx.var_index.emplace(mentioned[i], i);
  }
  for (const std::string& v : query.projection) {
    // The aggregate alias is computed, not bound by the pattern.
    if (query.aggregate.has_value() && v == query.aggregate->alias) continue;
    if (!ctx.var_index.count(v)) {
      return Status::InvalidArgument("projected variable ?" + v +
                                     " not mentioned in WHERE");
    }
  }
  if (query.aggregate.has_value() && !query.aggregate->count_var.empty() &&
      !ctx.var_index.count(query.aggregate->count_var)) {
    return Status::InvalidArgument("counted variable ?" +
                                   query.aggregate->count_var +
                                   " not mentioned in WHERE");
  }

  QueryResult result;
  result.variables = query.projection.empty() ? mentioned : query.projection;
  std::vector<size_t> out_indices;
  if (!query.aggregate.has_value()) {
    for (const std::string& v : result.variables) {
      out_indices.push_back(ctx.var_index.at(v));
    }
  }

  const FiltersBySlot query_filters =
      GroupFiltersBySlot(ctx, query.filters, mentioned.size());

  // --- Phase 1: enumerate base solutions. ---
  std::vector<Binding> solutions;
  const bool simple = query.optionals.empty() && query.union_branches.empty();
  // Only a simple query without ORDER BY may stop at the limit while
  // enumerating; everything else post-processes.
  const bool early_limit =
      simple && query.limit.has_value() && !query.order_by && !query.distinct;

  auto collect = [&](const std::vector<TriplePatternAst>& patterns,
                     size_t cap) {
    const auto ordered =
        OrderPatterns(ctx, patterns, std::vector<bool>(mentioned.size()));
    Binding binding(mentioned.size());
    MatchPatterns(ctx, query_filters, ordered, 0, &binding,
                  [&](const Binding& b) {
                    solutions.push_back(b);
                    return solutions.size() < cap;
                  });
  };

  const size_t cap = early_limit ? *query.limit : SIZE_MAX;
  if (query.union_branches.empty()) {
    collect(query.where, cap);
  } else {
    for (const auto& branch : query.union_branches) {
      collect(branch, cap);
    }
  }

  // --- Phase 2: OPTIONAL blocks (left joins), in order. ---
  for (const OptionalBlock& block : query.optionals) {
    FiltersBySlot block_filters = query_filters;
    const FiltersBySlot extra =
        GroupFiltersBySlot(ctx, block.filters, mentioned.size());
    for (size_t i = 0; i < extra.size(); ++i) {
      block_filters[i].insert(block_filters[i].end(), extra[i].begin(),
                              extra[i].end());
    }
    std::vector<Binding> extended;
    for (Binding& base : solutions) {
      std::vector<bool> bound(mentioned.size(), false);
      for (size_t i = 0; i < base.size(); ++i) bound[i] = base[i].has_value();
      const auto ordered = OrderPatterns(ctx, block.patterns, bound);
      size_t before = extended.size();
      MatchPatterns(ctx, block_filters, ordered, 0, &base,
                    [&](const Binding& b) {
                      extended.push_back(b);
                      return true;
                    });
      if (extended.size() == before) {
        extended.push_back(base);  // Left join: keep the unextended row.
      }
    }
    solutions = std::move(extended);
  }

  // --- Phase 3a: aggregation (COUNT, optionally grouped). ---
  if (query.aggregate.has_value()) {
    const AggregateSpec& agg = *query.aggregate;
    const bool grouped = !agg.group_var.empty();
    const size_t group_idx =
        grouped ? ctx.var_index.at(agg.group_var) : 0;
    const bool count_all = agg.count_var.empty();
    const size_t count_idx =
        count_all ? 0 : ctx.var_index.at(agg.count_var);

    // Group key (serialized term, or one global group) -> (term, count).
    std::map<std::string, std::pair<Term, uint64_t>> groups;
    if (!grouped) groups[""] = {Term::Literal(""), 0};
    for (const Binding& b : solutions) {
      Term group_term = Term::Literal("");
      std::string key;
      if (grouped) {
        group_term = b[group_idx].value_or(Term::Literal(""));
        key = group_term.ToNTriples();
      }
      auto& slot = groups.emplace(key, std::make_pair(group_term, 0))
                       .first->second;
      if (count_all || b[count_idx].has_value()) ++slot.second;
    }
    for (const auto& [key, term_count] : groups) {
      std::vector<Term> row;
      if (grouped) row.push_back(term_count.first);
      row.push_back(Term::TypedLiteral(std::to_string(term_count.second),
                                       std::string(rdf::kXsdInteger)));
      result.rows.push_back(std::move(row));
    }
  } else {
    // --- Phase 3b: projection and DISTINCT. ---
    std::unordered_set<std::string> seen;
    for (const Binding& b : solutions) {
      std::vector<Term> row;
      row.reserve(out_indices.size());
      for (size_t vi : out_indices) {
        row.push_back(b[vi].value_or(Term::Literal("")));
      }
      if (query.distinct && !seen.insert(RowKey(row)).second) continue;
      result.rows.push_back(std::move(row));
    }
  }

  if (query.order_by.has_value()) {
    const auto& vars = result.variables;
    const auto it =
        std::find(vars.begin(), vars.end(), query.order_by->var.name);
    if (it == vars.end()) {
      return Status::InvalidArgument("ORDER BY variable ?" +
                                     query.order_by->var.name +
                                     " not in the result");
    }
    const size_t col = static_cast<size_t>(it - vars.begin());
    const bool desc = query.order_by->descending;
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [col, desc](const std::vector<Term>& a,
                                 const std::vector<Term>& b) {
                       return desc
                                  ? CompareTerms(a[col], CompareOp::kGt, b[col])
                                  : CompareTerms(a[col], CompareOp::kLt,
                                                 b[col]);
                     });
  }
  if (query.limit.has_value() && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
  }
  return result;
}

Result<QueryResult> Evaluate(const SelectQuery& query,
                             const rdf::Dataset& dataset) {
  return Evaluate(query, dataset.dict(), dataset.store());
}

Result<QueryResult> EvaluateQuery(std::string_view query_text,
                                  const rdf::Dataset& dataset) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, ParseQuery(query_text));
  return Evaluate(query, dataset);
}

Result<bool> Ask(const SelectQuery& query, const rdf::Dataset& dataset) {
  SelectQuery existential = query;
  existential.is_ask = false;
  existential.projection.clear();
  existential.order_by.reset();
  existential.limit = 1;
  ALEX_ASSIGN_OR_RETURN(QueryResult result, Evaluate(existential, dataset));
  return result.NumRows() > 0;
}

Result<bool> AskQuery(std::string_view query_text,
                      const rdf::Dataset& dataset) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, ParseQuery(query_text));
  return Ask(query, dataset);
}

}  // namespace alex::sparql
