#ifndef ALEX_FEDERATION_COMPILED_QUERY_H_
#define ALEX_FEDERATION_COMPILED_QUERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "rdf/term.h"
#include "sparql/ast.h"

namespace alex::fed {

/// A federated SELECT query compiled once and executable many times.
///
/// Compilation does everything that depends only on the query text, so the
/// per-execution hot path never touches strings:
///  - validation (no OPTIONAL/UNION; projected variables mentioned),
///  - greedy boundness ordering of the triple patterns,
///  - variable -> dense slot resolution: every variable becomes an index
///    into a flat slot array, so execution frames are `const Term*[slots]`
///    instead of string-keyed maps,
///  - per-slot filter lists, so checking the filters of a just-bound
///    variable no longer scans every FILTER of the query,
///  - projection slots and the ORDER BY column.
///
/// A CompiledQuery is immutable after Compile and holds no endpoint state,
/// so one plan is reusable across runs, engines, and endpoint stacks
/// (including concurrently: execution keeps all mutable state per call).
class CompiledQuery {
 public:
  /// One triple-pattern component: exactly one of `slot` (variable) or
  /// `constant` (index into constants()) is >= 0.
  struct Component {
    int32_t slot = -1;
    int32_t constant = -1;

    bool is_variable() const { return slot >= 0; }
  };

  /// One pattern in execution (greedy boundness) order. `where_index`
  /// points back at the source AST pattern, which source selection
  /// (QueryEndpoint::CanAnswer) still consumes.
  struct Pattern {
    Component comp[3];  // subject, predicate, object
    size_t where_index = 0;
  };

  /// Compiles a parsed query. Returns InvalidArgument for unsupported or
  /// ill-formed queries (OPTIONAL/UNION, unknown projected variable). An
  /// ORDER BY variable missing from the result is *not* a compile error:
  /// execution reports it after enumeration.
  static Result<CompiledQuery> Compile(const sparql::SelectQuery& query);

  /// Parses and compiles.
  static Result<CompiledQuery> CompileText(std::string_view query_text);

  /// The source query (owned copy; `Pattern::where_index` indexes into
  /// query().where).
  const sparql::SelectQuery& query() const { return query_; }

  /// Result column names (projection, or all mentioned variables).
  const std::vector<std::string>& variables() const { return variables_; }

  /// Number of variable slots (== MentionedVariables().size()).
  size_t num_slots() const { return slot_names_.size(); }
  const std::vector<std::string>& slot_names() const { return slot_names_; }

  /// Patterns in execution order.
  const std::vector<Pattern>& patterns() const { return patterns_; }

  /// Constant pool referenced by Component::constant.
  const rdf::Term& constant(int32_t index) const {
    return constants_[static_cast<size_t>(index)];
  }

  /// Filters guarding one slot (possibly empty). Checked when the slot
  /// binds, in query order.
  const std::vector<sparql::FilterAst>& filters_for_slot(size_t slot) const {
    return filters_by_slot_[slot];
  }

  /// Slot of each result column, or -1 for a column that can never bind
  /// (such a column is padded with an empty literal).
  const std::vector<int32_t>& projection_slots() const {
    return projection_slots_;
  }

  bool distinct() const { return query_.distinct; }
  const std::optional<size_t>& limit() const { return query_.limit; }

  bool has_order_by() const { return query_.order_by.has_value(); }
  /// False when ORDER BY names a variable outside the result; execution
  /// then fails after enumeration.
  bool order_by_valid() const { return order_col_ >= 0; }
  size_t order_col() const { return static_cast<size_t>(order_col_); }
  bool order_descending() const {
    return query_.order_by.has_value() && query_.order_by->descending;
  }

 private:
  CompiledQuery() = default;

  sparql::SelectQuery query_;
  std::vector<std::string> slot_names_;
  std::vector<std::string> variables_;
  std::vector<Pattern> patterns_;
  std::vector<rdf::Term> constants_;
  std::vector<std::vector<sparql::FilterAst>> filters_by_slot_;
  std::vector<int32_t> projection_slots_;
  int32_t order_col_ = -1;
};

/// Thread-safe memo of query text -> compiled plan, so a workload that
/// replays the same query strings (the simulation workloads, the benches,
/// any caller routing traffic through ExecuteText) compiles each distinct
/// query exactly once.
///
/// Metrics: fed.plan_cache_hits counts memo hits; compile time lands in the
/// fed.plan_compile_seconds histogram (recorded by Compile itself).
class PlanCache {
 public:
  /// `max_entries` bounds the memo; on overflow the whole memo is dropped
  /// (workloads have a bounded set of distinct query strings, so this is a
  /// safety valve, not a tuning knob).
  explicit PlanCache(size_t max_entries = 4096) : max_entries_(max_entries) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `query_text`, compiling (and caching) on
  /// first sight. Compile errors are returned and never cached.
  Result<std::shared_ptr<const CompiledQuery>> GetOrCompile(
      std::string_view query_text);

  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t max_entries_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledQuery>>
      plans_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_COMPILED_QUERY_H_
