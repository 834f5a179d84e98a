#include "federation/compiled_query.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "sparql/parser.h"

namespace alex::fed {

using sparql::IsVariable;
using sparql::SelectQuery;
using sparql::TermOrVar;
using sparql::TriplePatternAst;

Result<CompiledQuery> CompiledQuery::Compile(const SelectQuery& query) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& compile_seconds =
      registry.histogram("fed.plan_compile_seconds");
  obs::ScopedTimer timer(compile_seconds);

  if (!query.optionals.empty() || !query.union_branches.empty()) {
    return Status::InvalidArgument(
        "OPTIONAL/UNION are not supported in federated queries");
  }

  CompiledQuery plan;
  plan.query_ = query;

  plan.slot_names_ = plan.query_.MentionedVariables();
  std::unordered_map<std::string, int32_t> slot_of;
  for (size_t i = 0; i < plan.slot_names_.size(); ++i) {
    slot_of.emplace(plan.slot_names_[i], static_cast<int32_t>(i));
  }
  for (const std::string& v : plan.query_.projection) {
    if (!slot_of.count(v)) {
      return Status::InvalidArgument("projected variable ?" + v +
                                     " not mentioned in WHERE");
    }
  }
  plan.variables_ =
      plan.query_.projection.empty() ? plan.slot_names_ : plan.query_.projection;
  for (const std::string& v : plan.variables_) {
    auto it = slot_of.find(v);
    plan.projection_slots_.push_back(it == slot_of.end() ? -1 : it->second);
  }

  // Greedy boundness ordering, done at compile time: it depends only on
  // which components are constants, never on runtime values.
  std::vector<size_t> remaining;
  for (size_t i = 0; i < plan.query_.where.size(); ++i) remaining.push_back(i);
  std::unordered_set<std::string> bound;
  auto score = [&bound](const TriplePatternAst& tp) {
    int s = 0;
    for (const TermOrVar* tv : {&tp.subject, &tp.predicate, &tp.object}) {
      if (!IsVariable(*tv) ||
          bound.count(std::get<sparql::Variable>(*tv).name)) {
        ++s;
      }
    }
    return s;
  };
  std::vector<size_t> ordered;
  while (!remaining.empty()) {
    size_t best = 0;
    int best_score = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const int s = score(plan.query_.where[remaining[i]]);
      if (s > best_score) {
        best_score = s;
        best = i;
      }
    }
    const size_t chosen = remaining[best];
    remaining.erase(remaining.begin() + best);
    ordered.push_back(chosen);
    const TriplePatternAst& tp = plan.query_.where[chosen];
    for (const TermOrVar* tv : {&tp.subject, &tp.predicate, &tp.object}) {
      if (IsVariable(*tv)) bound.insert(std::get<sparql::Variable>(*tv).name);
    }
  }

  // Resolve components to slots / constant-pool indices.
  for (size_t wi : ordered) {
    const TriplePatternAst& tp = plan.query_.where[wi];
    Pattern pattern;
    pattern.where_index = wi;
    const TermOrVar* comps[3] = {&tp.subject, &tp.predicate, &tp.object};
    for (int i = 0; i < 3; ++i) {
      if (IsVariable(*comps[i])) {
        pattern.comp[i].slot =
            slot_of.at(std::get<sparql::Variable>(*comps[i]).name);
      } else {
        pattern.comp[i].constant = static_cast<int32_t>(plan.constants_.size());
        plan.constants_.push_back(std::get<rdf::Term>(*comps[i]));
      }
    }
    plan.patterns_.push_back(pattern);
  }

  // Per-slot filter lists, preserving query order within each slot.
  // Filters on variables not mentioned anywhere are dropped: such a
  // variable never binds, so its filters never fire.
  plan.filters_by_slot_.resize(plan.slot_names_.size());
  for (const sparql::FilterAst& f : plan.query_.filters) {
    auto it = slot_of.find(f.var.name);
    if (it == slot_of.end()) continue;
    plan.filters_by_slot_[static_cast<size_t>(it->second)].push_back(f);
  }

  if (plan.query_.order_by.has_value()) {
    const auto it = std::find(plan.variables_.begin(), plan.variables_.end(),
                              plan.query_.order_by->var.name);
    plan.order_col_ =
        it == plan.variables_.end()
            ? -1
            : static_cast<int32_t>(it - plan.variables_.begin());
  }
  return plan;
}

Result<CompiledQuery> CompiledQuery::CompileText(std::string_view query_text) {
  ALEX_ASSIGN_OR_RETURN(SelectQuery query, sparql::ParseQuery(query_text));
  return Compile(query);
}

Result<std::shared_ptr<const CompiledQuery>> PlanCache::GetOrCompile(
    std::string_view query_text) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("fed.plan_cache_hits");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(std::string(query_text));
    if (it != plans_.end()) {
      hits.Add(1);
      return it->second;
    }
  }
  // Compile outside the lock: compilation is the expensive part, and two
  // threads racing on the same new text just produce identical plans (the
  // second insert is a no-op).
  Result<CompiledQuery> compiled = CompiledQuery::CompileText(query_text);
  if (!compiled.ok()) return compiled.status();
  auto shared =
      std::make_shared<const CompiledQuery>(std::move(compiled).value());
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.size() >= max_entries_) plans_.clear();
  auto [it, inserted] = plans_.emplace(std::string(query_text), shared);
  return it->second;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace alex::fed
