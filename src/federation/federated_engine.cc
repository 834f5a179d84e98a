#include "federation/federated_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/trace.h"
#include "rdf/dictionary.h"

namespace alex::fed {
namespace {

using rdf::Term;
using sparql::CompareTerms;
using sparql::SelectQuery;
using sparql::TriplePatternAst;

/// Execution of one CompiledQuery: dense `const Term*` slot frames, sameAs
/// expansion through the LinkIndex id view, per-slot filter lists, link
/// provenance as id pairs (materialized to strings only at emit), and
/// DISTINCT keyed on interned id tuples. Patterns are enumerated depth
/// first in plan order; for each, endpoints are tried left then right and
/// substitutions in co-referent insertion order, so the probe sequence
/// depends only on the query, the link index and the rows the endpoints
/// return.
class CompiledExecution {
 public:
  CompiledExecution(const QueryEndpoint* left, const QueryEndpoint* right,
                    const LinkIndex* links, const CompiledQuery& plan)
      : left_(left), right_(right), links_(links), plan_(plan) {}

  Result<FederatedResult> Run();

 private:
  /// A candidate substitution for one pattern component. `link_left` is
  /// kInvalidIriId when no sameAs link was crossed.
  struct Subst {
    const Term* term = nullptr;
    LinkIndex::IriId link_left = LinkIndex::kInvalidIriId;
    LinkIndex::IriId link_right = LinkIndex::kInvalidIriId;
  };

  void ExpandForEndpoint(const Term& term, const QueryEndpoint* target,
                         std::vector<Subst>* out) const;

  bool SlotFiltersPass(int32_t slot) const;

  bool MatchFrom(size_t pi);

  bool MatchAtEndpoint(size_t pi, const QueryEndpoint* target);

  bool EmitSolution();

  void RecordProbeFailure(const QueryEndpoint* target, const Status& status);

  const QueryEndpoint* left_;
  const QueryEndpoint* right_;
  const LinkIndex* links_;
  const CompiledQuery& plan_;

  /// Current binding of each variable slot (nullptr = unbound). Pointees
  /// are owned by the plan's constant pool, the LinkIndex term arena, or
  /// the probe callback (valid for the duration of the recursive call).
  std::vector<const Term*> slots_;
  /// sameAs links crossed on the current enumeration path, as id pairs.
  std::vector<std::pair<LinkIndex::IriId, LinkIndex::IriId>> links_stack_;
  /// Per-pattern substitution scratch, reused across the enumeration so the
  /// inner loops do not allocate.
  std::vector<std::array<std::vector<Subst>, 3>> scratch_;
  FederatedResult result_;
  rdf::Dictionary row_dict_;  // Interns emitted terms for DISTINCT keys.
  std::unordered_set<std::string> distinct_seen_;
};

void CompiledExecution::ExpandForEndpoint(const Term& term,
                                          const QueryEndpoint* target,
                                          std::vector<Subst>* out) const {
  out->clear();
  out->push_back(Subst{&term});
  if (!term.is_iri()) return;
  const LinkIndex::IriId id = links_->IdOf(term.value);
  if (id == LinkIndex::kInvalidIriId) return;
  if (target == right_) {
    for (LinkIndex::IriId rid : links_->RightIdsFor(id)) {
      out->push_back(Subst{&links_->TermOf(rid), id, rid});
    }
  } else {
    for (LinkIndex::IriId lid : links_->LeftIdsFor(id)) {
      out->push_back(Subst{&links_->TermOf(lid), lid, id});
    }
  }
}

bool CompiledExecution::SlotFiltersPass(int32_t slot) const {
  const Term& value = *slots_[slot];
  for (const sparql::FilterAst& f :
       plan_.filters_for_slot(static_cast<size_t>(slot))) {
    if (!CompareTerms(value, f.op, f.value)) return false;
  }
  return true;
}

bool CompiledExecution::EmitSolution() {
  const std::vector<int32_t>& proj = plan_.projection_slots();
  if (plan_.distinct()) {
    std::string key;
    key.reserve(proj.size() * sizeof(rdf::TermId));
    for (int32_t slot : proj) {
      const Term* t = slot >= 0 ? slots_[slot] : nullptr;
      const rdf::TermId id =
          t != nullptr ? row_dict_.Intern(*t) : row_dict_.InternLiteral("");
      char bytes[sizeof(rdf::TermId)];
      std::memcpy(bytes, &id, sizeof(bytes));
      key.append(bytes, sizeof(bytes));
    }
    if (!distinct_seen_.insert(std::move(key)).second) return true;
  }
  ProvenancedRow row;
  row.links_used.reserve(links_stack_.size());
  for (const auto& [lid, rid] : links_stack_) {
    row.links_used.push_back(SameAsLink{links_->IriOf(lid), links_->IriOf(rid)});
  }
  row.values.reserve(proj.size());
  for (int32_t slot : proj) {
    const Term* t = slot >= 0 ? slots_[slot] : nullptr;
    row.values.push_back(t != nullptr ? *t : Term::Literal(""));
  }
  result_.rows.push_back(std::move(row));
  return !(plan_.limit().has_value() && !plan_.has_order_by() &&
           result_.rows.size() >= *plan_.limit());
}

void CompiledExecution::RecordProbeFailure(const QueryEndpoint* target,
                                           const Status& status) {
  result_.degraded = true;
  const std::string& name = target->name();
  for (EndpointError& err : result_.errors) {
    if (err.endpoint == name) {
      ++err.failed_probes;
      return;
    }
  }
  EndpointError err;
  err.endpoint = name;
  err.code = status.code();
  err.message = status.message();
  err.failed_probes = 1;
  result_.errors.push_back(std::move(err));
}

bool CompiledExecution::MatchAtEndpoint(size_t pi,
                                        const QueryEndpoint* target) {
  const CompiledQuery::Pattern& cp = plan_.patterns()[pi];
  std::array<std::vector<Subst>, 3>& subs = scratch_[pi];

  // Per component: either a substitution list (constant / bound slot) or
  // the slot to bind.
  int32_t to_bind[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    const CompiledQuery::Component& comp = cp.comp[i];
    const Term* bound;
    if (comp.is_variable()) {
      bound = slots_[comp.slot];
      if (bound == nullptr) {
        to_bind[i] = comp.slot;
        continue;
      }
    } else {
      bound = &plan_.constant(comp.constant);
    }
    if (i == 1) {
      // Predicates are never sameAs-expanded.
      subs[i].clear();
      subs[i].push_back(Subst{bound});
    } else {
      ExpandForEndpoint(*bound, target, &subs[i]);
    }
  }

  const size_t ns = to_bind[0] >= 0 ? 1 : subs[0].size();
  const size_t np = to_bind[1] >= 0 ? 1 : subs[1].size();
  const size_t no = to_bind[2] >= 0 ? 1 : subs[2].size();
  for (size_t a = 0; a < ns; ++a) {
    for (size_t b = 0; b < np; ++b) {
      for (size_t c = 0; c < no; ++c) {
        PatternProbe probe;
        const Term** probe_slots[3] = {&probe.subject, &probe.predicate,
                                       &probe.object};
        const size_t idx[3] = {a, b, c};
        size_t links_added = 0;
        for (int i = 0; i < 3; ++i) {
          if (to_bind[i] >= 0) continue;
          const Subst& sub = subs[i][idx[i]];
          *probe_slots[i] = sub.term;
          if (sub.link_left != LinkIndex::kInvalidIriId) {
            links_stack_.emplace_back(sub.link_left, sub.link_right);
            ++links_added;
          }
        }
        bool keep_going = true;
        // One span per issued probe, nesting with the recursive enumeration.
        ALEX_TRACE_SPAN_VAR(probe_span, "federation", "pattern_probe");
        probe_span.AddArg("pattern", pi);
        probe_span.AddArg("endpoint", std::string_view(target->name()));
        if (obs::ActiveQueryStats* stats = obs::CurrentQueryStats()) {
          ++stats->probes;
        }
        const Status st = target->Probe(
            probe,
            [&](const Term* s, const Term* p, const Term* o) {
              const Term* values[3] = {s, p, o};
              int32_t bound_here[3];
              int num_bound = 0;
              bool consistent = true;
              for (int i = 0; i < 3 && consistent; ++i) {
                if (to_bind[i] < 0) continue;
                const int32_t slot = to_bind[i];
                if (slots_[slot] != nullptr) {
                  // Repeated variable bound earlier in this same pattern.
                  consistent = (*slots_[slot] == *values[i]);
                } else {
                  slots_[slot] = values[i];
                  bound_here[num_bound++] = slot;
                  consistent = SlotFiltersPass(slot);
                }
              }
              if (consistent) keep_going = MatchFrom(pi + 1);
              for (int k = 0; k < num_bound; ++k) slots_[bound_here[k]] = nullptr;
              return keep_going;
            });
        probe_span.AddArg("ok", st.ok());
        if (!st.ok()) RecordProbeFailure(target, st);
        for (size_t k = 0; k < links_added; ++k) links_stack_.pop_back();
        if (!keep_going) return false;
      }
    }
  }
  return true;
}

bool CompiledExecution::MatchFrom(size_t pi) {
  if (pi == plan_.patterns().size()) return EmitSolution();
  const TriplePatternAst& tp =
      plan_.query().where[plan_.patterns()[pi].where_index];
  for (const QueryEndpoint* target : {left_, right_}) {
    if (!target->CanAnswer(tp)) continue;
    if (!MatchAtEndpoint(pi, target)) return false;
  }
  return true;
}

Result<FederatedResult> CompiledExecution::Run() {
  result_.variables = plan_.variables();
  slots_.assign(plan_.num_slots(), nullptr);
  scratch_.resize(plan_.patterns().size());

  MatchFrom(0);

  if (plan_.has_order_by()) {
    if (!plan_.order_by_valid()) {
      return Status::InvalidArgument("ORDER BY variable ?" +
                                     plan_.query().order_by->var.name +
                                     " not in the result");
    }
    const size_t col = plan_.order_col();
    const bool desc = plan_.order_descending();
    std::stable_sort(
        result_.rows.begin(), result_.rows.end(),
        [col, desc](const ProvenancedRow& a, const ProvenancedRow& b) {
          return desc ? CompareTerms(a.values[col], sparql::CompareOp::kGt,
                                     b.values[col])
                      : CompareTerms(a.values[col], sparql::CompareOp::kLt,
                                     b.values[col]);
        });
    if (plan_.limit().has_value() && result_.rows.size() > *plan_.limit()) {
      result_.rows.resize(*plan_.limit());
    }
  }
  return std::move(result_);
}

}  // namespace

FederatedEngine::FederatedEngine(const QueryEndpoint* left,
                                 const QueryEndpoint* right,
                                 const LinkIndex* links)
    : left_(left), right_(right), links_(links) {}

template <typename Fn>
Result<FederatedResult> FederatedEngine::Instrumented(Fn&& run) const {
  // Declared FIRST so it destructs LAST: whatever the spans and stats scope
  // below leave behind, the worker thread's ambient observability state is
  // restored before it returns to a pool — queries reusing the thread start
  // from a clean context instead of inheriting this query's trace id or a
  // dangling tally pointer.
  obs::ThreadStateGuard thread_state_guard;
  // Root of the query's causal tree: every probe and cache lookup below
  // inherits this span's trace id through the thread-local context.
  ALEX_TRACE_ROOT_SPAN_VAR(query_span, "federation",
                           "FederatedEngine::Execute");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& queries = registry.counter("fed.queries");
  static obs::Counter& rows = registry.counter("fed.rows");
  static obs::Counter& links_crossed = registry.counter("fed.links_crossed");
  static obs::Counter& degraded_queries =
      registry.counter("fed.degraded_queries");
  static obs::Counter& endpoint_errors =
      registry.counter("fed.endpoint_errors");
  static obs::Histogram& query_seconds =
      registry.histogram("fed.query_seconds");

  queries.Add(1);
  obs::ActiveQueryStats active;
  obs::QueryStatsScope stats_scope(&active);
  const auto start = std::chrono::steady_clock::now();
  Result<FederatedResult> result = run();
  const double latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  query_seconds.Observe(latency_seconds);

  obs::QueryStats record;
  record.trace_id = query_span.trace_id();
  record.latency_seconds = latency_seconds;
  record.probes = active.probes;
  record.probe_cache_hits = active.probe_cache_hits;
  record.probe_cache_misses = active.probe_cache_misses;
  record.failed = !result.ok();

  if (result.ok()) {
    rows.Add(result->rows.size());
    size_t crossed = 0;
    for (const ProvenancedRow& row : result->rows) {
      crossed += row.links_used.size();
    }
    links_crossed.Add(crossed);
    if (result->degraded) degraded_queries.Add(1);
    size_t failed = 0;
    for (const EndpointError& err : result->errors) {
      failed += err.failed_probes;
    }
    endpoint_errors.Add(failed);
    record.rows = result->rows.size();
    record.degraded = result->degraded;
  }
  obs::QueryLog::Global().Record(record);

  query_span.AddArg("probes", active.probes);
  query_span.AddArg("rows", record.rows);
  query_span.AddArg("cache_hits", active.probe_cache_hits);
  query_span.AddArg("degraded", record.degraded);
  query_span.AddArg("ok", result.ok());
  return result;
}

Result<FederatedResult> FederatedEngine::Execute(
    const SelectQuery& query) const {
  // Compile inside the instrumented scope so invalid queries count against
  // fed.queries.
  return Instrumented([&]() -> Result<FederatedResult> {
    ALEX_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Compile(query));
    return CompiledExecution(left_, right_, links_, plan).Run();
  });
}

Result<FederatedResult> FederatedEngine::Execute(
    const CompiledQuery& plan) const {
  return Instrumented(
      [&] { return CompiledExecution(left_, right_, links_, plan).Run(); });
}

Result<FederatedResult> FederatedEngine::ExecuteText(
    std::string_view query_text) const {
  Result<std::shared_ptr<const CompiledQuery>> plan =
      plan_cache_.GetOrCompile(query_text);
  if (!plan.ok()) return plan.status();
  return Execute(**plan);
}

}  // namespace alex::fed
