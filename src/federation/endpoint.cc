#include "federation/endpoint.h"

namespace alex::fed {

Endpoint::Endpoint(const rdf::Dataset* dataset) : dataset_(dataset) {
  for (rdf::TermId p : dataset_->store().DistinctPredicates()) {
    predicates_.insert(dataset_->dict().term(p).value);
  }
}

bool Endpoint::HasPredicate(const std::string& predicate_iri) const {
  return predicates_.count(predicate_iri) > 0;
}

bool Endpoint::CanAnswer(const sparql::TriplePatternAst& pattern) const {
  if (sparql::IsVariable(pattern.predicate)) return true;
  const rdf::Term& p = std::get<rdf::Term>(pattern.predicate);
  return p.is_iri() && HasPredicate(p.value);
}

Status Endpoint::Probe(const PatternProbe& probe, const ProbeRowFn& fn) const {
  const rdf::Term* const comps[3] = {probe.subject, probe.predicate,
                                     probe.object};
  rdf::TriplePattern pattern;
  rdf::TermId* slots[3] = {&pattern.subject, &pattern.predicate,
                           &pattern.object};
  for (int i = 0; i < 3; ++i) {
    if (comps[i] == nullptr) continue;
    auto id = dataset_->dict().Lookup(*comps[i]);
    if (!id.has_value()) return Status::OK();  // Unknown term: no matches.
    *slots[i] = *id;
  }
  const rdf::Dictionary& dict = dataset_->dict();
  dataset_->store().ForEachMatch(pattern, [&](const rdf::Triple& t) {
    const rdf::Term* s = probe.subject ? nullptr : &dict.term(t.subject);
    const rdf::Term* p = probe.predicate ? nullptr : &dict.term(t.predicate);
    const rdf::Term* o = probe.object ? nullptr : &dict.term(t.object);
    return fn(s, p, o);
  });
  return Status::OK();
}

}  // namespace alex::fed
