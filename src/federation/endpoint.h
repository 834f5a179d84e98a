#ifndef ALEX_FEDERATION_ENDPOINT_H_
#define ALEX_FEDERATION_ENDPOINT_H_

#include <functional>
#include <string>
#include <unordered_set>

#include "common/result.h"
#include "rdf/dataset.h"
#include "sparql/ast.h"
#include "sparql/evaluator.h"

namespace alex::fed {

/// One concrete triple-pattern probe — the remote-call unit of federated
/// execution (one bound-join step at one endpoint). Bound components point
/// at terms owned by the caller (valid for the duration of the call);
/// nullptr marks a wildcard.
struct PatternProbe {
  const rdf::Term* subject = nullptr;
  const rdf::Term* predicate = nullptr;
  const rdf::Term* object = nullptr;
};

/// Receives one match of a probe. Slots that were bound in the probe are
/// null (the caller already holds those terms); unbound slots point at the
/// endpoint's term for that component, valid only during the call. Return
/// false to stop enumeration early.
using ProbeRowFn = std::function<bool(
    const rdf::Term* s, const rdf::Term* p, const rdf::Term* o)>;

/// A federation member as the engine sees it: source-selection metadata
/// plus a fallible triple-pattern probe. The stack behind it is the
/// in-process Endpoint below, optionally fronted by a CachingEndpoint; the
/// interface stays abstract so tests can substitute a fake that fails.
class QueryEndpoint {
 public:
  virtual ~QueryEndpoint() = default;

  virtual const std::string& name() const = 0;

  /// True if the pattern could match here (constant predicate present, or
  /// variable predicate). Catalog metadata, not a remote call: source
  /// selection stays infallible even when probing is faulty.
  virtual bool CanAnswer(const sparql::TriplePatternAst& pattern) const = 0;

  /// Streams every match of `probe` through `fn`. Returns non-OK when the
  /// endpoint fails; a probe mentioning terms unknown to this endpoint is
  /// OK with zero matches.
  virtual Status Probe(const PatternProbe& probe,
                       const ProbeRowFn& fn) const = 0;
};

/// Wraps one Dataset as a queryable federation member (the role a remote
/// SPARQL endpoint plays for FedX in the paper).
///
/// Source selection uses predicate membership, the same signal FedX obtains
/// with SPARQL ASK probes: a triple pattern is routed to an endpoint only if
/// the endpoint can possibly answer it.
class Endpoint final : public QueryEndpoint {
 public:
  /// Does not take ownership; `dataset` must outlive the endpoint.
  explicit Endpoint(const rdf::Dataset* dataset);

  const std::string& name() const override { return dataset_->name(); }
  const rdf::Dataset& dataset() const { return *dataset_; }

  /// True if any triple uses this predicate IRI (ASK-style probe).
  bool HasPredicate(const std::string& predicate_iri) const;

  bool CanAnswer(const sparql::TriplePatternAst& pattern) const override;

  /// In-process probe: dictionary lookups plus an index scan. Always OK.
  Status Probe(const PatternProbe& probe, const ProbeRowFn& fn) const override;

 private:
  const rdf::Dataset* dataset_;
  std::unordered_set<std::string> predicates_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_ENDPOINT_H_
