// Degradation tests for the federation stack, over a deterministic failing
// fake endpoint (fixed call ordinals or a fixed predicate fail; no RNG, no
// clock), plus golden digests of the healthy stack's probe-cache states.
// The invariants under test:
//
//   - a failed probe leaks no rows;
//   - a degraded result is a subset of the healthy result, never
//     fabricated, and carries per-endpoint error detail;
//   - provenance on surviving rows still refers only to real links;
//   - uncached, cold and warm probe caches give the same answers.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "obs/metrics.h"

namespace alex::fed {
namespace {

using rdf::Term;

/// Deterministic failing endpoint: forwards every probe to `inner` except
/// those whose call ordinal (0-based, counted per instance) is in
/// `fail_calls`, or whose bound predicate is `fail_predicate`. A failed
/// probe returns kUnavailable before streaming any row. No RNG and no
/// clock: the same query over a fresh instance fails the same probes.
class FailingEndpoint final : public QueryEndpoint {
 public:
  FailingEndpoint(const QueryEndpoint* inner, std::set<size_t> fail_calls,
                  std::string fail_predicate = "")
      : inner_(inner),
        fail_calls_(std::move(fail_calls)),
        fail_predicate_(std::move(fail_predicate)) {}

  const std::string& name() const override { return inner_->name(); }
  bool CanAnswer(const sparql::TriplePatternAst& p) const override {
    return inner_->CanAnswer(p);
  }
  Status Probe(const PatternProbe& probe,
               const ProbeRowFn& fn) const override {
    const size_t call = calls_++;
    const bool predicate_fails = !fail_predicate_.empty() &&
                                 probe.predicate != nullptr &&
                                 probe.predicate->value == fail_predicate_;
    if (fail_calls_.count(call) > 0 || predicate_fails) {
      return Status::Unavailable(name() + " unavailable at call " +
                                 std::to_string(call));
    }
    return inner_->Probe(probe, fn);
  }

 private:
  const QueryEndpoint* inner_;
  std::set<size_t> fail_calls_;
  std::string fail_predicate_;
  mutable size_t calls_ = 0;
};

// A query whose healthy answer spans both endpoints: one left fact plus two
// right facts reachable only through the sameAs link.
constexpr char kSpanningQuery[] =
    "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";
constexpr char kJoinQuery[] =
    "SELECT ?who ?o WHERE { ?who <http://l/worksFor> ?org . ?org ?p ?o . }";
constexpr char kBoundPredicateQuery[] =
    "SELECT ?who ?hq WHERE { ?who <http://l/worksFor> ?org . "
    "?org <http://r/hq> ?hq . }";

/// Which probes fail on each side of the federation.
struct FailureCase {
  std::set<size_t> left_calls;
  std::string left_predicate;
  std::set<size_t> right_calls;
  std::string right_predicate;
};

/// Full observable state of a result, for equivalence and golden checks:
/// row values, link provenance, degraded flag, per-endpoint error detail.
std::string ResultDigest(const Result<FederatedResult>& r) {
  if (!r.ok()) {
    return "error:" + std::to_string(static_cast<int>(r.status().code())) +
           ":" + std::string(r.status().message());
  }
  std::string d = r->degraded ? "degraded|" : "ok|";
  for (const EndpointError& e : r->errors) {
    d += e.endpoint + ":" + std::to_string(static_cast<int>(e.code)) + ":" +
         std::to_string(e.failed_probes) + ";";
  }
  for (const ProvenancedRow& row : r->rows) {
    d += "row:";
    for (const Term& t : row.values) d += t.ToNTriples() + "\x1e";
    for (const SameAsLink& l : row.links_used) {
      d += l.left_iri + "->" + l.right_iri + "\x1f";
    }
  }
  return d;
}

/// A two-endpoint federation over a small HR/companies pair. The degraded
/// path: a failed probe drops that endpoint's contribution, records the
/// error, and lets rows from the surviving endpoint through. The cache
/// states: uncached, cold and warm probe caches give the same answers.
class FederationFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
    left_.AddLiteralTriple("http://l/acme", "http://l/name",
                           Term::Literal("Acme"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                            Term::Literal("Belcaster"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("Acme Corporation"));
    links_.Add("http://l/acme", "http://r/acme-corp");
    left_ep_ = std::make_unique<Endpoint>(&left_);
    right_ep_ = std::make_unique<Endpoint>(&right_);
  }

  /// Runs `query` over fresh failing endpoints, optionally behind a cold
  /// probe cache.
  Result<FederatedResult> Run(const std::string& query,
                              const FailureCase& c, bool with_cache = false) {
    FailingEndpoint left(left_ep_.get(), c.left_calls, c.left_predicate);
    FailingEndpoint right(right_ep_.get(), c.right_calls, c.right_predicate);
    CachingEndpoint cached_left(&left);
    CachingEndpoint cached_right(&right);
    FederatedEngine engine(
        with_cache ? static_cast<const QueryEndpoint*>(&cached_left) : &left,
        with_cache ? static_cast<const QueryEndpoint*>(&cached_right) : &right,
        &links_);
    return engine.ExecuteText(query);
  }

  FederatedResult HealthyResult(const std::string& query) {
    FederatedEngine plain(left_ep_.get(), right_ep_.get(), &links_);
    auto r = plain.ExecuteText(query);
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  }

  static bool IsSubset(const std::vector<ProvenancedRow>& small,
                       const std::vector<ProvenancedRow>& big) {
    return std::all_of(small.begin(), small.end(), [&](const auto& row) {
      return std::any_of(big.begin(), big.end(), [&](const auto& candidate) {
        return row.values == candidate.values;
      });
    });
  }

  /// Failure placements covering both sides, single and repeated call
  /// ordinals, and a bound predicate.
  static std::vector<FailureCase> Cases() {
    return {
        {{}, "", {0}, ""},
        {{}, "", {0, 1}, ""},
        {{0}, "", {}, ""},
        {{1}, "", {1}, ""},
        {{}, "", {}, "http://r/hq"},
        {{}, "http://l/worksFor", {}, ""},
    };
  }

  rdf::Dataset left_{"hr"};
  rdf::Dataset right_{"companies"};
  LinkIndex links_;
  std::unique_ptr<Endpoint> left_ep_;
  std::unique_ptr<Endpoint> right_ep_;
};

TEST_F(FederationFaultsTest, FailedProbeLeaksNoRows) {
  FailingEndpoint failing(right_ep_.get(), {0});
  PatternProbe probe;  // All wildcards: would match every right triple.
  size_t rows = 0;
  const Status st =
      failing.Probe(probe, [&](const Term*, const Term*, const Term*) {
        ++rows;
        return true;
      });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rows, 0u);
  // The next call is not in the failure set and streams all of them.
  EXPECT_TRUE(
      failing
          .Probe(probe,
                 [&](const Term*, const Term*, const Term*) {
                   ++rows;
                   return true;
                 })
          .ok());
  EXPECT_EQ(rows, 2u);
}

TEST_F(FederationFaultsTest, OneEndpointDownYieldsDegradedPartialResult) {
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const FederatedResult healthy = HealthyResult(kSpanningQuery);
  // The spanning query probes the right endpoint twice (once per sameAs
  // substitution of <http://l/acme>); both fail.
  auto r = Run(kSpanningQuery, {{}, "", {0, 1}, ""});
  // Never a whole-query failure: the surviving endpoint's rows come back.
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->degraded);
  EXPECT_GT(r->NumRows(), 0u);                      // Left fact survives.
  EXPECT_LT(r->NumRows(), healthy.NumRows());       // Right facts lost.
  EXPECT_TRUE(IsSubset(r->rows, healthy.rows));     // Nothing fabricated.
  ASSERT_EQ(r->errors.size(), 1u);
  const EndpointError& err = r->errors.front();
  EXPECT_EQ(err.endpoint, "companies");
  EXPECT_EQ(err.code, StatusCode::kUnavailable);
  EXPECT_EQ(err.message, "companies unavailable at call 0");  // The first.
  EXPECT_EQ(err.failed_probes, 2u);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("fed.degraded_queries"), 1u);
  EXPECT_GE(delta.counters.at("fed.endpoint_errors"), 2u);
}

TEST_F(FederationFaultsTest, DegradedRowsAreSubsetWithRealProvenance) {
  for (const char* query : {kSpanningQuery, kJoinQuery, kBoundPredicateQuery}) {
    const FederatedResult healthy = HealthyResult(query);
    for (const FailureCase& c : Cases()) {
      auto r = Run(query, c);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(IsSubset(r->rows, healthy.rows)) << query;
      for (const ProvenancedRow& row : r->rows) {
        for (const SameAsLink& link : row.links_used) {
          EXPECT_TRUE(links_.Contains(link.left_iri, link.right_iri))
              << link.left_iri << " -> " << link.right_iri;
        }
      }
    }
  }
}

TEST_F(FederationFaultsTest, FailingStacksMatchGoldens) {
  // Digests are FNV-1a (core::ckpt::Checksum) of ResultDigest(), one per
  // failure case and query. They were captured at commit 5ab12c7, whose
  // endpoint stack still had a retry/circuit-breaker tier and whose engine
  // had a query deadline; they can only be re-verified, not regenerated.
  // A cold probe cache in front forwards the same probe sequence, so the
  // same probes fail and the digest is the same.
  const std::vector<std::string> queries = {kSpanningQuery, kJoinQuery,
                                            kBoundPredicateQuery};
  const std::vector<FailureCase> cases = Cases();
  const uint64_t golden[6][3] = {
      {0x401ca13da1d21782ull, 0x229f0d74c2064380ull, 0xde9d120060a3ab8dull},
      {0x88496eb4611c334dull, 0x5a8504f4a4a8ce9cull, 0xd1420bc66d6ae30full},
      {0xbe63cbf8c5804d13ull, 0xb2ad7b6d2f4f09a5ull, 0xb2ad7b6d2f4f09a5ull},
      {0xe99aa95dba1b8a64ull, 0x4d5602b924c078b8ull, 0xd13e83c66d67c620ull},
      {0x3145369e6b42c7b9ull, 0xe988e0a1aeab4433ull, 0xd1420bc66d6ae30full},
      {0x3145369e6b42c7b9ull, 0xb2ad7b6d2f4f09a5ull, 0xb2ad7b6d2f4f09a5ull}};
  ASSERT_EQ(cases.size(), 6u);
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string uncached = ResultDigest(Run(queries[qi], cases[ci]));
      const std::string cache_cold =
          ResultDigest(Run(queries[qi], cases[ci], /*with_cache=*/true));
      EXPECT_EQ(core::ckpt::Checksum(uncached), golden[ci][qi])
          << "case " << ci << ": " << queries[qi];
      EXPECT_EQ(uncached, cache_cold) << "case " << ci << ": " << queries[qi];
    }
  }
}

TEST_F(FederationFaultsTest, HealthyStackCacheStatesAgreeWithGoldens) {
  // The uncached engine, the engine over a cold probe cache, and the engine
  // over a warm probe cache must be bit-identical, and all must match the
  // golden digest. These goldens were captured before a second,
  // string-frame execution path was deleted; they too can only be
  // re-verified.
  const CachingEndpoint::EpochFn epoch = [this] { return links_.epoch(); };
  CachingEndpoint cached_left(left_ep_.get(), ProbeCacheConfig(), epoch);
  CachingEndpoint cached_right(right_ep_.get(), ProbeCacheConfig(), epoch);
  FederatedEngine engine(left_ep_.get(), right_ep_.get(), &links_);
  FederatedEngine caching_engine(&cached_left, &cached_right, &links_);

  const std::vector<std::string> queries = {
      kSpanningQuery,
      kJoinQuery,
      "SELECT DISTINCT ?o WHERE { <http://l/acme> ?p ?o . }",
  };
  const std::vector<uint64_t> golden = {
      0x3145369e6b42c7b9ull, 0xe988e0a1aeab4433ull, 0x7517e9f6bf7aef94ull};
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& query = queries[i];
    const std::string uncached = ResultDigest(engine.ExecuteText(query));
    const std::string cache_cold =
        ResultDigest(caching_engine.ExecuteText(query));
    const std::string cache_warm =
        ResultDigest(caching_engine.ExecuteText(query));
    EXPECT_EQ(core::ckpt::Checksum(uncached), golden[i]) << query;
    EXPECT_EQ(uncached, cache_cold) << query;
    EXPECT_EQ(uncached, cache_warm) << query;
  }
  EXPECT_GT(cached_left.hits() + cached_right.hits(), 0u);
}

TEST_F(FederationFaultsTest, LinkMutationAfterEpisodeIsVisibleThroughCache) {
  // An episode loop mutates the LinkIndex between queries (EndEpisode
  // applying feedback). The probe cache must not serve answers computed
  // against the old link set: epoch invalidation makes the mutation
  // visible to the very next query.
  const CachingEndpoint::EpochFn epoch = [this] { return links_.epoch(); };
  CachingEndpoint cached_left(left_ep_.get(), ProbeCacheConfig(), epoch);
  CachingEndpoint cached_right(right_ep_.get(), ProbeCacheConfig(), epoch);
  FederatedEngine engine(&cached_left, &cached_right, &links_);

  auto before = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  auto warm = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->NumRows(), before->NumRows());

  // New link discovered by ALEX: the spanning query must widen immediately.
  right_.AddLiteralTriple("http://r/acme-two", "http://r/hq",
                          Term::Literal("Miami"));
  links_.Add("http://l/acme", "http://r/acme-two");
  auto after = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->NumRows(), before->NumRows());

  // Link retracted (negative feedback): the extra rows disappear again.
  links_.Remove("http://l/acme", "http://r/acme-two");
  auto reverted = engine.ExecuteText(kSpanningQuery);
  ASSERT_TRUE(reverted.ok());
  EXPECT_EQ(ResultDigest(reverted), ResultDigest(before));
}

}  // namespace
}  // namespace alex::fed
