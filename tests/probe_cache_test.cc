// Tests for the CachingEndpoint probe cache: hit/replay correctness, the
// never-cache rules (failed probes, truncated streams, oversize results),
// epoch-based invalidation against a mutating LinkIndex, LRU eviction, and
// result equivalence of a cached federation against an uncached one.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "obs/metrics.h"
#include "rdf/dataset.h"

namespace alex::fed {
namespace {

using rdf::Term;

/// Inner endpoint that counts probes, so tests can assert a cache hit never
/// reached it.
class CountingEndpoint final : public QueryEndpoint {
 public:
  explicit CountingEndpoint(const QueryEndpoint* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool CanAnswer(const sparql::TriplePatternAst& p) const override {
    return inner_->CanAnswer(p);
  }
  Status Probe(const PatternProbe& probe,
               const ProbeRowFn& fn) const override {
    ++probes_;
    return inner_->Probe(probe, fn);
  }

  size_t probes() const { return probes_; }

 private:
  const QueryEndpoint* inner_;
  mutable size_t probes_ = 0;
};

class ProbeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.AddLiteralTriple("http://r/acme", "http://r/hq",
                           Term::Literal("Belcaster"));
    data_.AddLiteralTriple("http://r/acme", "http://r/label",
                           Term::Literal("Acme Corporation"));
    data_.AddLiteralTriple("http://r/other", "http://r/hq",
                           Term::Literal("Springfield"));
    ep_ = std::make_unique<Endpoint>(&data_);
    counting_ = std::make_unique<CountingEndpoint>(ep_.get());
  }

  /// Collects all rows of a probe as printable strings.
  static std::vector<std::string> Collect(const QueryEndpoint& ep,
                                          const PatternProbe& probe) {
    std::vector<std::string> rows;
    const Status st =
        ep.Probe(probe, [&](const Term* s, const Term* p, const Term* o) {
          std::string row;
          for (const Term* t : {s, p, o}) {
            row += t ? t->ToNTriples() : "_";
            row += " ";
          }
          rows.push_back(std::move(row));
          return true;
        });
    EXPECT_TRUE(st.ok()) << st;
    return rows;
  }

  rdf::Dataset data_{"companies"};
  std::unique_ptr<Endpoint> ep_;
  std::unique_ptr<CountingEndpoint> counting_;
};

TEST_F(ProbeCacheTest, HitReplaysIdenticalRowsWithoutTouchingInner) {
  CachingEndpoint cached(counting_.get());
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;

  const auto first = Collect(cached, probe);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(counting_->probes(), 1u);
  const auto second = Collect(cached, probe);
  EXPECT_EQ(second, first);               // Byte-identical replay.
  EXPECT_EQ(counting_->probes(), 1u);     // Inner endpoint never consulted.
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
}

TEST_F(ProbeCacheTest, BoundSlotsReplayAsNullLikeTheRealEndpoint) {
  CachingEndpoint cached(counting_.get());
  const Term subject = Term::Iri("http://r/acme");
  const Term pred = Term::Iri("http://r/hq");
  PatternProbe probe;
  probe.subject = &subject;
  probe.predicate = &pred;
  for (int round = 0; round < 2; ++round) {
    size_t rows = 0;
    const Status st = cached.Probe(
        probe, [&](const Term* s, const Term* p, const Term* o) -> bool {
          EXPECT_EQ(s, nullptr);  // Bound slots stream as null.
          EXPECT_EQ(p, nullptr);
          EXPECT_TRUE(o != nullptr && *o == Term::Literal("Belcaster"));
          ++rows;
          return true;
        });
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_EQ(rows, 1u) << "round " << round;
  }
  EXPECT_EQ(cached.hits(), 1u);
}

TEST_F(ProbeCacheTest, AllWildcardProbesBypassTheCache) {
  CachingEndpoint cached(counting_.get());
  const PatternProbe probe;  // Full scan.
  EXPECT_EQ(Collect(cached, probe).size(), 3u);
  EXPECT_EQ(Collect(cached, probe).size(), 3u);
  EXPECT_EQ(counting_->probes(), 2u);  // Forwarded both times.
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(cached.misses(), 0u);
  EXPECT_EQ(cached.size(), 0u);
}

TEST_F(ProbeCacheTest, TruncatedStreamsAreNeverCached) {
  CachingEndpoint cached(counting_.get());
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;
  // Consumer stops after the first row: the entry would be incomplete.
  const Status st = cached.Probe(
      probe, [](const Term*, const Term*, const Term*) { return false; });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(cached.size(), 0u);
  // The next full consumption must see every row, straight from the inner.
  EXPECT_EQ(Collect(cached, probe).size(), 2u);
  EXPECT_EQ(counting_->probes(), 2u);
}

/// Inner endpoint whose first probe fails and whose later probes succeed.
class FailsOnceEndpoint final : public QueryEndpoint {
 public:
  explicit FailsOnceEndpoint(const QueryEndpoint* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  bool CanAnswer(const sparql::TriplePatternAst& p) const override {
    return inner_->CanAnswer(p);
  }
  Status Probe(const PatternProbe& probe,
               const ProbeRowFn& fn) const override {
    if (!failed_) {
      failed_ = true;
      return Status::Unavailable(name() + " unavailable");
    }
    return inner_->Probe(probe, fn);
  }

 private:
  const QueryEndpoint* inner_;
  mutable bool failed_ = false;
};

TEST_F(ProbeCacheTest, FailedProbesAreNeverCached) {
  FailsOnceEndpoint failing(ep_.get());
  CachingEndpoint cached(&failing);
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;

  const Status failed = cached.Probe(
      probe, [](const Term*, const Term*, const Term*) { return true; });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(cached.size(), 0u);  // The failure was not memoized.

  // The endpoint has recovered; the next probe reaches it and is cached.
  EXPECT_EQ(Collect(cached, probe).size(), 2u);
  EXPECT_EQ(cached.size(), 1u);
  EXPECT_EQ(Collect(cached, probe).size(), 2u);
  EXPECT_EQ(cached.hits(), 1u);
}

TEST_F(ProbeCacheTest, OversizeResultsAreNotCached) {
  ProbeCacheConfig config;
  config.max_rows_per_entry = 1;
  CachingEndpoint cached(counting_.get(), config);
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;
  EXPECT_EQ(Collect(cached, probe).size(), 2u);  // Streams fully regardless.
  EXPECT_EQ(cached.size(), 0u);                  // But is not retained.
  EXPECT_EQ(Collect(cached, probe).size(), 2u);
  EXPECT_EQ(counting_->probes(), 2u);
}

TEST_F(ProbeCacheTest, LruEvictsOldestEntry) {
  ProbeCacheConfig config;
  config.max_entries = 2;
  CachingEndpoint cached(counting_.get(), config);
  const Term s1 = Term::Iri("http://r/acme");
  const Term s2 = Term::Iri("http://r/other");
  const Term p1 = Term::Iri("http://r/hq");
  PatternProbe a, b, c;
  a.subject = &s1;
  b.subject = &s2;
  c.subject = &s1;
  c.predicate = &p1;
  Collect(cached, a);
  Collect(cached, b);
  Collect(cached, c);  // Evicts `a`, the least recently used.
  EXPECT_EQ(cached.size(), 2u);
  EXPECT_EQ(cached.evictions(), 1u);
  Collect(cached, a);  // Miss again.
  EXPECT_EQ(cached.misses(), 4u);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST_F(ProbeCacheTest, LinkIndexEpochInvalidatesTheWholeCache) {
  LinkIndex links;
  links.Add("http://l/a", "http://r/acme");
  CachingEndpoint cached(counting_.get(), ProbeCacheConfig(),
                         [&links] { return links.epoch(); });
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;
  Collect(cached, probe);
  Collect(cached, probe);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.size(), 1u);

  // Any link mutation bumps the epoch; the very next probe sees a flushed
  // cache and consults the real endpoint again.
  links.Add("http://l/b", "http://r/other");
  Collect(cached, probe);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(counting_->probes(), 2u);

  links.Remove("http://l/b", "http://r/other");
  Collect(cached, probe);
  EXPECT_EQ(counting_->probes(), 3u);
}

TEST_F(ProbeCacheTest, MetricsCountHitsAndMisses) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  CachingEndpoint cached(counting_.get());
  const Term subject = Term::Iri("http://r/acme");
  PatternProbe probe;
  probe.subject = &subject;
  Collect(cached, probe);
  Collect(cached, probe);
  Collect(cached, probe);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("fed.probe_cache_hits"), 2u);
  EXPECT_EQ(delta.counters.at("fed.probe_cache_misses"), 1u);
}

TEST_F(ProbeCacheTest, CachedFederationMatchesUncachedColdAndWarm) {
  rdf::Dataset left("hr");
  left.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
  left.AddLiteralTriple("http://l/acme", "http://l/name",
                        Term::Literal("Acme"));
  LinkIndex links;
  links.Add("http://l/acme", "http://r/acme");
  Endpoint left_ep(&left);
  FederatedEngine plain(&left_ep, ep_.get(), &links);

  CachingEndpoint cached_left(&left_ep, ProbeCacheConfig(),
                              [&links] { return links.epoch(); });
  CachingEndpoint cached_right(ep_.get(), ProbeCacheConfig(),
                               [&links] { return links.epoch(); });
  FederatedEngine caching(&cached_left, &cached_right, &links);

  const std::string query =
      "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";
  auto reference = plain.ExecuteText(query);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (int round = 0; round < 3; ++round) {  // Cold, then warm twice.
    auto r = caching.ExecuteText(query);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->NumRows(), reference->NumRows()) << "round " << round;
    for (size_t i = 0; i < r->rows.size(); ++i) {
      EXPECT_EQ(r->rows[i].values, reference->rows[i].values);
    }
  }
  EXPECT_GT(cached_right.hits(), 0u);  // The warm rounds actually hit.

  // A link added after the warm rounds is visible immediately: epoch
  // invalidation beats the stale cache.
  data_.AddLiteralTriple("http://r/acme2", "http://r/hq",
                         Term::Literal("Miami"));
  links.Add("http://l/acme", "http://r/acme2");
  auto widened = caching.ExecuteText(query);
  ASSERT_TRUE(widened.ok()) << widened.status();
  EXPECT_GT(widened->NumRows(), reference->NumRows());
}

}  // namespace
}  // namespace alex::fed
