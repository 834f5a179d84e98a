// Tests for the compiled federated query path: CompiledQuery compilation
// (its InvalidArgument messages asserted literally), the PlanCache memo,
// and — the load-bearing invariant — golden result digests across query
// shapes, including a randomized fuzz sweep over generated datasets and
// query texts.
//
// Each golden is the FNV-1a (core::ckpt::Checksum) of Digest() below. They
// were captured before a second, string-frame execution path (unordered_map
// frames, N-Triples DISTINCT keys, per-call re-planning) was deleted: that
// path and the compiled one produced every digest bit for bit. They cannot
// be regenerated from current sources, only re-verified.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "federation/compiled_query.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "obs/metrics.h"
#include "rdf/dataset.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using rdf::Term;

/// Canonical digest of a federated result: variables, every row's values
/// (N-Triples) and provenance, and the degradation detail. Two results with
/// equal digests are byte-identical as far as callers can observe.
std::string Digest(const Result<FederatedResult>& r) {
  if (!r.ok()) {
    return "error:" + std::to_string(static_cast<int>(r.status().code())) +
           ":" + std::string(r.status().message());
  }
  std::string d = "vars:";
  for (const std::string& v : r->variables) d += v + ",";
  d += r->degraded ? "|degraded|" : "|ok|";
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

std::string kSpanning() {
  return "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }";
}

class FederatedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    left_.AddIriTriple("http://l/alice", "http://l/worksFor", "http://l/acme");
    left_.AddIriTriple("http://l/bob", "http://l/worksFor", "http://l/acme");
    left_.AddLiteralTriple("http://l/acme", "http://l/name",
                           Term::Literal("Acme"));
    left_.AddLiteralTriple("http://l/alice", "http://l/age",
                           Term::TypedLiteral(
                               "34", "http://www.w3.org/2001/XMLSchema#integer"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                            Term::Literal("Belcaster"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("Acme Corporation"));
    right_.AddLiteralTriple("http://r/acme-corp", "http://r/label",
                            Term::Literal("ACME"));
    links_.Add("http://l/acme", "http://r/acme-corp");
    left_ep_ = std::make_unique<Endpoint>(&left_);
    right_ep_ = std::make_unique<Endpoint>(&right_);
    engine_ = std::make_unique<FederatedEngine>(left_ep_.get(),
                                                right_ep_.get(), &links_);
  }

  /// Executes `query` and expects its digest to equal `golden`.
  Result<FederatedResult> ExpectGolden(const std::string& query,
                                       uint64_t golden) {
    Result<FederatedResult> r = engine_->ExecuteText(query);
    EXPECT_EQ(core::ckpt::Checksum(Digest(r)), golden) << query;
    return r;
  }

  rdf::Dataset left_{"hr"};
  rdf::Dataset right_{"companies"};
  LinkIndex links_;
  std::unique_ptr<Endpoint> left_ep_;
  std::unique_ptr<Endpoint> right_ep_;
  std::unique_ptr<FederatedEngine> engine_;
};

TEST_F(FederatedPlanTest, CompileRejectsUnsupportedQueries) {
  // The exact InvalidArgument messages callers have always seen.
  auto unsupported = CompiledQuery::CompileText(
      "SELECT ?x WHERE { ?x <http://l/p> ?y . "
      "OPTIONAL { ?x <http://l/q> ?z . } }");
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().message(),
            "OPTIONAL/UNION are not supported in federated queries");

  auto unknown = CompiledQuery::CompileText(
      "SELECT ?missing WHERE { ?x <http://l/p> ?y . }");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(),
            "projected variable ?missing not mentioned in WHERE");
}

TEST_F(FederatedPlanTest, CompileResolvesSlotsAndFilters) {
  auto plan = CompiledQuery::CompileText(
      "SELECT ?v WHERE { <http://l/alice> <http://l/age> ?v . "
      "FILTER(?v > \"30\") }");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->num_slots(), 1u);
  ASSERT_EQ(plan->patterns().size(), 1u);
  const CompiledQuery::Pattern& p = plan->patterns()[0];
  EXPECT_FALSE(p.comp[0].is_variable());
  EXPECT_FALSE(p.comp[1].is_variable());
  ASSERT_TRUE(p.comp[2].is_variable());
  EXPECT_EQ(plan->filters_for_slot(p.comp[2].slot).size(), 1u);
  ASSERT_EQ(plan->projection_slots().size(), 1u);
  EXPECT_EQ(plan->projection_slots()[0], p.comp[2].slot);
}

TEST_F(FederatedPlanTest, InvalidOrderByFailsAfterExecution) {
  // A bad ORDER BY variable is reported only after enumeration, as it
  // always was, so it is deliberately not a compile error.
  const std::string query =
      "SELECT ?v WHERE { <http://l/acme> <http://l/name> ?v . } "
      "ORDER BY ?nope";
  auto plan = CompiledQuery::CompileText(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->has_order_by());
  EXPECT_FALSE(plan->order_by_valid());
  auto r = ExpectGolden(query, 0xbe3c4f960748186cull);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "ORDER BY variable ?nope not in the result");
}

TEST_F(FederatedPlanTest, CuratedQueriesMatchGoldens) {
  const std::vector<std::string> queries = {
      // Spanning query: needs the sameAs link for the right-side rows.
      "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . }",
      // Join through a bound variable.
      "SELECT ?who ?label WHERE { ?who <http://l/worksFor> ?org . "
      "?org <http://r/label> ?label . }",
      // DISTINCT collapsing the two employees.
      "SELECT DISTINCT ?label WHERE { ?who <http://l/worksFor> ?org . "
      "?org <http://r/label> ?label . }",
      // FILTER on a join variable.
      "SELECT ?who ?label WHERE { ?who <http://l/worksFor> ?org . "
      "?org <http://r/label> ?label . FILTER(?label = \"ACME\") }",
      // ORDER BY with LIMIT (limit applies after the sort).
      "SELECT ?o WHERE { <http://l/acme> ?p ?o . } ORDER BY ?o LIMIT 2",
      // LIMIT alone (stops enumeration early).
      "SELECT ?p ?o WHERE { <http://l/acme> ?p ?o . } LIMIT 1",
      // Repeated variable within one pattern.
      "SELECT ?x WHERE { ?x <http://l/worksFor> ?x . }",
      // Empty result.
      "SELECT ?v WHERE { <http://l/nobody> <http://l/name> ?v . }",
  };
  const std::vector<uint64_t> golden = {
      0x95a875732225525eull, 0x41c408a54b88bacbull, 0x9425302b499a7383ull,
      0xdfe2fad2c6fa1b42ull, 0x3b8b0833e84ddf01ull, 0x07078ab2c0effbeaull,
      0x8a3f0c011942d211ull, 0x01c52069ad2c46b3ull};
  ASSERT_EQ(queries.size(), golden.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = ExpectGolden(queries[i], golden[i]);
    EXPECT_TRUE(r.ok()) << queries[i] << ": " << r.status();
  }
}

constexpr int kFuzzIterations = 60;
constexpr uint64_t kFuzzGoldens[kFuzzIterations] = {
    0x82c63c3781f807bdull, 0x708c2a377763acb7ull, 0xa8a3eba43b0cb6eaull,
    0x695339b6c36f0f67ull, 0x6ac2749279972b56ull, 0x9e3e2330f054ac79ull,
    0xc8457e15288e41e4ull, 0xfaeaffaa34c821afull, 0x07ae827607503f8bull,
    0x94a1c80ddd4fb4dfull, 0xd3fcb9cd0f911954ull, 0x2619af74c8747ddaull,
    0xba533ab736ccfdfdull, 0xfaeaffaa34c821afull, 0x23f5053c34f851daull,
    0x5b3d069ebe186f48ull, 0xaf7ecab662c334d9ull, 0x07ae827607503f8bull,
    0x5439dcf0b4de48b8ull, 0xad8af08a78168791ull, 0xb64026d5361d0861ull,
    0x928f2944743409e6ull, 0x70eba1ebcfc1ee4full, 0x6e6ec84ffab328b7ull,
    0x6e6ec84ffab328b7ull, 0xd7423b42b206db03ull, 0xd73ad49e4e06ec1bull,
    0x0e910972ce853f09ull, 0x355c49da5a6dcbbcull, 0xb64026d5361d0861ull,
    0xee3fe5decb1685a4ull, 0xae4f12f5c4bef46bull, 0x6e6ec84ffab328b7ull,
    0xb2756d94a96906f9ull, 0x66d78b1fc6550d4aull, 0x155b847a569d98daull,
    0x3c1adb7e51db1500ull, 0x4761d2aeec2deed8ull, 0x66d78b1fc6550d4aull,
    0x716e46206a070956ull, 0xe405e38963b51be2ull, 0x355c49da5a6dcbbcull,
    0xc8457e15288e41e4ull, 0xff0103a65bbdf2fdull, 0x5439dcf0b4de48b8ull,
    0xb2756d94a96906f9ull, 0x1376d64677b57e8bull, 0x66d78b1fc6550d4aull,
    0xa5083283d91123dcull, 0x155b847a569d98daull, 0x4d48b46762146b2eull,
    0xd5a3f26fe09ff74cull, 0x3c1adb7e51db1500ull, 0xd7a80af8602bf3c3ull,
    0x6e6ec84ffab328b7ull, 0x059b7d11116d5e87ull, 0x42ab370afd4610d3ull,
    0x04e10b60b60be7c3ull, 0xb64026d5361d0861ull, 0x63b423cf728fdb8eull};

TEST_F(FederatedPlanTest, FuzzRandomQueriesMatchGoldens) {
  // Randomized sweep: generated datasets and query texts (joins, filters,
  // DISTINCT, LIMIT), one golden digest per iteration.
  Rng rng(20260806);
  rdf::Dataset left("fuzz-left");
  rdf::Dataset right("fuzz-right");
  LinkIndex links;
  const int kEntities = 6, kPreds = 3, kValues = 4;
  for (int e = 0; e < kEntities; ++e) {
    const std::string l = "http://l/e" + std::to_string(e);
    const std::string r = "http://r/e" + std::to_string(e);
    for (int p = 0; p < kPreds; ++p) {
      if (rng.UniformInt(3) == 0) continue;  // Sparse.
      left.AddLiteralTriple(
          l, "http://l/p" + std::to_string(p),
          Term::Literal("v" + std::to_string(rng.UniformInt(kValues))));
      right.AddLiteralTriple(
          r, "http://r/p" + std::to_string(p),
          Term::Literal("w" + std::to_string(rng.UniformInt(kValues))));
    }
    left.AddIriTriple(l, "http://l/knows",
                      "http://l/e" + std::to_string(rng.UniformInt(kEntities)));
    if (rng.UniformInt(2) == 0) links.Add(l, r);
  }
  Endpoint left_ep(&left);
  Endpoint right_ep(&right);
  FederatedEngine engine(&left_ep, &right_ep, &links);

  auto random_entity = [&](const char* side) {
    return "<http://" + std::string(side) + "/e" +
           std::to_string(rng.UniformInt(kEntities)) + ">";
  };
  auto random_pred = [&](const char* side) {
    return "<http://" + std::string(side) + "/p" +
           std::to_string(rng.UniformInt(kPreds)) + ">";
  };
  const std::vector<std::string> vars = {"?a", "?b", "?c"};

  for (int iter = 0; iter < kFuzzIterations; ++iter) {
    const int num_patterns = 1 + static_cast<int>(rng.UniformInt(2));
    std::string where;
    std::vector<std::string> used;
    auto use_var = [&]() {
      const std::string& v = vars[rng.UniformInt(vars.size())];
      if (std::find(used.begin(), used.end(), v.substr(1)) == used.end()) {
        used.push_back(v.substr(1));
      }
      return v;
    };
    for (int pi = 0; pi < num_patterns; ++pi) {
      const char* side = rng.UniformInt(2) == 0 ? "l" : "r";
      const std::string s =
          rng.UniformInt(2) == 0 ? random_entity(side) : use_var();
      const std::string p =
          rng.UniformInt(4) == 0 ? use_var() : random_pred(side);
      const std::string o = rng.UniformInt(2) == 0 ? use_var() : "?o" ;
      if (o == "?o" &&
          std::find(used.begin(), used.end(), "o") == used.end()) {
        used.push_back("o");
      }
      where += s + " " + p + " " + o + " . ";
    }
    std::string query = "SELECT";
    for (const std::string& v : used) query += " ?" + v;
    if (rng.UniformInt(3) == 0) query.insert(6, " DISTINCT");
    query += " WHERE { " + where;
    if (rng.UniformInt(4) == 0 && !used.empty()) {
      query += "FILTER(?" + used[rng.UniformInt(used.size())] +
               " > \"v1\") ";
    }
    query += "}";
    if (rng.UniformInt(4) == 0) {
      query += " LIMIT " + std::to_string(1 + rng.UniformInt(5));
    }

    EXPECT_EQ(core::ckpt::Checksum(Digest(engine.ExecuteText(query))),
              kFuzzGoldens[iter])
        << "iter " << iter << ": " << query;
  }
}

TEST_F(FederatedPlanTest, PlanCacheCompilesEachTextOnce) {
  PlanCache cache;
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  auto first = cache.GetOrCompile(kSpanning());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = cache.GetOrCompile(kSpanning());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same shared plan, not a copy.
  EXPECT_EQ(cache.size(), 1u);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("fed.plan_cache_hits"), 1u);
  EXPECT_EQ(delta.histograms.at("fed.plan_compile_seconds").count, 1u);

  // Parse errors are surfaced and never cached.
  auto bad = cache.GetOrCompile("SELECT nonsense");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(FederatedPlanTest, EngineExecuteTextHitsThePlanCache) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (int i = 0; i < 5; ++i) {
    auto r = engine_->ExecuteText(kSpanning());
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("fed.plan_cache_hits"), 4u);
}

TEST_F(FederatedPlanTest, OnePlanRunsAgainstManyEngines) {
  auto plan = CompiledQuery::CompileText(kSpanning());
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Second federation with different right-side data behind the same link.
  rdf::Dataset other_right("companies2");
  other_right.AddLiteralTriple("http://r/acme-corp", "http://r/hq",
                               Term::Literal("Springfield"));
  Endpoint other_right_ep(&other_right);
  FederatedEngine other(left_ep_.get(), &other_right_ep, &links_);

  auto r1 = engine_->Execute(*plan);
  auto r2 = other.Execute(*plan);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->NumRows(), 4u);  // 1 left fact + 3 right facts via the link.
  EXPECT_NE(Digest(r1), Digest(r2));  // Plans carry no endpoint state.
  // The plan result matches parsing-and-executing on each engine.
  EXPECT_EQ(Digest(r1), Digest(engine_->ExecuteText(kSpanning())));
  EXPECT_EQ(Digest(r2), Digest(other.ExecuteText(kSpanning())));
}

}  // namespace
}  // namespace alex::fed
