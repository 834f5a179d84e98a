// Cross-module validation: properties that hold across subsystem
// boundaries (text formats agreeing with each other, the engine's ε decay
// being observable, link-spec quality on generated data, and the result
// serializers fed from real query evaluations).

#include <sstream>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/metrics.h"
#include "datagen/scenarios.h"
#include "paris/link_spec.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "sparql/results_io.h"

namespace alex {
namespace {

TEST(CrossValidationTest, NTriplesOutputIsValidTurtle) {
  // Every N-Triples document is a Turtle document; the two parsers must
  // agree on generated data.
  datagen::ScenarioConfig config;
  config.seed = 31337;
  config.num_shared = 40;
  config.num_left_only = 20;
  config.num_right_only = 10;
  config.domains = {"organization", "language"};
  datagen::GeneratedPair pair = datagen::GenerateScenario(config);

  std::ostringstream text;
  ASSERT_TRUE(
      rdf::WriteNTriples(pair.left.store(), pair.left.dict(), text).ok());

  rdf::Dictionary nt_dict, ttl_dict;
  rdf::TripleStore nt_store, ttl_store;
  std::istringstream nt_in(text.str());
  ASSERT_TRUE(rdf::ReadNTriples(nt_in, &nt_dict, &nt_store).ok());
  ASSERT_TRUE(rdf::ParseTurtle(text.str(), &ttl_dict, &ttl_store).ok());
  ASSERT_EQ(nt_store.size(), ttl_store.size());

  // Same logical triples under both parsers.
  nt_store.ForEachMatch(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    auto s = ttl_dict.Lookup(nt_dict.term(t.subject));
    auto p = ttl_dict.Lookup(nt_dict.term(t.predicate));
    auto o = ttl_dict.Lookup(nt_dict.term(t.object));
    EXPECT_TRUE(s && p && o);
    if (s && p && o) {
      EXPECT_TRUE(ttl_store.Contains(rdf::Triple{*s, *p, *o}));
    }
    return true;
  });
}

TEST(CrossValidationTest, EpsilonDecayIsObservable) {
  // Minimal space; the engine's policy ε must follow the GLIE schedule
  // ε0 / k after k completed episodes (see AlexConfig::epsilon_decay).
  rdf::Dataset left{"l"}, right{"r"};
  left.AddLiteralTriple("http://l/e", "http://l/name",
                        rdf::Term::Literal("Solo Entity"));
  right.AddLiteralTriple("http://r/e", "http://r/name",
                         rdf::Term::Literal("Solo Entity"));
  left.BuildEntityIndex();
  right.BuildEntityIndex();
  core::LinkSpace space;
  space.Build(left, right, {0}, 0.3, 1000);

  core::AlexConfig config;
  config.epsilon = 0.1;
  config.epsilon_decay = true;
  core::AlexEngine engine(&space, config, 3);
  EXPECT_DOUBLE_EQ(engine.policy().epsilon(), 0.1);
  engine.EndEpisode();
  EXPECT_DOUBLE_EQ(engine.policy().epsilon(), 0.1 / 1);
  engine.EndEpisode();
  EXPECT_DOUBLE_EQ(engine.policy().epsilon(), 0.1 / 2);

  core::AlexConfig fixed = config;
  fixed.epsilon_decay = false;
  core::AlexEngine engine2(&space, fixed, 3);
  engine2.EndEpisode();
  EXPECT_DOUBLE_EQ(engine2.policy().epsilon(), 0.1);
}

TEST(CrossValidationTest, LinkSpecQualityOnGeneratedScenario) {
  // A hand-written rule set over the drug domain must land in a sane
  // precision/recall region on the generated Drugbank scenario.
  datagen::GeneratedPair pair =
      datagen::GenerateScenario(datagen::DbpediaDrugbank());
  // A rule author inspects the target vocabulary first: the right KB may
  // use either the canonical or the synonym predicate name.
  auto pick = [&](const char* canonical, const char* synonym) {
    const std::string base = "http://drugbank.example.org/ontology/";
    return pair.right.dict()
                   .Lookup(rdf::Term::Iri(base + canonical))
                   .has_value()
               ? base + canonical
               : base + synonym;
  };
  auto spec = paris::ParseLinkSpec(
      "compare http://dbpedia.example.org/ontology/molecularWeight " +
      pick("molecularWeight", "molWeight") +
      " using numeric\n"
      "compare http://dbpedia.example.org/ontology/approved " +
      pick("approved", "approvalDate") +
      " using date\n"
      "compare http://dbpedia.example.org/ontology/casNumber " +
      pick("casNumber", "casRegistry") +
      " using numeric\n"
      "aggregate min\nthreshold 0.97\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto links = paris::RunLinkSpec(pair.left, pair.right, *spec);
  ASSERT_FALSE(links.empty());
  std::unordered_set<feedback::PairKey> candidates;
  for (const auto& l : links) {
    candidates.insert(feedback::PackPair(l.left, l.right));
  }
  const auto m = core::ComputeMetrics(candidates, pair.truth);
  // Decoys copy the name plus two secondary values; demanding near-exact
  // agreement on all THREE identifying fields defeats them, so precision
  // must be high.
  EXPECT_GT(m.precision, 0.9);
  EXPECT_GT(m.recall, 0.5);
}

TEST(CrossValidationTest, QueryResultsSerializeFromLiveEvaluation) {
  rdf::Dataset ds{"x"};
  ds.AddLiteralTriple("http://x/e1", "http://x/name",
                      rdf::Term::Literal("Alpha"));
  ds.AddLiteralTriple("http://x/e2", "http://x/name",
                      rdf::Term::Literal("Beta"));
  auto result = sparql::EvaluateQuery(
      "SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n", ds);
  ASSERT_TRUE(result.ok());
  std::ostringstream json, tsv;
  sparql::WriteResultsJson(*result, json);
  sparql::WriteResultsTsv(*result, tsv);
  EXPECT_NE(json.str().find("\"value\": \"Alpha\""), std::string::npos);
  EXPECT_NE(tsv.str().find("<http://x/e2>\t\"Beta\""), std::string::npos);
}

}  // namespace
}  // namespace alex
