#include "federation/endpoint.h"

#include <gtest/gtest.h>

#include "sparql/evaluator.h"
#include "sparql/parser.h"

namespace alex::fed {
namespace {

using rdf::Term;

class EndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_.AddLiteralTriple("http://x/e", "http://x/name", Term::Literal("E"));
    ds_.AddLiteralTriple("http://x/e", "http://x/age",
                         Term::TypedLiteral("7", std::string(rdf::kXsdInteger)));
    endpoint_ = std::make_unique<Endpoint>(&ds_);
  }
  rdf::Dataset ds_{"src"};
  std::unique_ptr<Endpoint> endpoint_;
};

TEST_F(EndpointTest, NameComesFromDataset) {
  EXPECT_EQ(endpoint_->name(), "src");
}

TEST_F(EndpointTest, HasPredicateProbe) {
  EXPECT_TRUE(endpoint_->HasPredicate("http://x/name"));
  EXPECT_FALSE(endpoint_->HasPredicate("http://x/missing"));
}

TEST_F(EndpointTest, CanAnswerSourceSelection) {
  auto q = sparql::ParseQuery(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . ?s <http://y/other> ?o . "
      "?s ?p ?v . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(endpoint_->CanAnswer(q->where[0]));   // Known predicate.
  EXPECT_FALSE(endpoint_->CanAnswer(q->where[1]));  // Foreign predicate.
  EXPECT_TRUE(endpoint_->CanAnswer(q->where[2]));   // Variable predicate.
}

TEST_F(EndpointTest, SelectDelegatesToEvaluator) {
  auto q = sparql::ParseQuery("SELECT ?n WHERE { ?s <http://x/name> ?n . }");
  ASSERT_TRUE(q.ok());
  auto r = sparql::Evaluate(*q, ds_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0], Term::Literal("E"));
}

}  // namespace
}  // namespace alex::fed
