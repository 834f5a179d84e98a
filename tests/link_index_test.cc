#include "federation/link_index.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace alex::fed {
namespace {

TEST(LinkIndexTest, AddAndContains) {
  LinkIndex index;
  EXPECT_TRUE(index.Add("http://a/1", "http://b/1"));
  EXPECT_TRUE(index.Contains("http://a/1", "http://b/1"));
  EXPECT_FALSE(index.Contains("http://b/1", "http://a/1"));  // Directional.
  EXPECT_EQ(index.size(), 1u);
}

TEST(LinkIndexTest, DuplicateAddIgnored) {
  LinkIndex index;
  EXPECT_TRUE(index.Add("a", "b"));
  EXPECT_FALSE(index.Add("a", "b"));
  EXPECT_EQ(index.size(), 1u);
}

TEST(LinkIndexTest, BidirectionalLookup) {
  LinkIndex index;
  index.Add("a1", "b1");
  index.Add("a1", "b2");
  index.Add("a2", "b1");
  EXPECT_EQ(index.RightsFor("a1"), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_EQ(index.LeftsFor("b1"), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_TRUE(index.RightsFor("zz").empty());
  EXPECT_TRUE(index.LeftsFor("zz").empty());
}

TEST(LinkIndexTest, Remove) {
  LinkIndex index;
  index.Add("a", "b");
  index.Add("a", "c");
  EXPECT_TRUE(index.Remove("a", "b"));
  EXPECT_FALSE(index.Contains("a", "b"));
  EXPECT_TRUE(index.Contains("a", "c"));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.LeftsFor("b").empty());
  EXPECT_FALSE(index.Remove("a", "b"));  // Already gone.
  EXPECT_FALSE(index.Remove("zz", "b"));
}

TEST(LinkIndexTest, RemoveLastCleansBothDirections) {
  LinkIndex index;
  index.Add("a", "b");
  index.Remove("a", "b");
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.RightsFor("a").empty());
  EXPECT_TRUE(index.AllLinks().empty());
}

TEST(LinkIndexTest, AllLinksSorted) {
  LinkIndex index;
  index.Add("b", "y");
  index.Add("a", "z");
  index.Add("a", "x");
  auto links = index.AllLinks();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0], (SameAsLink{"a", "x"}));
  EXPECT_EQ(links[1], (SameAsLink{"a", "z"}));
  EXPECT_EQ(links[2], (SameAsLink{"b", "y"}));
}

// Hand-built LoadState payloads: the SaveState layout is
//   u64 num_iris, num_iris x bytes IRI,
//   left adjacency, right adjacency (each u64 keys, then per key u32 id,
//   u64 len, len x u32 target), u64 epoch, u64 size.
struct Adjacency {
  uint32_t key;
  std::vector<uint32_t> targets;
};

std::string Payload(const std::vector<std::string>& iris,
                    const std::vector<Adjacency>& left,
                    const std::vector<Adjacency>& right, uint64_t size) {
  BinaryWriter w;
  w.WriteU64(iris.size());
  for (const std::string& iri : iris) w.WriteBytes(iri);
  for (const std::vector<Adjacency>* adj : {&left, &right}) {
    w.WriteU64(adj->size());
    for (const Adjacency& a : *adj) {
      w.WriteU32(a.key);
      w.WriteU64(a.targets.size());
      for (uint32_t t : a.targets) w.WriteU32(t);
    }
  }
  w.WriteU64(/*epoch=*/7);
  w.WriteU64(size);
  return w.Release();
}

/// Loads `payload` into an index holding one link; expects a ParseError
/// whose message contains `reason`, and the index untouched.
void ExpectRejected(const std::string& payload, std::string_view reason) {
  LinkIndex victim;
  victim.Add("http://l/v", "http://r/v");
  const uint64_t epoch_before = victim.epoch();
  BinaryReader r(payload);
  const Status st = victim.LoadState(&r);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st;
  EXPECT_NE(st.message().find(reason), std::string::npos) << st;
  EXPECT_EQ(victim.epoch(), epoch_before);
  EXPECT_EQ(victim.size(), 1u);
  EXPECT_TRUE(victim.Contains("http://l/v", "http://r/v"));
  EXPECT_EQ(victim.RightIdsFor(victim.IdOf("http://l/v")).size(), 1u);
}

TEST(LinkIndexLoadStateTest, HandBuiltPayloadLoads) {
  // The well-formed shape the rejection tests below corrupt.
  LinkIndex index;
  const std::string payload =
      Payload({"http://l/a", "http://r/x", "http://r/y"}, {{0, {1, 2}}},
              {{1, {0}}, {2, {0}}}, 2);
  BinaryReader r(payload);
  ASSERT_TRUE(index.LoadState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.epoch(), 7u);
  EXPECT_TRUE(index.Contains("http://l/a", "http://r/y"));
  EXPECT_EQ(index.RightIdsFor(index.IdOf("http://l/a")),
            (std::vector<LinkIndex::IriId>{1, 2}));
}

TEST(LinkIndexLoadStateTest, RepeatedIriRejected) {
  // Id 2 repeats id 0's IRI and carries the link: the string view would
  // show http://l/a -> http://r/x while IdOf("http://l/a") is 0, which has
  // no adjacency, so compiled queries would miss the link.
  ExpectRejected(Payload({"http://l/a", "http://r/x", "http://l/a"},
                         {{2, {1}}}, {{1, {2}}}, 1),
                 "duplicate IRI");
}

TEST(LinkIndexLoadStateTest, RepeatedAdjacencyKeyRejected) {
  // Key 0 listed twice: the second list would overwrite the first while
  // the edge count still matches the size.
  ExpectRejected(Payload({"http://l/a", "http://r/x", "http://r/y"},
                         {{0, {1}}, {0, {2}}}, {{1, {0}}, {2, {0}}}, 2),
                 "duplicate adjacency key");
}

TEST(LinkIndexLoadStateTest, DisagreeingAdjacencyRejected) {
  // Left says a -> x, right says y <- a: Contains("a", "x") would hold
  // while LeftsFor("x") is empty and LeftsFor("y") shows a phantom link.
  ExpectRejected(Payload({"http://l/a", "http://r/x", "http://r/y"},
                         {{0, {1}}}, {{2, {0}}}, 1),
                 "left and right adjacency disagree");
}

TEST(LinkIndexLoadStateTest, RepeatedLinkRejected) {
  ExpectRejected(Payload({"http://l/a", "http://r/x"}, {{0, {1, 1}}},
                         {{1, {0, 0}}}, 2),
                 "duplicate link");
}

TEST(LinkIndexLoadStateTest, CountsBeyondThePayloadRejected) {
  // Declared counts far beyond the bytes present must fail before any
  // container is sized from them.
  BinaryWriter iris;
  iris.WriteU64(uint64_t{1} << 62);
  ExpectRejected(iris.Release(), "IRIs exceed the payload");
  std::string keys = Payload({"http://l/a"}, {}, {}, 0);
  keys.resize(keys.size() - 8 * 4);  // Cut after the IRI table.
  BinaryWriter huge_keys;
  huge_keys.WriteU64(uint64_t{1} << 62);
  ExpectRejected(keys + huge_keys.Release(),
                 "adjacency keys exceed the payload");
  std::string targets = Payload({"http://l/a", "http://r/x"}, {}, {}, 0);
  targets.resize(targets.size() - 8 * 4);
  BinaryWriter huge_targets;
  huge_targets.WriteU64(1);
  huge_targets.WriteU32(0);
  huge_targets.WriteU64(uint64_t{1} << 62);
  ExpectRejected(targets + huge_targets.Release(),
                 "adjacency targets exceed the payload");
}

}  // namespace
}  // namespace alex::fed
