// Golden digests of the link-space build (core/blocking.h, Section 6.1).
// For every partition split, a digest folds the kept-pair set, every build
// stat, the feature-index shape, and every pair's exact feature set (keys,
// double score bits, per-feature index sizes) — on scenarios from the
// synthetic generator, not just toy fixtures.
//
// The digests were captured before a second, string-keyed implementation
// of the build (per-partition right-side inversion, values re-parsed per
// pair) was deleted: the shared-BlockingIndex build and that reference
// produced every one of them bit for bit. They cannot be regenerated from
// current sources, only re-verified. The check against the uncached
// ComputeFeatureSet stays a live comparison. Beside each digest, the
// similarity-matrix cells the build scored and the cells whose sketch bound
// fell below θ are pinned, so a change in how much work the build does
// shows even when its output does not change.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/checkpoint.h"
#include "core/link_space.h"
#include "core/partitioned.h"
#include "datagen/generator.h"

namespace alex::core {
namespace {

/// {cells_scored, cells_skipped} of one build.
using CellCounts = std::pair<uint64_t, uint64_t>;

CellCounts Cells(const LinkSpace& space) {
  return {space.stats().cells_scored, space.stats().cells_skipped};
}

std::vector<PairKey> SortedPairs(const LinkSpace& space) {
  std::vector<PairKey> pairs = space.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// FNV-1a (ckpt::Checksum) over every observable bit of a finished space,
/// in canonical pair order.
uint64_t SpaceDigest(const LinkSpace& space) {
  const LinkSpace::BuildStats& s = space.stats();
  BinaryWriter w;
  for (uint64_t v : {s.total_possible, s.candidate_pairs, s.kept_pairs,
                     s.features_indexed, uint64_t{space.num_features()},
                     uint64_t{space.MaxFeatureCount()}}) {
    w.WriteU64(v);
  }
  for (PairKey key : SortedPairs(space)) {
    w.WriteU64(key);
    const std::span<const FeatureValue> fs = space.FeaturesOf(key);
    w.WriteU64(fs.size());
    for (const FeatureValue& v : fs) {
      w.WriteU64(v.key);
      w.WriteDouble(v.score);
      w.WriteU64(space.FeatureCount(v.key));
    }
  }
  return ckpt::Checksum(w.buffer());
}

/// Pins every kept pair's feature set against the uncached direct
/// computation, so a ValueCache or memo bug cannot hide in the digest.
void ExpectMatchesDirect(const datagen::GeneratedPair& pair,
                         const LinkSpace& space, double theta) {
  for (PairKey key : space.pairs()) {
    const std::span<const FeatureValue> built = space.FeaturesOf(key);
    const FeatureSet direct =
        ComputeFeatureSet(pair.left, feedback::PairLeft(key), pair.right,
                          feedback::PairRight(key), theta);
    ASSERT_EQ(built.size(), direct.size());
    for (size_t i = 0; i < built.size(); ++i) {
      EXPECT_EQ(built[i].key, direct[i].key);
      // Exact double equality: the cached and uncached paths must run the
      // same arithmetic on the same parsed values.
      EXPECT_EQ(built[i].score, direct[i].score);
    }
  }
}

/// Builds every split of 1 and 3 partitions against shared resources and
/// returns the space digests in order: {p1}, {p3 split 0, 1, 2}, with each
/// build's cell counts in the same order in `*cells`.
std::vector<uint64_t> ScenarioDigests(const datagen::ScenarioConfig& config,
                                      size_t max_block_pairs,
                                      std::vector<CellCounts>* cells) {
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  const BlockingIndex right_index(pair.right);
  const TermKeyCache left_keys(pair.left);
  const ValueCache left_values(pair.left);
  const ValueCache right_values(pair.right);
  const BuildResources res{&right_index, &left_keys, &left_values,
                           &right_values};

  std::vector<uint64_t> digests;
  for (size_t partitions : {size_t{1}, size_t{3}}) {
    std::vector<std::vector<rdf::EntityId>> splits(partitions);
    for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
      splits[e % partitions].push_back(e);
    }
    for (const auto& lefts : splits) {
      LinkSpace space;
      space.Build(pair.left, pair.right, lefts, 0.3, max_block_pairs, res);
      ExpectMatchesDirect(pair, space, 0.3);
      digests.push_back(SpaceDigest(space));
      cells->push_back(Cells(space));
    }
  }
  return digests;
}

TEST(BlockingEquivalenceTest, NoisyPersonScenario) {
  // Heavy value noise: the token/prefix blocks do the recall work, so the
  // hashed-key path is exercised well beyond exact-value matches.
  datagen::ScenarioConfig config;
  config.name = "equiv_noisy";
  config.seed = 1313;
  config.num_shared = 70;
  config.num_left_only = 60;
  config.num_right_only = 30;
  config.domains = {"person"};
  config.value_noise = 0.6;
  config.predicate_rename_prob = 0.4;
  const std::vector<uint64_t> golden = {
      0xf44a1f060734da81ull, 0xf6ff0639cce3e551ull, 0x5c05f7f0d198a17bull,
      0xa435bd5a27f854a3ull};
  const std::vector<CellCounts> golden_cells = {
      {22825, 88805}, {7545, 29055}, {7343, 28837}, {7937, 30913}};
  std::vector<CellCounts> cells;
  EXPECT_EQ(ScenarioDigests(config, 20000, &cells), golden);
  EXPECT_EQ(cells, golden_cells);
}

TEST(BlockingEquivalenceTest, AmbiguousMultiDomainScenarioWithTightCap) {
  // Decoys create big shared-name blocks and the tight cap forces the
  // stop-value skip logic to fire, which is where a wrong per-partition
  // left count would show up.
  datagen::ScenarioConfig config;
  config.name = "equiv_ambiguous";
  config.seed = 2718;
  config.num_shared = 50;
  config.num_left_only = 40;
  config.num_right_only = 25;
  config.domains = {"person", "organization", "drug"};
  config.value_noise = 0.3;
  config.ambiguity = 0.8;
  const std::vector<uint64_t> golden = {
      0x348e7fddb82f8bc5ull, 0xff5fb3d7dd200767ull, 0x3eec8af1bc5f68bdull,
      0x8edb06973404e964ull};
  const std::vector<CellCounts> golden_cells = {
      {7624, 29372}, {4426, 18489}, {3095, 12815}, {4855, 17205}};
  std::vector<CellCounts> cells;
  EXPECT_EQ(ScenarioDigests(config, 150, &cells), golden);
  EXPECT_EQ(cells, golden_cells);
}

TEST(BlockingEquivalenceTest, SingleShotWrapperMatchesGolden) {
  datagen::ScenarioConfig config;
  config.seed = 99;
  config.num_shared = 40;
  config.num_left_only = 30;
  config.num_right_only = 20;
  config.domains = {"place"};
  config.value_noise = 0.4;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(config);
  std::vector<rdf::EntityId> lefts;
  for (rdf::EntityId e = 0; e < pair.left.num_entities(); ++e) {
    lefts.push_back(e);
  }
  LinkSpace wrapped;
  wrapped.Build(pair.left, pair.right, lefts, 0.3, 20000);
  EXPECT_EQ(SpaceDigest(wrapped), 0x02d3e2b1ee02656full);
  EXPECT_EQ(Cells(wrapped), CellCounts(1315, 4205));
}

TEST(BlockingEquivalenceTest, PartitionedBuildMatchesGolden) {
  datagen::ScenarioConfig scenario;
  scenario.seed = 4242;
  scenario.num_shared = 60;
  scenario.num_left_only = 50;
  scenario.num_right_only = 25;
  scenario.domains = {"person", "publication"};
  scenario.value_noise = 0.5;
  const datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);

  const std::vector<uint64_t> golden = {
      0x6f99e9cd1897874full, 0xf37aafea2eb5bdbfull, 0xbd6adb458c7f8f9dull,
      0x5830d50e7f28d094ull};
  const std::vector<CellCounts> golden_cells = {
      {3512, 15286}, {2080, 10850}, {3147, 13431}, {2268, 10617}};
  // The build is invariant to the thread count.
  for (size_t threads : {1, 2, 4}) {
    AlexConfig config;
    config.num_partitions = 4;
    config.num_threads = threads;
    PartitionedAlex alex(&pair.left, &pair.right, config);
    alex.Build();
    EXPECT_GT(alex.shared_index_seconds(), 0.0);

    std::vector<uint64_t> digests;
    std::vector<CellCounts> cells;
    for (size_t p = 0; p < alex.num_partitions(); ++p) {
      digests.push_back(SpaceDigest(alex.space(p)));
      cells.push_back(Cells(alex.space(p)));
    }
    EXPECT_EQ(digests, golden) << threads << " threads";
    EXPECT_EQ(cells, golden_cells) << threads << " threads";
  }
}

}  // namespace
}  // namespace alex::core
