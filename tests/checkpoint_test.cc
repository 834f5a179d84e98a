#include "core/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/scenarios.h"
#include "federation/link_index.h"
#include "obs/metrics.h"
#include "paris/seed_linkers.h"
#include "rl/adaptive_policy.h"
#include "simulation/simulation.h"

namespace alex::core::ckpt {
namespace {

namespace fs = std::filesystem;

using feedback::FeedbackItem;
using feedback::PackPair;
using rdf::Term;

/// Fresh, empty scratch directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("alex_ckpt_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Container format.

TEST(CheckpointFormatTest, WrapUnwrapRoundTrip) {
  const AlexConfig config;
  const uint64_t fp = ConfigFingerprint(config);
  const std::string payload = "engine bytes \x00\x01\xff here";
  const std::string blob = WrapPayload(PayloadKind::kEngine, fp, payload);
  auto out = UnwrapPayload(blob, PayloadKind::kEngine, fp);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, payload);
}

TEST(CheckpointFormatTest, FingerprintSeparatesBehaviorRelevantConfigs) {
  AlexConfig a;
  AlexConfig b = a;
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
  b.epsilon = a.epsilon + 0.01;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.num_partitions = a.num_partitions + 1;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  // Thread count and episode budget do not change behaviour; resuming under
  // a different value of either must be allowed.
  b = a;
  b.num_threads = a.num_threads + 3;
  b.max_episodes = a.max_episodes + 100;
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
}

TEST(CheckpointFormatTest, RejectsCorruptAndMismatchedBlobs) {
  const AlexConfig config;
  const uint64_t fp = ConfigFingerprint(config);
  const std::string blob =
      WrapPayload(PayloadKind::kEngine, fp, "payload payload payload");

  // Wrong magic.
  std::string bad = blob;
  bad[0] ^= 0x40;
  EXPECT_EQ(UnwrapPayload(bad, PayloadKind::kEngine, fp).status().code(),
            StatusCode::kParseError);

  // Truncated inside the header and inside the payload.
  EXPECT_EQ(UnwrapPayload(std::string_view(blob).substr(0, 10),
                          PayloadKind::kEngine, fp)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_FALSE(UnwrapPayload(std::string_view(blob).substr(0, blob.size() - 3),
                             PayloadKind::kEngine, fp)
                   .ok());

  // Unknown format version (bump the u32 after the 8-byte magic).
  bad = blob;
  bad[8] = static_cast<char>(kFormatVersion + 1);
  EXPECT_EQ(UnwrapPayload(bad, PayloadKind::kEngine, fp).status().code(),
            StatusCode::kInvalidArgument);

  // Every version back to kMinFormatVersion still unwraps (the payload
  // checksum does not cover the header, so patching the version byte
  // yields a well-formed older-format blob), and the version is reported
  // to the caller for payload-level dispatch.
  for (uint32_t v = kMinFormatVersion; v <= kFormatVersion; ++v) {
    bad = blob;
    bad[8] = static_cast<char>(v);
    uint32_t reported = 0;
    auto out = UnwrapPayload(bad, PayloadKind::kEngine, fp, &reported);
    ASSERT_TRUE(out.ok()) << "version " << v << ": " << out.status();
    EXPECT_EQ(reported, v);
  }

  // Config fingerprint mismatch.
  EXPECT_EQ(UnwrapPayload(blob, PayloadKind::kEngine, fp + 1).status().code(),
            StatusCode::kInvalidArgument);

  // Payload kind mismatch.
  EXPECT_EQ(
      UnwrapPayload(blob, PayloadKind::kPartitioned, fp).status().code(),
      StatusCode::kInvalidArgument);

  // Flipped payload byte fails the checksum.
  bad = blob;
  bad[bad.size() - 1] ^= 0x01;
  EXPECT_EQ(UnwrapPayload(bad, PayloadKind::kEngine, fp).status().code(),
            StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// CheckpointManager: retention, manifest, crash-consistent layout.

TEST(CheckpointManagerTest, RetainsNewestAndPrunesOld) {
  const std::string dir = ScratchDir("retention");
  obs::Counter& writes = obs::MetricsRegistry::Global().counter("ckpt.writes");
  const uint64_t writes_before = writes.Value();

  CheckpointManager manager(dir, /*keep=*/3);
  std::vector<std::string> paths;
  for (int i = 0; i < 5; ++i) {
    std::string path;
    ASSERT_TRUE(manager.Write("blob " + std::to_string(i), &path).ok());
    paths.push_back(path);
  }
  EXPECT_EQ(writes.Value(), writes_before + 5);

  // Newest three retained, newest first; the first two pruned from disk.
  const std::vector<std::string> retained = manager.RetainedPaths();
  ASSERT_EQ(retained.size(), 3u);
  EXPECT_EQ(retained[0], paths[4]);
  EXPECT_EQ(retained[1], paths[3]);
  EXPECT_EQ(retained[2], paths[2]);
  EXPECT_FALSE(fs::exists(paths[0]));
  EXPECT_FALSE(fs::exists(paths[1]));

  auto latest = manager.LatestPath();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, paths[4]);

  auto blob = CheckpointManager::ReadBlob(*latest);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "blob 4");

  // ResolveLatest accepts a directory, the MANIFEST path, or a file.
  auto by_dir = CheckpointManager::ResolveLatest(dir);
  ASSERT_TRUE(by_dir.ok());
  EXPECT_EQ(*by_dir, paths[4]);
  auto by_manifest =
      CheckpointManager::ResolveLatest((fs::path(dir) / "MANIFEST").string());
  ASSERT_TRUE(by_manifest.ok());
  EXPECT_EQ(*by_manifest, paths[4]);
  auto by_file = CheckpointManager::ResolveLatest(paths[3]);
  ASSERT_TRUE(by_file.ok());
  EXPECT_EQ(*by_file, paths[3]);
}

TEST(CheckpointManagerTest, SequenceContinuesAcrossInstances) {
  const std::string dir = ScratchDir("sequence");
  std::string first;
  {
    CheckpointManager manager(dir, 2);
    ASSERT_TRUE(manager.Write("one", &first).ok());
  }
  // A new manager (a restarted process) must not overwrite the first file.
  CheckpointManager manager(dir, 2);
  std::string second;
  ASSERT_TRUE(manager.Write("two", &second).ok());
  EXPECT_NE(first, second);
  EXPECT_EQ(manager.RetainedPaths().size(), 2u);
  auto latest = manager.LatestPath();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, second);
}

TEST(CheckpointManagerTest, EmptyDirHasNoLatest) {
  const std::string dir = ScratchDir("empty");
  CheckpointManager manager(dir, 3);
  EXPECT_EQ(manager.LatestPath().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CheckpointManager::ResolveLatest(dir).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Engine-level resume equivalence.

/// Controlled link space shared by the engine tests: 6 exact-name pairs, so
/// positive feedback on one pair explores the whole score band.
class EngineCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* names[] = {"Alpha Arden",   "Beta Belcar", "Gamma Gild",
                           "Delta Dreston", "Epsil Elmor", "Zeta Zorva"};
    for (int i = 0; i < 6; ++i) {
      left_.AddLiteralTriple("http://l/e" + std::to_string(i), "http://l/name",
                             Term::Literal(names[i]));
      right_.AddLiteralTriple("http://r/e" + std::to_string(i),
                              "http://r/label", Term::Literal(names[i]));
    }
    left_.BuildEntityIndex();
    right_.BuildEntityIndex();
    std::vector<rdf::EntityId> lefts;
    for (rdf::EntityId e = 0; e < left_.num_entities(); ++e) lefts.push_back(e);
    space_.Build(left_, right_, lefts, 0.3, 20000);

    config_.episode_size = 10;
    config_.epsilon = 0.3;  // Exercise the policy RNG stream.
    config_.step_size = 0.05;
    config_.max_links_per_action = 100;
    config_.blacklist_threshold = 1;
    config_.rollback_threshold = 2;
  }

  rdf::EntityId L(int i) {
    return *left_.FindEntityByIri("http://l/e" + std::to_string(i));
  }
  rdf::EntityId R(int i) {
    return *right_.FindEntityByIri("http://r/e" + std::to_string(i));
  }

  static std::string Bytes(const AlexEngine& engine) {
    BinaryWriter w;
    engine.SaveState(&w);
    return w.Release();
  }

  rdf::Dataset left_{"l"};
  rdf::Dataset right_{"r"};
  LinkSpace space_;
  AlexConfig config_;
};

TEST_F(EngineCheckpointTest, ResumedEngineIsBitIdentical) {
  // Drive an engine through feedback that exercises exploration, the
  // blacklist, and a rollback, snapshotting mid-episode; then replay the
  // remainder of the script on (a) the original engine and (b) a fresh
  // engine restored from the snapshot. Both must end in byte-identical
  // states (the serialization is canonical, so equal bytes ⇔ equal state).
  AlexEngine engine(&space_, config_, /*seed=*/17);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(1), R(1))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});   // Explores band.
  engine.ProcessFeedback(FeedbackItem{L(2), R(2), false});  // Blacklists.
  engine.ProcessFeedback(FeedbackItem{L(3), R(3), true});
  EXPECT_GE(engine.blacklist_size(), 1u);

  const std::string snapshot = Bytes(engine);

  // A different seed: LoadState must overwrite the RNG stream anyway.
  AlexEngine resumed(&space_, config_, /*seed=*/99);
  BinaryReader r(snapshot);
  ASSERT_TRUE(resumed.LoadState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Bytes(resumed), snapshot);
  EXPECT_EQ(resumed.candidates(), engine.candidates());
  EXPECT_EQ(resumed.episodes_completed(), engine.episodes_completed());

  // Continue both timelines with the same script: a second negative pushes
  // the positive generator over rollback_threshold, EndEpisode rolls back
  // and improves the policy, then another episode runs.
  const std::vector<FeedbackItem> remainder = {
      FeedbackItem{L(4), R(4), false},
      FeedbackItem{L(1), R(1), true},
  };
  for (AlexEngine* e : {&engine, &resumed}) {
    for (const FeedbackItem& item : remainder) e->ProcessFeedback(item);
    const EngineEpisodeStats stats = e->EndEpisode();
    EXPECT_GT(stats.rollbacks, 0u);
    e->ProcessFeedback(FeedbackItem{L(5), R(5), true});
    e->EndEpisode();
  }
  EXPECT_EQ(Bytes(engine), Bytes(resumed));
  EXPECT_EQ(engine.candidates(), resumed.candidates());
  EXPECT_DOUBLE_EQ(engine.policy().epsilon(), resumed.policy().epsilon());
  EXPECT_EQ(engine.episodes_completed(), 2u);
  EXPECT_EQ(resumed.episodes_completed(), 2u);
}

TEST_F(EngineCheckpointTest, CorruptPayloadLeavesEngineUntouched) {
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  engine.EndEpisode();
  const std::string snapshot = Bytes(engine);

  AlexEngine victim(&space_, config_, 5);
  victim.InitializeCandidates({PackPair(L(1), R(1))});
  victim.ProcessFeedback(FeedbackItem{L(1), R(1), true});
  const std::string before = Bytes(victim);

  // Truncations at various depths: every one must fail with a Status and
  // leave the victim's state byte-identical to before the attempt.
  for (size_t cut : {size_t{0}, size_t{3}, snapshot.size() / 2,
                     snapshot.size() - 1}) {
    BinaryReader r(std::string_view(snapshot).substr(0, cut));
    EXPECT_FALSE(victim.LoadState(&r).ok()) << "cut at " << cut;
    EXPECT_EQ(Bytes(victim), before) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// Polymorphic policy sections (format v2) and their failure modes.

/// Splits a v2 engine payload into its tag, the bare policy payload, and
/// the remainder (RNG + engine tables). Layout: WriteBytes(tag) +
/// WriteBytes(policy payload) + remainder.
struct SplitEnginePayload {
  std::string tag;
  std::string policy;
  std::string remainder;
};

SplitEnginePayload SplitV2(const std::string& snapshot) {
  SplitEnginePayload out;
  BinaryReader r(snapshot);
  std::string_view view;
  EXPECT_TRUE(r.ReadBytesView(&view).ok());
  out.tag = std::string(view);
  EXPECT_TRUE(r.ReadBytesView(&view).ok());
  out.policy = std::string(view);
  EXPECT_TRUE(r.ReadRaw(r.remaining(), &view).ok());
  out.remainder = std::string(view);
  return out;
}

TEST_F(EngineCheckpointTest, SavedPolicySectionCarriesTypeTag) {
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  const SplitEnginePayload split = SplitV2(Bytes(engine));
  EXPECT_EQ(split.tag, kDefaultPolicyTag);
  EXPECT_FALSE(split.policy.empty());
}

TEST_F(EngineCheckpointTest, UnknownPolicyTagFailsWithNamedStatus) {
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  const SplitEnginePayload split = SplitV2(Bytes(engine));

  // Same payload, the tag spliced to one no build registers.
  BinaryWriter w;
  w.WriteBytes("martian-policy");
  w.WriteBytes(split.policy);
  w.WriteRaw(split.remainder);
  const std::string spliced = w.Release();

  AlexEngine victim(&space_, config_, 5);
  victim.InitializeCandidates({PackPair(L(1), R(1))});
  const std::string before = Bytes(victim);
  BinaryReader r(spliced);
  const Status st = victim.LoadState(&r);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The error names the section and the offending tag.
  EXPECT_NE(st.message().find("policy section"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("martian-policy"), std::string::npos)
      << st.message();
  EXPECT_EQ(Bytes(victim), before);
}

TEST_F(EngineCheckpointTest, ForeignPolicyTagFailsWithNamedStatus) {
  rl::RegisterAdaptiveFeaturePolicy();
  // Snapshot taken under the default policy, restored into an engine
  // configured for a different (registered) one: both tags must be named.
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  const std::string snapshot = Bytes(engine);

  AlexConfig other = config_;
  other.policy = "adaptive-feature";
  AlexEngine victim(&space_, other, 5);
  BinaryReader r(snapshot);
  const Status st = victim.LoadState(&r);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("policy section"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("epsilon-greedy"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("adaptive-feature"), std::string::npos)
      << st.message();
}

TEST_F(EngineCheckpointTest, Version1PayloadStillLoads) {
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(1), R(1))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  engine.EndEpisode();
  const std::string snapshot = Bytes(engine);
  const SplitEnginePayload split = SplitV2(snapshot);

  // A version-1 payload is the same bytes with the policy inlined bare:
  // no tag, no length prefix.
  const std::string v1_bytes = split.policy + split.remainder;

  AlexEngine restored(&space_, config_, 99);
  BinaryReader r(v1_bytes);
  ASSERT_TRUE(restored.LoadState(&r, /*format_version=*/1).ok());
  EXPECT_TRUE(r.AtEnd());
  // Saving the restored engine (always v2) reproduces the original bytes.
  EXPECT_EQ(Bytes(restored), snapshot);
}

TEST_F(EngineCheckpointTest, Version1PayloadRejectedUnderNonDefaultPolicy) {
  rl::RegisterAdaptiveFeaturePolicy();
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  const SplitEnginePayload split = SplitV2(Bytes(engine));
  const std::string v1_bytes = split.policy + split.remainder;

  AlexConfig other = config_;
  other.policy = "adaptive-feature";
  AlexEngine victim(&space_, other, 5);
  BinaryReader r(v1_bytes);
  const Status st = victim.LoadState(&r, /*format_version=*/1);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("version-1"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("adaptive-feature"), std::string::npos)
      << st.message();
}

TEST_F(EngineCheckpointTest, AdaptivePolicyEngineRoundTrips) {
  rl::RegisterAdaptiveFeaturePolicy();
  AlexConfig config = config_;
  config.policy = "adaptive-feature";
  AlexEngine engine(&space_, config, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0)), PackPair(L(1), R(1))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  engine.ProcessFeedback(FeedbackItem{L(2), R(2), false});
  engine.EndEpisode();
  const std::string snapshot = Bytes(engine);
  EXPECT_EQ(SplitV2(snapshot).tag, "adaptive-feature");

  AlexEngine resumed(&space_, config, 99);
  BinaryReader r(snapshot);
  ASSERT_TRUE(resumed.LoadState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Bytes(resumed), snapshot);
  EXPECT_EQ(resumed.candidates(), engine.candidates());

  // Both timelines continue identically after the round trip.
  for (AlexEngine* e : {&engine, &resumed}) {
    e->ProcessFeedback(FeedbackItem{L(3), R(3), true});
    e->EndEpisode();
  }
  EXPECT_EQ(Bytes(engine), Bytes(resumed));
}

// ---------------------------------------------------------------------------
// Declared counts beyond the payload. Each payload is hand-built and valid
// up to one count field, which declares 2^62 records: the load must fail
// with a ParseError before anything is sized from the count, and leave the
// victim as it was.

constexpr uint64_t kHugeCount = uint64_t{1} << 62;

void WriteRngWords(BinaryWriter* w) {
  for (uint64_t word = 1; word <= 4; ++word) w->WriteU64(word);
}

/// A v2 engine payload up to and including `empty_sections` empty counts
/// (0-4: the five key sets, 5: generators, 6: generated links, 7: negative
/// counts, 8: link negative counts), ready for the next count field.
BinaryWriter EnginePrefix(int empty_sections) {
  BinaryWriter policy;
  EpsilonGreedyPolicy(0.3, 1).SaveState(&policy);
  BinaryWriter w;
  w.WriteBytes(kDefaultPolicyTag);
  w.WriteBytes(policy.buffer());
  WriteRngWords(&w);
  w.WriteU64(0);  // Episodes completed.
  for (int i = 0; i < empty_sections; ++i) w.WriteU64(0);
  return w;
}

/// Loads every payload into `victim`; each must fail as described above.
template <typename Victim, typename SnapshotFn>
void ExpectCountsRejected(Victim* victim, SnapshotFn snapshot,
                          const std::vector<std::string>& payloads) {
  const std::string before = snapshot(*victim);
  for (size_t i = 0; i < payloads.size(); ++i) {
    BinaryReader r(payloads[i]);
    const Status st = victim->LoadState(&r);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "payload " << i << st;
    EXPECT_NE(st.message().find("exceed the payload"), std::string::npos)
        << "payload " << i << ": " << st;
    EXPECT_EQ(snapshot(*victim), before) << "payload " << i;
  }
}

std::string PolicyBytes(const Policy& policy) {
  BinaryWriter w;
  policy.SaveState(&w);
  return w.Release();
}

TEST_F(EngineCheckpointTest, KeySetCountBeyondPayloadRejected) {
  AlexEngine victim(&space_, config_, 5);
  victim.InitializeCandidates({PackPair(L(1), R(1))});
  victim.ProcessFeedback(FeedbackItem{L(1), R(1), true});
  std::vector<std::string> payloads;
  for (int set = 0; set < 5; ++set) {
    BinaryWriter w = EnginePrefix(set);
    w.WriteU64(kHugeCount);
    payloads.push_back(w.Release());
  }
  ExpectCountsRejected(&victim, Bytes, payloads);
}

TEST_F(EngineCheckpointTest, EngineTableCountsBeyondPayloadRejected) {
  AlexEngine victim(&space_, config_, 5);
  victim.InitializeCandidates({PackPair(L(1), R(1))});
  victim.ProcessFeedback(FeedbackItem{L(1), R(1), true});
  std::vector<std::string> payloads;
  // Generators, generated links, negative counts, link negative counts,
  // episode states.
  for (int table = 5; table < 10; ++table) {
    BinaryWriter w = EnginePrefix(table);
    w.WriteU64(kHugeCount);
    payloads.push_back(w.Release());
  }
  {  // One generator entry whose state-action list is huge.
    BinaryWriter w = EnginePrefix(5);
    w.WriteU64(1);
    w.WriteU64(PackPair(L(0), R(0)));
    w.WriteU64(kHugeCount);
    payloads.push_back(w.Release());
  }
  {  // One generated-link entry whose link list is huge.
    BinaryWriter w = EnginePrefix(6);
    w.WriteU64(1);
    w.WriteU64(PackPair(L(0), R(0)));  // State.
    w.WriteU64(0);                     // Action.
    w.WriteU64(kHugeCount);
    payloads.push_back(w.Release());
  }
  ExpectCountsRejected(&victim, Bytes, payloads);
}

TEST_F(EngineCheckpointTest, EpsilonGreedyPolicyCountsBeyondPayloadRejected) {
  AlexEngine engine(&space_, config_, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  engine.EndEpisode();
  EpsilonGreedyPolicy victim(0.3, 5);
  const std::string trained = PolicyBytes(engine.policy());
  BinaryReader tr(trained);
  ASSERT_TRUE(victim.LoadState(&tr).ok());

  // Returns, global returns, greedy actions.
  std::vector<std::string> payloads;
  for (int table = 0; table < 3; ++table) {
    BinaryWriter w;
    w.WriteDouble(0.3);
    WriteRngWords(&w);
    for (int i = 0; i < table; ++i) w.WriteU64(0);
    w.WriteU64(kHugeCount);
    payloads.push_back(w.Release());
  }
  ExpectCountsRejected(&victim, PolicyBytes, payloads);
}

TEST_F(EngineCheckpointTest, AdaptivePolicyCountBeyondPayloadRejected) {
  rl::RegisterAdaptiveFeaturePolicy();
  AlexConfig config = config_;
  config.policy = "adaptive-feature";
  AlexEngine engine(&space_, config, 17);
  engine.InitializeCandidates({PackPair(L(0), R(0))});
  engine.ProcessFeedback(FeedbackItem{L(0), R(0), true});
  engine.EndEpisode();
  rl::AdaptiveFeaturePolicy victim(0.3, 0.5, 5);
  const std::string trained = PolicyBytes(engine.policy());
  BinaryReader tr(trained);
  ASSERT_TRUE(victim.LoadState(&tr).ok());

  BinaryWriter w;
  EpsilonGreedyPolicy(0.3, 1).SaveState(&w);
  w.WriteDouble(0.3);
  w.WriteDouble(0.5);
  WriteRngWords(&w);
  w.WriteU64(kHugeCount);  // Feature payoffs.
  ExpectCountsRejected(&victim, PolicyBytes, {w.Release()});
}

// ---------------------------------------------------------------------------
// LinkIndex snapshot.

TEST(LinkIndexCheckpointTest, RoundTripPreservesIdsOrderAndEpoch) {
  fed::LinkIndex index;
  index.Add("http://l/a", "http://r/x");
  index.Add("http://l/a", "http://r/y");
  index.Add("http://l/b", "http://r/x");
  index.Add("http://l/c", "http://r/z");
  index.Remove("http://l/b", "http://r/x");  // Retired id stays interned.
  ASSERT_EQ(index.size(), 3u);

  BinaryWriter w;
  index.SaveState(&w);
  const std::string bytes = w.Release();

  fed::LinkIndex restored;
  BinaryReader r(bytes);
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.size(), index.size());
  EXPECT_EQ(restored.epoch(), index.epoch());
  EXPECT_EQ(restored.AllLinks(), index.AllLinks());
  // Interned ids and co-referent enumeration order survive.
  EXPECT_EQ(restored.IdOf("http://l/a"), index.IdOf("http://l/a"));
  EXPECT_EQ(restored.IdOf("http://l/b"), index.IdOf("http://l/b"));
  EXPECT_EQ(restored.RightsFor("http://l/a"), index.RightsFor("http://l/a"));
  EXPECT_EQ(restored.RightIdsFor(index.IdOf("http://l/a")),
            index.RightIdsFor(index.IdOf("http://l/a")));

  // A restored index serializes to the same bytes.
  BinaryWriter w2;
  restored.SaveState(&w2);
  EXPECT_EQ(w2.Release(), bytes);
}

TEST(LinkIndexCheckpointTest, CorruptSnapshotRejectedWithoutMutation) {
  fed::LinkIndex index;
  index.Add("http://l/a", "http://r/x");
  BinaryWriter w;
  index.SaveState(&w);
  const std::string bytes = w.Release();

  fed::LinkIndex victim;
  victim.Add("http://l/v", "http://r/v");
  const uint64_t epoch_before = victim.epoch();
  BinaryReader r(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_FALSE(victim.LoadState(&r).ok());
  EXPECT_EQ(victim.epoch(), epoch_before);
  EXPECT_TRUE(victim.Contains("http://l/v", "http://r/v"));
  EXPECT_EQ(victim.size(), 1u);
}

// ---------------------------------------------------------------------------
// Full-run resume equivalence through the simulation driver.

simulation::SimulationConfig SmallConfig() {
  simulation::SimulationConfig config;
  config.scenario.name = "ckpt-unit";
  config.scenario.seed = 33;
  config.scenario.num_shared = 40;
  config.scenario.num_left_only = 30;
  config.scenario.num_right_only = 15;
  config.scenario.domains = {"person"};
  config.scenario.value_noise = 0.4;
  config.scenario.ambiguity = 0.2;
  config.alex.episode_size = 50;
  config.alex.num_partitions = 3;
  config.alex.num_threads = 2;
  config.alex.max_episodes = 14;
  return config;
}

/// Every field of two episode series except wall time must agree.
void ExpectSameSeries(const std::vector<simulation::EpisodeRecord>& a,
                      const std::vector<simulation::EpisodeRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("episode " + std::to_string(i));
    EXPECT_EQ(a[i].episode, b[i].episode);
    EXPECT_DOUBLE_EQ(a[i].metrics.precision, b[i].metrics.precision);
    EXPECT_DOUBLE_EQ(a[i].metrics.recall, b[i].metrics.recall);
    EXPECT_DOUBLE_EQ(a[i].metrics.f_measure, b[i].metrics.f_measure);
    EXPECT_EQ(a[i].metrics.correct, b[i].metrics.correct);
    EXPECT_EQ(a[i].metrics.candidates, b[i].metrics.candidates);
    EXPECT_EQ(a[i].links_changed, b[i].links_changed);
    EXPECT_EQ(a[i].positive_feedback, b[i].positive_feedback);
    EXPECT_EQ(a[i].negative_feedback, b[i].negative_feedback);
    EXPECT_EQ(a[i].links_added, b[i].links_added);
    EXPECT_EQ(a[i].links_removed, b[i].links_removed);
    EXPECT_EQ(a[i].rollbacks, b[i].rollbacks);
  }
}

TEST(SimulationCheckpointTest, ResumedRunMatchesUninterruptedRun) {
  const std::string dir = ScratchDir("sim_resume");

  // Reference: one uninterrupted run.
  simulation::SimulationConfig ref_config = SmallConfig();
  std::unordered_set<feedback::PairKey> ref_final;
  simulation::Simulation ref_sim(ref_config);
  ref_sim.set_observer([&](size_t, const PartitionedAlex& alex) {
    ref_final = alex.Candidates();
  });
  const simulation::RunResult reference = ref_sim.Run();
  ASSERT_GT(reference.episodes.size(), 7u)
      << "scenario too small to cover the checkpoint boundary";

  // Interrupted: same config, checkpoints every 2 episodes, killed (via the
  // episode budget) after episode 6.
  simulation::SimulationConfig trunc_config = SmallConfig();
  trunc_config.alex.max_episodes = 6;
  trunc_config.checkpoint_every_k_episodes = 2;
  trunc_config.checkpoint_dir = dir;
  const simulation::RunResult truncated =
      simulation::Simulation(trunc_config).Run();
  ASSERT_TRUE(truncated.resume_error.ok());
  ASSERT_EQ(truncated.converged_episode, 0u)
      << "scenario converged before the kill point; pick a later boundary";

  // Resumed: full episode budget, restoring from the newest checkpoint.
  simulation::SimulationConfig res_config = SmallConfig();
  res_config.resume_from = dir;
  std::unordered_set<feedback::PairKey> res_final;
  simulation::Simulation res_sim(res_config);
  res_sim.set_observer([&](size_t, const PartitionedAlex& alex) {
    res_final = alex.Candidates();
  });
  const simulation::RunResult resumed = res_sim.Run();
  ASSERT_TRUE(resumed.resume_error.ok()) << resumed.resume_error;
  EXPECT_EQ(resumed.resumed_from_episode, 6u);

  // The resumed run must be indistinguishable from the uninterrupted one:
  // identical per-episode series (including the restored prefix),
  // convergence figures, and final candidate set.
  ExpectSameSeries(reference.episodes, resumed.episodes);
  EXPECT_EQ(reference.converged_episode, resumed.converged_episode);
  EXPECT_EQ(reference.relaxed_episode, resumed.relaxed_episode);
  EXPECT_EQ(reference.new_links_discovered, resumed.new_links_discovered);
  EXPECT_EQ(ref_final, res_final);
}

TEST(SimulationCheckpointTest, CorruptCheckpointAbortsResume) {
  const std::string dir = ScratchDir("sim_corrupt");

  simulation::SimulationConfig config = SmallConfig();
  config.alex.max_episodes = 4;
  config.checkpoint_every_k_episodes = 2;
  config.checkpoint_dir = dir;
  ASSERT_TRUE(simulation::Simulation(config).Run().resume_error.ok());

  // Flip one payload byte in the newest checkpoint.
  auto latest = CheckpointManager::ResolveLatest(dir);
  ASSERT_TRUE(latest.ok());
  auto blob = CheckpointManager::ReadBlob(*latest);
  ASSERT_TRUE(blob.ok());
  std::string corrupted = *blob;
  corrupted[corrupted.size() - 1] ^= 0x01;
  std::ofstream(*latest, std::ios::binary | std::ios::trunc) << corrupted;

  simulation::SimulationConfig res_config = SmallConfig();
  res_config.resume_from = dir;
  const simulation::RunResult result =
      simulation::Simulation(res_config).Run();
  EXPECT_FALSE(result.resume_error.ok());
  EXPECT_EQ(result.resumed_from_episode, 0u);
  // The run aborts after the initial record instead of silently diverging.
  EXPECT_EQ(result.episodes.size(), 1u);
}

TEST(SimulationCheckpointTest, MismatchedConfigRejectedOnResume) {
  const std::string dir = ScratchDir("sim_mismatch");

  simulation::SimulationConfig config = SmallConfig();
  config.alex.max_episodes = 4;
  config.checkpoint_every_k_episodes = 2;
  config.checkpoint_dir = dir;
  ASSERT_TRUE(simulation::Simulation(config).Run().resume_error.ok());

  // Resuming under different engine tunables must be refused (fingerprint).
  simulation::SimulationConfig res_config = SmallConfig();
  res_config.resume_from = dir;
  res_config.alex.epsilon = config.alex.epsilon + 0.05;
  const simulation::RunResult result =
      simulation::Simulation(res_config).Run();
  EXPECT_EQ(result.resume_error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.episodes.size(), 1u);
}

TEST(SimulationCheckpointTest, ForeignLinkerTagRejectedOnResume) {
  const std::string dir = ScratchDir("sim_foreign_linker");

  simulation::SimulationConfig config = SmallConfig();
  config.alex.max_episodes = 4;
  config.checkpoint_every_k_episodes = 2;
  config.checkpoint_dir = dir;
  ASSERT_TRUE(simulation::Simulation(config).Run().resume_error.ok());

  // The checkpoint records linker "paris"; resuming under "sigma" would
  // silently re-seed the link space from a different matcher, so it must be
  // refused by name rather than fingerprint (the engine config is equal).
  simulation::SimulationConfig res_config = SmallConfig();
  res_config.resume_from = dir;
  res_config.linker = std::string(paris::kSigmaLinkerTag);
  const simulation::RunResult result =
      simulation::Simulation(res_config).Run();
  EXPECT_EQ(result.resume_error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.resume_error.message().find("paris"), std::string::npos)
      << result.resume_error;
  EXPECT_NE(result.resume_error.message().find("sigma"), std::string::npos)
      << result.resume_error;
  EXPECT_EQ(result.resumed_from_episode, 0u);
  EXPECT_EQ(result.episodes.size(), 1u);
}

TEST(SimulationCheckpointTest, EpisodeCountBeyondPayloadRejected) {
  const std::string dir = ScratchDir("sim_huge_series");
  const simulation::SimulationConfig config = SmallConfig();

  // A well-formed container whose payload claims 2^62 + 1 episode records
  // (consistent with its boundary episode) but carries none.
  const uint64_t boundary = uint64_t{1} << 62;
  BinaryWriter w;
  w.WriteBytes(paris::kParisLinkerTag);
  w.WriteU64(boundary);
  for (uint64_t word : Rng(0).SaveState()) w.WriteU64(word);
  w.WriteDouble(config.feedback_error_rate);
  w.WriteU64(config.oracle_seed);
  w.WriteU64(0);  // relaxed_episode
  w.WriteU64(boundary + 1);
  const std::string path = dir + "/huge.alexckpt";
  std::ofstream(path, std::ios::binary)
      << WrapPayload(PayloadKind::kSimulation,
                     ConfigFingerprint(config.alex), w.buffer());

  simulation::SimulationConfig res_config = config;
  res_config.resume_from = path;
  const simulation::RunResult result =
      simulation::Simulation(res_config).Run();
  EXPECT_EQ(result.resume_error.code(), StatusCode::kParseError)
      << result.resume_error;
  EXPECT_EQ(result.resumed_from_episode, 0u);
  EXPECT_EQ(result.relaxed_episode, 0u);
  ASSERT_EQ(result.episodes.size(), 1u);
  EXPECT_EQ(result.episodes[0].episode, 0u);
}

// ---------------------------------------------------------------------------
// Backward compatibility: a committed format-v1 checkpoint (written before
// the pluggable linker/policy refactor) must still resume, and the resumed
// run must match an uninterrupted one episode for episode.

/// The exact configuration the v1 fixture was produced with. Do not change:
/// the fingerprint inside the fixture binds to these values.
simulation::SimulationConfig V1FixtureConfig() {
  simulation::SimulationConfig config;
  config.scenario = datagen::DbpediaSwdf();
  config.alex.episode_size = 120;
  config.alex.max_episodes = 4;
  config.feedback_error_rate = 0.1;
  return config;
}

TEST(SimulationCheckpointTest, FormatV1CheckpointStillResumes) {
  const std::string fixture =
      std::string(ALEX_TESTDATA_DIR) + "/sim_v1_dbpedia_swdf.alexckpt";
  ASSERT_TRUE(fs::exists(fixture)) << fixture;

  // Reference: the same run, uninterrupted, for 6 episodes.
  simulation::SimulationConfig ref_config = V1FixtureConfig();
  ref_config.alex.max_episodes = 6;
  const simulation::RunResult reference =
      simulation::Simulation(ref_config).Run();

  // Resume from the pre-refactor blob (episode boundary 4) and finish.
  simulation::SimulationConfig res_config = V1FixtureConfig();
  res_config.alex.max_episodes = 6;
  res_config.resume_from = fixture;
  const simulation::RunResult resumed =
      simulation::Simulation(res_config).Run();
  ASSERT_TRUE(resumed.resume_error.ok()) << resumed.resume_error;
  EXPECT_EQ(resumed.resumed_from_episode, 4u);

  ExpectSameSeries(reference.episodes, resumed.episodes);
  EXPECT_EQ(reference.converged_episode, resumed.converged_episode);
  EXPECT_EQ(reference.new_links_discovered, resumed.new_links_discovered);
}

TEST(SimulationCheckpointTest, FormatV1CheckpointRejectsNonParisLinker) {
  const std::string fixture =
      std::string(ALEX_TESTDATA_DIR) + "/sim_v1_dbpedia_swdf.alexckpt";
  ASSERT_TRUE(fs::exists(fixture)) << fixture;

  // Version-1 blobs have no linker section; the format implies "paris".
  simulation::SimulationConfig res_config = V1FixtureConfig();
  res_config.alex.max_episodes = 6;
  res_config.resume_from = fixture;
  res_config.linker = std::string(paris::kSigmaLinkerTag);
  const simulation::RunResult result =
      simulation::Simulation(res_config).Run();
  EXPECT_EQ(result.resume_error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.resume_error.message().find("version-1"), std::string::npos)
      << result.resume_error;
  EXPECT_EQ(result.resumed_from_episode, 0u);
}

}  // namespace
}  // namespace alex::core::ckpt
