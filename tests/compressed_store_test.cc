#include "rdf/compressed_store.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "obs/metrics.h"
#include "rdf/block_format.h"
#include "rdf/dataset.h"
#include "rdf/triple_store.h"

namespace alex::rdf {
namespace {

Triple T(TermId s, TermId p, TermId o) { return Triple{s, p, o}; }

std::vector<Triple> CuratedTriples() {
  return {
      T(0, 10, 20), T(0, 10, 21), T(0, 11, 22), T(1, 10, 20), T(2, 11, 21),
      T(2, 11, 23), T(3, 10, 20), T(3, 12, 24), T(4, 10, 25), T(5, 12, 20),
  };
}

/// Every pattern shape over the curated fixture, including misses.
std::vector<TriplePattern> CuratedPatterns() {
  const TermId kAny = kInvalidTermId;
  return {
      {kAny, kAny, kAny},  // Full scan.
      {0, kAny, kAny},     {2, kAny, kAny},   {9, kAny, kAny},  // s??
      {kAny, 10, kAny},    {kAny, 12, kAny},  {kAny, 99, kAny},  // ?p?
      {kAny, kAny, 20},    {kAny, kAny, 24},  {kAny, kAny, 99},  // ??o
      {0, 10, kAny},       {3, 12, kAny},     {0, 12, kAny},     // sp?
      {kAny, 10, 20},      {kAny, 11, 23},    {kAny, 10, 24},    // ?po
      {0, kAny, 21},       {5, kAny, 20},     {1, kAny, 21},     // s?o
      {0, 10, 20},         {2, 11, 23},       {2, 11, 20},       // spo
  };
}

void ExpectEquivalent(const TripleSource& reference, const TripleSource& probe,
                      const std::vector<TriplePattern>& patterns) {
  ASSERT_EQ(reference.size(), probe.size());
  EXPECT_EQ(reference.DistinctPredicates(), probe.DistinctPredicates());
  EXPECT_EQ(reference.DistinctSubjects(), probe.DistinctSubjects());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const TriplePattern& p = patterns[i];
    EXPECT_EQ(reference.Match(p), probe.Match(p))
        << "pattern " << i << " (" << p.subject << "," << p.predicate << ","
        << p.object << ")";
    EXPECT_EQ(reference.CountMatches(p), probe.CountMatches(p)) << "pattern " << i;
  }
}

TripleStore ReferenceStore(const std::vector<Triple>& triples) {
  TripleStore store;
  for (const Triple& t : triples) store.Add(t);
  return store;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CompressedStoreTest, CuratedEquivalenceAcrossBlockBoundaries) {
  const auto triples = CuratedTriples();
  const TripleStore reference = ReferenceStore(triples);
  // block_size 4 forces several blocks per ordering; 1 is the degenerate
  // one-triple-per-block case.
  for (size_t block_size : {1u, 2u, 4u, 1024u}) {
    CompressedStoreOptions opts;
    opts.block_size = block_size;
    const auto store = CompressedTripleStore::FromTriples(triples, opts);
    SCOPED_TRACE("block_size=" + std::to_string(block_size));
    ExpectEquivalent(reference, store, CuratedPatterns());
  }
}

TEST(CompressedStoreTest, NumBlocksMatchesBlockSize) {
  CompressedStoreOptions opts;
  opts.block_size = 4;
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples(), opts);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.NumBlocks(TripleOrder::kSpo), 3u);  // ceil(10 / 4).
  EXPECT_EQ(store.NumBlocks(TripleOrder::kPos), 3u);
  EXPECT_EQ(store.NumBlocks(TripleOrder::kOsp), 3u);
  EXPECT_FALSE(store.disk_backed());
  EXPECT_GT(store.BytesPerTriple(), 0.0);
}

TEST(CompressedStoreTest, BuildFromTripleStoreAndDeduplication) {
  TripleStore reference = ReferenceStore(CuratedTriples());
  reference.Add(T(0, 10, 20));  // Duplicate; both stores must drop it.
  const auto store = CompressedTripleStore::Build(reference);
  ExpectEquivalent(reference, store, CuratedPatterns());
}

TEST(CompressedStoreTest, FuzzedEquivalenceInMemory) {
  datagen::TripleWorkloadConfig config;
  config.seed = 20260808;
  config.num_triples = 20000;
  const auto triples = datagen::GenerateTripleWorkload(config);
  const auto patterns = datagen::GeneratePatternWorkload(triples, 400, 99);
  const TripleStore reference = ReferenceStore(triples);
  CompressedStoreOptions opts;
  opts.block_size = 64;
  const auto store = CompressedTripleStore::FromTriples(triples, opts);
  ExpectEquivalent(reference, store, patterns);
}

TEST(CompressedStoreTest, EmptyStore) {
  const auto store = CompressedTripleStore::FromTriples({});
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Match(TriplePattern{}).empty());
  EXPECT_TRUE(store.DistinctPredicates().empty());
  EXPECT_TRUE(store.DistinctSubjects().empty());

  const std::string path = TempPath("empty.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->size(), 0u);
  EXPECT_TRUE(opened->Match(TriplePattern{}).empty());
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, MaxTermIdRoundTrip) {
  // kInvalidTermId is the wildcard, so UINT32_MAX - 1 is the largest legal
  // component; the varint delta path must survive the full id range.
  const TermId big = kInvalidTermId - 1;
  const std::vector<Triple> triples = {
      T(0, 0, 0), T(0, 0, big), T(big, big, big), T(big, 0, 5), T(7, big, 0),
  };
  const TripleStore reference = ReferenceStore(triples);
  CompressedStoreOptions opts;
  opts.block_size = 2;
  const auto store = CompressedTripleStore::FromTriples(triples, opts);
  const TermId kAny = kInvalidTermId;
  const std::vector<TriplePattern> patterns = {
      {kAny, kAny, kAny}, {big, kAny, kAny}, {kAny, big, kAny},
      {kAny, kAny, big},  {big, big, big},   {big, kAny, 5},
  };
  ExpectEquivalent(reference, store, patterns);

  const std::string path = TempPath("max_termid.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectEquivalent(reference, *opened, patterns);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, EarlyExitStopsScan) {
  CompressedStoreOptions opts;
  opts.block_size = 2;
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples(), opts);
  size_t calls = 0;
  store.ForEachMatch(TriplePattern{}, [&calls](const Triple&) {
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(CompressedStoreTest, DiskTierEquivalenceAndCacheCounters) {
  datagen::TripleWorkloadConfig config;
  config.seed = 7;
  config.num_triples = 5000;
  const auto triples = datagen::GenerateTripleWorkload(config);
  const auto patterns = datagen::GeneratePatternWorkload(triples, 200, 5);
  const TripleStore reference = ReferenceStore(triples);

  CompressedStoreOptions opts;
  opts.block_size = 128;
  const auto mem = CompressedTripleStore::FromTriples(triples, opts);
  const std::string path = TempPath("disk_tier.blocks");
  ASSERT_TRUE(mem.WriteFile(path).ok());

  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t hits_before = registry.counter("rdf.block_cache_hits").Value();
  const uint64_t misses_before =
      registry.counter("rdf.block_cache_misses").Value();

  auto opened = CompressedTripleStore::OpenFile(path, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->disk_backed());
  ExpectEquivalent(reference, *opened, patterns);
  // Run the patterns again: the second pass must hit the cache.
  ExpectEquivalent(reference, *opened, patterns);

  EXPECT_GT(registry.counter("rdf.block_cache_misses").Value(), misses_before);
  EXPECT_GT(registry.counter("rdf.block_cache_hits").Value(), hits_before);
  ASSERT_NE(opened->cache(), nullptr);
  EXPECT_GT(opened->cache()->entries(), 0u);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, CacheEvictionAndInvalidation) {
  const auto triples = CuratedTriples();
  CompressedStoreOptions opts;
  opts.block_size = 1;                // Ten blocks per ordering.
  opts.cache_budget_bytes = 1;        // Evict on every insert, keep one.
  const auto mem = CompressedTripleStore::FromTriples(triples, opts);
  const std::string path = TempPath("evict.blocks");
  ASSERT_TRUE(mem.WriteFile(path).ok());

  auto& evictions = obs::MetricsRegistry::Global().counter(
      "rdf.block_cache_evictions");
  const uint64_t evictions_before = evictions.Value();
  auto opened = CompressedTripleStore::OpenFile(path, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->Match(TriplePattern{}).size(), triples.size());
  EXPECT_GT(evictions.Value(), evictions_before);
  ASSERT_NE(opened->cache(), nullptr);
  EXPECT_LE(opened->cache()->entries(), 1u);  // Budget keeps one survivor.

  const uint64_t epoch_before = opened->cache()->epoch();
  opened->InvalidateCache();
  EXPECT_EQ(opened->cache()->epoch(), epoch_before + 1);
  EXPECT_EQ(opened->cache()->entries(), 0u);
  // Still fully queryable after invalidation.
  EXPECT_EQ(opened->Match(TriplePattern{}).size(), triples.size());
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsBadMagic) {
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples());
  const std::string path = TempPath("badmagic.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0x7f;
  WriteFileBytes(path, bytes);
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsTruncation) {
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples());
  const std::string path = TempPath("truncated.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Every proper prefix must be rejected cleanly (never UB / crash).
  for (size_t keep : {size_t{4}, size_t{20}, size_t{40}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteFileBytes(path, bytes.substr(0, keep));
    auto opened = CompressedTripleStore::OpenFile(path);
    ASSERT_FALSE(opened.ok()) << "prefix of " << keep << " bytes";
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  }
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsCorruptFenceCount) {
  CompressedStoreOptions opts;
  opts.block_size = 4;
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples(), opts);
  const std::string path = TempPath("badcount.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  std::string bytes = ReadFileBytes(path);
  // First block meta of the SPO ordering starts at byte 32 (after magic,
  // version, block_size, num_triples, nblocks); its count field sits after
  // the two 12-byte fence keys.
  const size_t count_off = 32 + 24;
  for (uint32_t bad : {0u, 5u, 0xffffffffu}) {  // 0, > block_size, huge.
    std::string mutated = bytes;
    for (int i = 0; i < 4; ++i) {
      mutated[count_off + i] = static_cast<char>((bad >> (8 * i)) & 0xff);
    }
    WriteFileBytes(path, mutated);
    auto opened = CompressedTripleStore::OpenFile(path);
    ASSERT_FALSE(opened.ok()) << "count=" << bad;
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  }
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsFenceTableBeyondFile) {
  // A 32-byte hand-built header whose block count agrees with its triple
  // count but whose fence table (2^40 entries) cannot fit in the file.
  const uint64_t kHuge = uint64_t{1} << 40;
  BinaryWriter header;
  header.WriteRaw("ALEXBLK1");
  header.WriteU32(1);  // Format version.
  header.WriteU32(1);  // Block size.
  header.WriteU64(kHuge);  // Triples.
  header.WriteU64(kHuge);  // Blocks in the first ordering.
  ASSERT_EQ(header.buffer().size(), 32u);
  const std::string path = TempPath("hugefence.blocks");
  WriteFileBytes(path, header.buffer());
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsCorruptBlockLength) {
  CompressedStoreOptions opts;
  opts.block_size = 4;
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples(), opts);
  const std::string path = TempPath("badlen.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Length field of the first SPO block: meta base 32, +24 fences, +4
  // count, +8 offset.
  const size_t length_off = 32 + 24 + 4 + 8;
  const uint32_t bad = 0x7fffffff;  // Extends far past the payload section.
  for (int i = 0; i < 4; ++i) {
    bytes[length_off + i] = static_cast<char>((bad >> (8 * i)) & 0xff);
  }
  WriteFileBytes(path, bytes);
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, OpenRejectsPayloadSizeMismatch) {
  const auto store = CompressedTripleStore::FromTriples(CuratedTriples());
  const std::string path = TempPath("extrabytes.blocks");
  ASSERT_TRUE(store.WriteFile(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes.push_back('\0');  // Trailing garbage.
  WriteFileBytes(path, bytes);
  auto opened = CompressedTripleStore::OpenFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, CorruptPayloadBlockIsSkippedAndCounted) {
  datagen::TripleWorkloadConfig config;
  config.seed = 3;
  config.num_triples = 1000;
  const auto triples = datagen::GenerateTripleWorkload(config);
  CompressedStoreOptions opts;
  opts.block_size = 64;
  const auto mem = CompressedTripleStore::FromTriples(triples, opts);
  const std::string path = TempPath("badpayload.blocks");
  ASSERT_TRUE(mem.WriteFile(path).ok());

  // Flip the first payload byte: the header stays valid, but the first SPO
  // block fails its checksum at decode time.
  std::string bytes = ReadFileBytes(path);
  const size_t payload_start = bytes.size() - mem.PayloadBytes();
  bytes[payload_start] ^= 0x55;
  WriteFileBytes(path, bytes);

  auto& errors =
      obs::MetricsRegistry::Global().counter("rdf.block_decode_errors");
  const uint64_t errors_before = errors.Value();
  auto opened = CompressedTripleStore::OpenFile(path, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const size_t scanned = opened->Match(TriplePattern{}).size();
  // The corrupt block's triples are skipped, everything else is served.
  EXPECT_LT(scanned, opened->size());
  EXPECT_GE(scanned, opened->size() - opts.block_size);
  EXPECT_GT(errors.Value(), errors_before);
  std::remove(path.c_str());
}

TEST(CompressedStoreTest, DatasetBackendSwapKeepsQueriesIdentical) {
  Dataset ds("swap-test");
  ds.AddIriTriple("http://e/a", "http://p/knows", "http://e/b");
  ds.AddIriTriple("http://e/b", "http://p/knows", "http://e/c");
  ds.AddLiteralTriple("http://e/a", "http://p/name", Term::Literal("Ada"));
  const size_t n = ds.num_triples();
  const auto subjects_before = ds.source().DistinctSubjects();

  ds.Compress();
  ASSERT_TRUE(ds.is_compressed());
  EXPECT_EQ(ds.num_triples(), n);
  EXPECT_EQ(ds.source().DistinctSubjects(), subjects_before);

  // Mutation decompresses transparently and lands in the mutable store.
  ds.AddIriTriple("http://e/c", "http://p/knows", "http://e/a");
  EXPECT_FALSE(ds.is_compressed());
  EXPECT_EQ(ds.num_triples(), n + 1);

  const std::string path = TempPath("swap.blocks");
  ASSERT_TRUE(ds.CompressToDisk(path).ok());
  ASSERT_TRUE(ds.is_compressed());
  EXPECT_EQ(ds.num_triples(), n + 1);
  EXPECT_EQ(ds.compressed()->disk_backed(), true);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace alex::rdf
