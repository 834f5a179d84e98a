#include "exec/arena.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace alex::exec {
namespace {

bool IsAligned(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

TEST(ArenaAllocatorTest, AllocationsAreAlignedAndDisjoint) {
  ArenaAllocator arena;
  char* a = static_cast<char*>(arena.Allocate(13, 1));
  char* b = static_cast<char*>(arena.Allocate(16, 8));
  char* c = static_cast<char*>(arena.Allocate(64, 64));
  EXPECT_TRUE(IsAligned(b, 8));
  EXPECT_TRUE(IsAligned(c, 64));
  // Writes must not overlap: fill each block, then verify all survive.
  std::memset(a, 0xaa, 13);
  std::memset(b, 0xbb, 16);
  std::memset(c, 0xcc, 64);
  for (int i = 0; i < 13; ++i) EXPECT_EQ(static_cast<uint8_t>(a[i]), 0xaa);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(static_cast<uint8_t>(b[i]), 0xbb);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(static_cast<uint8_t>(c[i]), 0xcc);
  EXPECT_GE(arena.bytes_allocated(), 13u + 16u + 64u);
}

TEST(ArenaAllocatorTest, SequentialBumpsStayInOneChunk) {
  ArenaAllocator arena(/*chunk_bytes=*/4096);
  for (int i = 0; i < 100; ++i) arena.Allocate(8, 8);
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), 4096u);
}

TEST(ArenaAllocatorTest, OverflowingAChunkAddsAnother) {
  ArenaAllocator arena(/*chunk_bytes=*/1024);
  for (int i = 0; i < 20; ++i) arena.Allocate(100, 8);
  EXPECT_GT(arena.num_chunks(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaAllocatorTest, OversizeRequestGetsDedicatedChunk) {
  ArenaAllocator arena(/*chunk_bytes=*/1024);
  void* small = arena.Allocate(16, 8);
  void* big = arena.Allocate(1 << 20, 64);  // 1 MiB >> chunk size.
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(IsAligned(big, 64));
  std::memset(big, 0x5a, 1 << 20);  // The whole block must be writable.
  // The small allocation's chunk is still usable afterwards.
  void* small2 = arena.Allocate(16, 8);
  EXPECT_NE(small, small2);
  EXPECT_GE(arena.bytes_reserved(), static_cast<size_t>(1 << 20));
}

TEST(ArenaAllocatorTest, ResetRetainsChunksAndReusesMemory) {
  ArenaAllocator arena(/*chunk_bytes=*/1024);
  for (int i = 0; i < 50; ++i) arena.Allocate(64, 8);
  const size_t chunks_before = arena.num_chunks();
  const size_t reserved_before = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.num_chunks(), chunks_before);
  EXPECT_EQ(arena.bytes_reserved(), reserved_before);
  // The same workload after Reset reuses the retained chunks — the arena
  // must not grow again.
  for (int i = 0; i < 50; ++i) arena.Allocate(64, 8);
  EXPECT_EQ(arena.num_chunks(), chunks_before);
  EXPECT_EQ(arena.bytes_reserved(), reserved_before);
}

TEST(ArenaAllocatorTest, ZeroByteAllocationIsValid) {
  ArenaAllocator arena;
  void* p = arena.Allocate(0, 1);
  EXPECT_NE(p, nullptr);
}

TEST(ArenaAllocatorTest, ManyMixedAlignmentsStayAligned) {
  ArenaAllocator arena(/*chunk_bytes=*/512);
  const size_t aligns[] = {1, 2, 4, 8, 16, 32, 64};
  for (int i = 0; i < 500; ++i) {
    const size_t align = aligns[i % 7];
    void* p = arena.Allocate(static_cast<size_t>(i % 37) + 1, align);
    EXPECT_TRUE(IsAligned(p, align)) << "iteration " << i;
  }
}

// --- ArenaStl adapter -----------------------------------------------------

TEST(ArenaStlTest, VectorUsesArena) {
  ArenaAllocator arena;
  std::vector<int, ArenaStl<int>> v{ArenaStl<int>(&arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  EXPECT_GT(arena.bytes_allocated(), 10000 * sizeof(int) / 2);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
}

TEST(ArenaStlTest, NullArenaFallsBackToHeap) {
  // Same container type, no arena behind it.
  std::vector<int, ArenaStl<int>> v;  // Default allocator = heap-backed.
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
}

TEST(ArenaStlTest, UnorderedContainersUseArena) {
  ArenaAllocator arena;
  std::unordered_set<uint64_t, std::hash<uint64_t>, std::equal_to<uint64_t>,
                     ArenaStl<uint64_t>>
      set(/*bucket_count=*/0, std::hash<uint64_t>(), std::equal_to<uint64_t>(),
          ArenaStl<uint64_t>(&arena));
  std::unordered_map<uint64_t, uint64_t, std::hash<uint64_t>,
                     std::equal_to<uint64_t>,
                     ArenaStl<std::pair<const uint64_t, uint64_t>>>
      map(/*bucket_count=*/0, std::hash<uint64_t>(), std::equal_to<uint64_t>(),
          ArenaStl<std::pair<const uint64_t, uint64_t>>(&arena));
  for (uint64_t i = 0; i < 5000; ++i) {
    set.insert(i * 2654435761u);
    map[i] = i * i;
  }
  EXPECT_EQ(set.size(), 5000u);
  EXPECT_EQ(map.size(), 5000u);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(set.count(i * 2654435761u));
    ASSERT_EQ(map[i], i * i);
  }
  EXPECT_GT(arena.bytes_allocated(), 5000u * 2 * sizeof(uint64_t));
}

TEST(ArenaStlTest, AllocatorEqualityFollowsArenaIdentity) {
  ArenaAllocator a, b;
  ArenaStl<int> on_a(&a), on_a2(&a), on_b(&b), heap1, heap2;
  EXPECT_EQ(on_a, on_a2);
  EXPECT_NE(on_a, on_b);
  EXPECT_EQ(heap1, heap2);
  EXPECT_NE(on_a, heap1);
  // Rebinding preserves the arena.
  ArenaStl<double> rebound(on_a);
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaStlTest, NonTrivialElementsDestructCorrectly) {
  // std::string elements own heap storage even when their container nodes
  // live in the arena; container destruction must still run element
  // destructors (deallocate being a no-op is orthogonal).
  ArenaAllocator arena;
  {
    std::vector<std::string, ArenaStl<std::string>> v{
        ArenaStl<std::string>(&arena)};
    for (int i = 0; i < 100; ++i) {
      v.emplace_back("string value long enough to defeat SSO #" +
                     std::to_string(i));
    }
  }  // ASan would flag leaked element storage here.
  SUCCEED();
}

TEST(ArenaStlTest, MoveAssignBetweenArenasKeepsContentsValid) {
  ArenaAllocator a, b;
  std::vector<int, ArenaStl<int>> va{ArenaStl<int>(&a)};
  std::vector<int, ArenaStl<int>> vb{ArenaStl<int>(&b)};
  for (int i = 0; i < 100; ++i) va.push_back(i);
  // propagate_on_container_move_assignment: vb adopts va's allocator and
  // buffer; the contents must survive and live in arena a.
  vb = std::move(va);
  ASSERT_EQ(vb.size(), 100u);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(vb[i], i);
  EXPECT_EQ(vb.get_allocator().arena(), &a);
}

}  // namespace
}  // namespace alex::exec
