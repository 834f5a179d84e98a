#ifndef ALEX_EXEC_ARENA_H_
#define ALEX_EXEC_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace alex::exec {

/// Chunked bump (region) allocator for phase-scoped temporaries:
/// dictionary interning allocates millions of small nodes that all die
/// together, so individual free() calls — and the
/// global allocator's locks and size-class bookkeeping — are pure
/// overhead. Allocation is a pointer bump within the current chunk; a full
/// chunk moves on to the next (reusing retained chunks before asking the
/// OS for more); deallocation is a no-op; Reset() makes every chunk's
/// bytes reusable at once.
///
/// Lifetime rule: memory returned by Allocate() is valid until Reset() or
/// destruction, whichever comes first — never hand arena-backed containers
/// to anything that outlives the arena. Requests larger than the chunk
/// size get a dedicated chunk of exactly the requested size (also retained
/// across Reset). Not thread-safe: one arena per worker/build, by design —
/// cross-thread sharing would reintroduce the synchronization this class
/// exists to remove.
///
/// Growth caveat for geometric containers (vectors, hash tables): the old
/// buffer's bytes are not reclaimed until Reset, so peak arena footprint
/// is bounded by ~2x the final container size. That is the deliberate
/// trade — bytes for zero free()s — and why arenas are scoped to a build
/// phase instead of living forever.
class ArenaAllocator {
 public:
  static constexpr size_t kDefaultChunkBytes = 256 * 1024;

  explicit ArenaAllocator(size_t chunk_bytes = kDefaultChunkBytes);
  ~ArenaAllocator();

  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  /// Returns `bytes` bytes aligned to `align` (a power of two). Never
  /// returns nullptr; throws std::bad_alloc only if the OS refuses a new
  /// chunk. Zero-byte requests return a valid unique-ish pointer.
  void* Allocate(size_t bytes, size_t align);

  /// Rewinds every chunk to empty. All previously returned pointers become
  /// invalid; chunk memory is retained for reuse (an arena that built one
  /// partition rebuilds the next without touching the OS allocator).
  void Reset();

  /// Bytes handed out since construction/Reset (including alignment pad).
  size_t bytes_allocated() const { return bytes_allocated_; }

  /// Bytes held in chunks (the arena's resident footprint).
  size_t bytes_reserved() const { return bytes_reserved_; }

  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  /// Ensures chunks_[active_] has room for (bytes, align); advances through
  /// retained chunks and appends a new one if none fits.
  void* AllocateSlow(size_t bytes, size_t align);

  std::vector<Chunk> chunks_;
  size_t active_ = 0;  ///< Index of the chunk currently bumping.
  size_t chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// std-compatible allocator over an ArenaAllocator, so standard containers
/// can hold build-phase scratch in the arena. A default-constructed (or
/// null-arena) ArenaStl falls back to the global allocator — containers
/// are declared with one allocator type and the arena-vs-heap choice stays
/// a runtime decision, so arena-backed and heap-backed callers run
/// literally the same code.
///
/// Allocators compare equal iff they use the same arena (or are both
/// heap-backed); deallocate() is a no-op for arena-backed instances.
template <typename T>
class ArenaStl {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaStl() noexcept = default;
  explicit ArenaStl(ArenaAllocator* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaStl(const ArenaStl<U>& other) noexcept : arena_(other.arena()) {}

  T* allocate(size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  ArenaAllocator* arena() const { return arena_; }

  friend bool operator==(const ArenaStl& a, const ArenaStl& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaStl& a, const ArenaStl& b) {
    return !(a == b);
  }

 private:
  template <typename U>
  friend class ArenaStl;

  ArenaAllocator* arena_ = nullptr;
};

}  // namespace alex::exec

#endif  // ALEX_EXEC_ARENA_H_
