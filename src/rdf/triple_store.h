#ifndef ALEX_RDF_TRIPLE_STORE_H_
#define ALEX_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

#include "rdf/triple.h"

namespace alex::rdf {

/// In-memory triple store with SPO, POS, and OSP sorted indexes: the one
/// store behind every Dataset, read by the SPARQL evaluator, federation
/// endpoint probes and the entity index.
///
/// Triples are dictionary-encoded (TermId components). Insertion appends;
/// indexes are (re)built lazily on first lookup after a mutation, with
/// duplicates removed. Every pattern shape is answered from the index whose
/// sort order makes the bound components a prefix, so lookups are two binary
/// searches plus a scan of the matching range.
///
/// Thread-compatible: concurrent reads are safe, including a cold first read
/// — the lazy index build is guarded by a dirty flag + mutex double-check,
/// so concurrent Match/ForEachMatch calls racing on an unbuilt index
/// serialize the build instead of mutating shared state unsynchronized.
/// Mutation (Add) still requires external synchronization against both
/// readers and other writers.
class TripleStore {
 public:
  TripleStore() = default;

  // The build guard (mutex + atomic) is not copyable/movable, so spell out
  // value semantics over the index vectors. Copying or moving a store that
  // is concurrently mutated requires external synchronization, same as Add.
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Appends a triple; duplicates are tolerated and removed at index build.
  void Add(const Triple& t);
  void Add(TermId s, TermId p, TermId o) { Add(Triple{s, p, o}); }

  /// Number of distinct triples.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// Returns true if the exact triple is present.
  bool Contains(const Triple& t) const;

  /// Calls fn for every triple matching the pattern (wildcards =
  /// kInvalidTermId), in the order of the index chosen for the pattern;
  /// stops early if fn returns false.
  void ForEachMatch(const TriplePattern& pattern,
                    const std::function<bool(const Triple&)>& fn) const;

  /// Number of triples matching the pattern.
  size_t CountMatches(const TriplePattern& pattern) const;

  /// Returns all triples matching the pattern.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Distinct predicate ids present in the store, sorted ascending.
  std::vector<TermId> DistinctPredicates() const;

  /// Distinct subject ids present in the store, sorted ascending.
  std::vector<TermId> DistinctSubjects() const;

  /// Builds indexes now (idempotent, thread-safe). Still useful before
  /// sharing across threads: it front-loads the one-time sort cost.
  void EnsureIndexes() const;

 private:
  // Index orderings.
  struct LessSpo;
  struct LessPos;
  struct LessOsp;

  // Appended triples; canonical deduplicated copy lives in spo_.
  mutable std::vector<Triple> pending_;
  mutable std::vector<Triple> spo_;
  mutable std::vector<Triple> pos_;
  mutable std::vector<Triple> osp_;
  // Lazy-build guard: acquire-load fast path, mutex-serialized build.
  mutable std::atomic<bool> dirty_{false};
  mutable std::mutex build_mu_;
};

}  // namespace alex::rdf

#endif  // ALEX_RDF_TRIPLE_STORE_H_
