#ifndef ALEX_CORE_BLOCKING_H_
#define ALEX_CORE_BLOCKING_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/dataset.h"
#include "similarity/similarity.h"

namespace alex::core {

/// 64-bit id of one blocking key (a normalized value, a word token, or a
/// token prefix). Replaces the allocating `std::string` keys ("v:...",
/// "t:...", "p:...") the link-space build used per attribute occurrence:
/// the hot loop now hashes once per *distinct term* and compares integers.
/// Keys of different kinds never collide by construction (the kind is mixed
/// into the hash seed); across kinds a 64-bit collision merges two blocks,
/// which at the dataset sizes this system targets is vanishingly unlikely
/// and at worst proposes a few extra candidate pairs.
using BlockKey = uint64_t;

/// Kind of blocking key derived from a normalized attribute value.
enum class BlockKind : uint8_t { kValue = 0, kToken = 1, kPrefix = 2 };

/// Stable 64-bit hash of (kind, text); FNV-1a with a splitmix64 finalizer.
BlockKey HashBlockKey(BlockKind kind, std::string_view text);

/// Replaces `out` with the blocking keys of one RDF term (deduplicated,
/// sorted): the full normalized value, each word token of length >= 2, and
/// a 5-character prefix per token of length >= 6 (tolerates tail typos).
void ComputeTermBlockingKeys(const rdf::Term& term, std::vector<BlockKey>* out);

/// Memoized blocking keys per dictionary TermId for one dataset.
///
/// Attribute values repeat heavily across entities (names, categories,
/// years), so rather than running ToLowerAscii/WordTokens per attribute
/// *occurrence*, this cache runs them once per *distinct term*. Built
/// eagerly over every term that occurs as an attribute object; read-only
/// and safely shareable across threads afterwards. The dataset is borrowed
/// and must not mutate while the cache is alive.
class TermKeyCache {
 public:
  explicit TermKeyCache(const rdf::Dataset& ds);

  /// Keys of one term (empty span for terms that are not attribute objects
  /// or normalize to an empty string). Stable storage: repeated calls
  /// return the same bytes — nothing is recomputed.
  std::span<const BlockKey> keys(rdf::TermId t) const {
    if (t + 1 >= offsets_.size()) return {};
    return std::span<const BlockKey>(keys_.data() + offsets_[t],
                                     offsets_[t + 1] - offsets_[t]);
  }

  /// Replaces `out` with the deduplicated (sorted) union of the entity's
  /// attribute-value keys — the entity's blocking-key set.
  void EntityKeys(rdf::EntityId e, std::vector<BlockKey>* out) const;

  /// Number of terms whose keys were actually computed (distinct attribute
  /// objects). Constant after construction; exposed so tests can assert
  /// that lookups never trigger recomputation.
  size_t computed_terms() const { return computed_terms_; }

 private:
  const rdf::Dataset* ds_;
  /// CSR layout: keys of term t live at keys_[offsets_[t] .. offsets_[t+1]).
  std::vector<uint32_t> offsets_;
  std::vector<BlockKey> keys_;
  size_t computed_terms_ = 0;
};

/// Parsed, profiled attribute values of one dataset, so feature
/// computation stops re-parsing — and similarity scoring stops
/// re-lowercasing/re-tokenizing — the same term for every candidate pair
/// that touches it. One sim::ValueTable row per term that occurs as an
/// attribute object, added in first-occurrence order; read-only and
/// shareable across threads afterwards.
class ValueCache {
 public:
  explicit ValueCache(const rdf::Dataset& ds);

  /// Row of `t` in table(). Only meaningful for attribute-object terms.
  uint32_t row(rdf::TermId t) const { return rows_[t]; }

  const sim::ValueTable& table() const { return table_; }

 private:
  std::vector<uint32_t> rows_;  ///< Per dictionary term.
  sim::ValueTable table_;
};

/// Inverted blocking index of one (right) dataset: BlockKey -> the entities
/// carrying that key. Constructed **once** per right dataset and shared
/// read-only across all partitions, replacing the per-partition re-inversion
/// that made the build phase do P× the blocking work at P partitions.
class BlockingIndex {
 public:
  /// Inverts `right` by blocking key. The dataset is borrowed and must
  /// outlive the index.
  explicit BlockingIndex(const rdf::Dataset& right);

  /// Entities in the block of `key`, or nullptr if the block is empty.
  /// Entity ids are ascending within a block.
  const std::vector<rdf::EntityId>* block(BlockKey key) const {
    auto it = blocks_.find(key);
    return it == blocks_.end() ? nullptr : &it->second;
  }

  size_t num_blocks() const { return blocks_.size(); }

  /// The right dataset's term-key cache (shared with feature/test code).
  const TermKeyCache& term_keys() const { return term_keys_; }

 private:
  TermKeyCache term_keys_;
  std::unordered_map<BlockKey, std::vector<rdf::EntityId>> blocks_;
};

/// Shared read-only inputs for one LinkSpace::Build wave: everything that
/// depends only on the dataset pair, not on the partition. Built once by
/// PartitionedAlex::Build (or by the single-shot LinkSpace::Build wrapper)
/// and borrowed by every partition's build.
struct BuildResources {
  const BlockingIndex* right_index = nullptr;
  const TermKeyCache* left_keys = nullptr;
  const ValueCache* left_values = nullptr;
  const ValueCache* right_values = nullptr;
};

}  // namespace alex::core

#endif  // ALEX_CORE_BLOCKING_H_
