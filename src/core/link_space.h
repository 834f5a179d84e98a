#ifndef ALEX_CORE_LINK_SPACE_H_
#define ALEX_CORE_LINK_SPACE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/blocking.h"
#include "core/feature.h"
#include "feedback/ground_truth.h"
#include "rdf/dataset.h"

namespace alex::core {

using feedback::PairKey;

/// The space of feature sets ALEX explores in (Sections 4 and 6.1): one
/// feature set per entity pair that survives the θ filter, plus a per-feature
/// sorted index that answers the band queries exploration actions issue
/// ("all pairs whose score on feature f lies in [v−step, v+step]").
///
/// Construction applies two reductions:
///  1. The θ filter of Section 6.1 — pairs with no feature ≥ θ are dropped.
///  2. Value blocking — only pairs that share a normalized value, a word
///     token, or a token prefix are evaluated at all. This is an engineering
///     substitute for evaluating the full |L|×|R| cross product (which the
///     paper affords with 27 partitions on a 64-core machine); pairs outside
///     the blocks would score ≈0 on every feature and be θ-filtered anyway.
///     Oversized blocks (stop values such as rdf:type classes) are skipped
///     via `max_block_pairs`.
///
/// Blocking is served by a BlockingIndex (core/blocking.h) built once per
/// right dataset and shared read-only across partitions, so P partitions no
/// longer re-invert the right dataset P times.
///
/// Each kept pair is stored once, in `pairs_` in the order the build kept
/// it (its ordinal). Left entity `lefts_[i]`'s pairs are the ordinals
/// [left_begin_[i], left_begin_[i + 1]), and pair `o`'s features are
/// `features_[feature_begin_[o], feature_begin_[o + 1])`.
///
/// Thread-compatible after Build(): all queries are const.
class LinkSpace {
 public:
  struct BuildStats {
    /// |left subset| × |right| — the unfiltered space (Figure 5a's bar).
    uint64_t total_possible = 0;
    /// Pairs proposed by blocking and evaluated.
    uint64_t candidate_pairs = 0;
    /// Pairs kept (≥1 feature above θ) — Figure 5a's "filtered" bar.
    uint64_t kept_pairs = 0;
    /// Total feature entries indexed.
    uint64_t features_indexed = 0;
    /// Similarity-matrix cells of the candidate pairs whose score was
    /// computed, and string cells whose sketch bound fell below θ
    /// (sim::CellCounts).
    uint64_t cells_scored = 0;
    uint64_t cells_skipped = 0;
  };

  LinkSpace() = default;

  /// Builds the space between `left_entities` (a partition of the left
  /// dataset, strictly ascending, else the process aborts) and
  /// all entities of `right`, using shared read-only build resources
  /// (right-dataset blocking index, term-key and value caches). All of
  /// `res`'s members must be non-null, built from these datasets, and
  /// outlive the call. Datasets are borrowed and must outlive the LinkSpace.
  void Build(const rdf::Dataset& left, const rdf::Dataset& right,
             const std::vector<rdf::EntityId>& left_entities, double theta,
             size_t max_block_pairs, const BuildResources& res);

  /// Single-shot convenience wrapper: builds the blocking index and caches
  /// locally, then delegates to the shared-resource overload. Call sites
  /// that build one space (tests, examples) keep working unchanged; use
  /// the overload above to amortize the resources across partitions.
  void Build(const rdf::Dataset& left, const rdf::Dataset& right,
             const std::vector<rdf::EntityId>& left_entities, double theta,
             size_t max_block_pairs);

  bool Contains(PairKey pair) const { return !FeaturesOf(pair).empty(); }

  /// Feature set of a pair (sorted by key), or an empty span if the pair is
  /// not in the space: a binary search for the left entity, then a scan of
  /// its short run of pairs. Valid until the next Build.
  std::span<const FeatureValue> FeaturesOf(PairKey pair) const;

  /// Appends to `out` the ordinal of every pair whose score on feature `f`
  /// lies in [lo, hi] (inclusive); `pairs()[ordinal]` is the pair. Bounds
  /// are compared in double precision against the stored float scores, so
  /// a pair just outside [lo, hi] is never admitted by float rounding.
  void BandQuery(FeatureKey f, double lo, double hi,
                 std::vector<uint32_t>* out) const;

  /// Feature set (sorted by key) of the pair with ordinal `ordinal`.
  std::span<const FeatureValue> Features(uint32_t ordinal) const {
    return {features_.data() + feature_begin_[ordinal],
            features_.data() + feature_begin_[ordinal + 1]};
  }

  /// Number of pairs in the space.
  size_t size() const { return pairs_.size(); }

  const std::vector<PairKey>& pairs() const { return pairs_; }
  const BuildStats& stats() const { return stats_; }

  /// Distinct features indexed (for introspection and tests).
  size_t num_features() const { return feature_index_.size(); }

  /// Number of pairs in the space carrying feature `f` (0 if unknown).
  /// Low counts mean the feature is selective/identifying; high counts mean
  /// it barely distinguishes entities (rdf:type, small categorical pools).
  size_t FeatureCount(FeatureKey f) const {
    auto it = feature_index_.find(f);
    return it == feature_index_.end() ? 0 : it->second.size();
  }

  /// Largest FeatureCount over all features (0 for an empty space).
  size_t MaxFeatureCount() const { return max_feature_count_; }

 private:
  /// Clears all state and seeds stats with the unfiltered space size.
  void Reset(uint64_t total_possible);
  /// Builds the per-feature sorted score index over the kept pairs.
  void FinalizeFeatureIndex();

  std::vector<rdf::EntityId> lefts_;  ///< The build's left list.
  std::vector<uint32_t> left_begin_;  ///< One per left, plus one.
  std::vector<PairKey> pairs_;
  std::vector<uint32_t> feature_begin_;  ///< One per pair, plus one.
  std::vector<FeatureValue> features_;
  /// Per feature: (score, pair ordinal), sorted by score.
  std::unordered_map<FeatureKey, std::vector<std::pair<float, uint32_t>>>
      feature_index_;
  size_t max_feature_count_ = 0;
  BuildStats stats_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_LINK_SPACE_H_
