#include "core/link_space.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alex::core {
namespace {

using rdf::Dataset;
using rdf::EntityId;

/// Link-space metrics. Counters for the dominant build-phase costs are
/// accumulated in plain locals and flushed once per build, so the per-pair
/// hot loops stay free of even relaxed atomics.
struct SpaceMetrics {
  obs::Counter& band_queries =
      obs::MetricsRegistry::Global().counter("space.band_queries");
  obs::Counter& band_results =
      obs::MetricsRegistry::Global().counter("space.band_results");
  obs::Counter& pairs_evaluated =
      obs::MetricsRegistry::Global().counter("space.pairs_evaluated");
  obs::Counter& pairs_kept =
      obs::MetricsRegistry::Global().counter("space.pairs_kept");
  obs::Histogram& build_seconds =
      obs::MetricsRegistry::Global().histogram("space.build_seconds");

  static SpaceMetrics& Get() {
    static SpaceMetrics* metrics = new SpaceMetrics();
    return *metrics;
  }
};

/// Stop-value cap: a key proposing a sizable fraction of the whole cross
/// product is a stop value regardless of the absolute cap (e.g. a shared
/// rdf:type class at small scale); such blocks carry no identifying signal.
uint64_t EffectiveBlockCap(uint64_t total_possible, size_t max_block_pairs) {
  const uint64_t relative_cap = std::max<uint64_t>(100, total_possible / 20);
  return std::min<uint64_t>(max_block_pairs, relative_cap);
}

}  // namespace

void LinkSpace::Reset(uint64_t total_possible) {
  lefts_.clear();
  left_begin_.clear();
  pairs_.clear();
  feature_begin_.assign(1, 0);
  features_.clear();
  feature_index_.clear();
  stats_ = BuildStats{};
  stats_.total_possible = total_possible;
}

void LinkSpace::FinalizeFeatureIndex() {
  stats_.kept_pairs = pairs_.size();
  stats_.features_indexed = features_.size();
  for (uint32_t ordinal = 0; ordinal < pairs_.size(); ++ordinal) {
    for (const FeatureValue& f : Features(ordinal)) {
      feature_index_[f.key].emplace_back(static_cast<float>(f.score), ordinal);
    }
  }
  max_feature_count_ = 0;
  for (auto& [key, entries] : feature_index_) {
    std::sort(entries.begin(), entries.end());
    max_feature_count_ = std::max(max_feature_count_, entries.size());
  }
}

void LinkSpace::Build(const Dataset& left, const Dataset& right,
                      const std::vector<EntityId>& left_entities, double theta,
                      size_t max_block_pairs, const BuildResources& res) {
  ALEX_TRACE_SPAN("build", "LinkSpace::Build");
  // FeaturesOf binary-searches the left list. A caller bug, so it aborts
  // in every build type rather than return a Status.
  if (std::adjacent_find(left_entities.begin(), left_entities.end(),
                         std::greater_equal<>()) != left_entities.end()) {
    ALEX_LOG(kError) << "LinkSpace::Build: left_entities not ascending";
    std::abort();
  }
  SpaceMetrics& metrics = SpaceMetrics::Get();
  obs::ScopedTimer build_timer(metrics.build_seconds);
  Reset(static_cast<uint64_t>(left_entities.size()) *
        static_cast<uint64_t>(right.num_entities()));

  // Every left-subset occurrence of every key, sorted, so a key's count is
  // the length of its run and oversized blocks can be skipped. The counts
  // are per-partition by design (a block's size is |partition lefts with
  // the key| × |right block|), so this pass stays local; only the
  // right-side inversion is shared.
  size_t occurrences = 0;  // Before the per-entity dedup: an upper bound.
  for (EntityId l : left_entities) {
    for (const rdf::Attribute& a : left.attributes(l)) {
      occurrences += res.left_keys->keys(a.object).size();
    }
  }
  std::vector<BlockKey> left_key_runs;
  left_key_runs.reserve(occurrences);
  std::vector<BlockKey> entity_keys;
  for (EntityId l : left_entities) {
    res.left_keys->EntityKeys(l, &entity_keys);
    left_key_runs.insert(left_key_runs.end(), entity_keys.begin(),
                         entity_keys.end());
  }
  std::sort(left_key_runs.begin(), left_key_runs.end());

  const uint64_t effective_cap =
      EffectiveBlockCap(stats_.total_possible, max_block_pairs);

  // A pair (l, r) can only recur within l's own key loop, so one stamp per
  // right entity — the position + 1 of the left entity that last evaluated
  // it — dedups the pairs in first-seen order.
  std::vector<uint32_t> evaluated_by(right.num_entities(), 0);
  uint64_t candidate_pairs = 0;
  FeatureScratch scratch;
  for (size_t i = 0; i < left_entities.size(); ++i) {
    const EntityId l = left_entities[i];
    const uint32_t stamp = static_cast<uint32_t>(i + 1);
    left_begin_.push_back(static_cast<uint32_t>(pairs_.size()));
    res.left_keys->EntityKeys(l, &entity_keys);
    for (BlockKey key : entity_keys) {
      const std::vector<EntityId>* block = res.right_index->block(key);
      if (block == nullptr) continue;
      const auto run = std::equal_range(left_key_runs.begin(),
                                        left_key_runs.end(), key);
      const uint64_t block_size =
          static_cast<uint64_t>(run.second - run.first) * block->size();
      if (block_size > effective_cap) continue;  // Stop value.
      for (EntityId r : *block) {
        if (evaluated_by[r] == stamp) continue;
        evaluated_by[r] = stamp;
        ++candidate_pairs;
        // θ filter: a pair is kept iff it has a feature.
        if (AppendFeatureSet(left, l, right, r, theta, *res.left_values,
                             *res.right_values, &scratch, &features_) > 0) {
          pairs_.push_back(feedback::PackPair(l, r));
          feature_begin_.push_back(static_cast<uint32_t>(features_.size()));
        }
      }
    }
  }
  lefts_ = left_entities;
  left_begin_.push_back(static_cast<uint32_t>(pairs_.size()));
  stats_.candidate_pairs = candidate_pairs;
  stats_.cells_scored = scratch.cells.scored;
  stats_.cells_skipped = scratch.cells.skipped;
  FinalizeFeatureIndex();
  metrics.pairs_evaluated.Add(stats_.candidate_pairs);
  metrics.pairs_kept.Add(stats_.kept_pairs);
}

void LinkSpace::Build(const Dataset& left, const Dataset& right,
                      const std::vector<EntityId>& left_entities, double theta,
                      size_t max_block_pairs) {
  const BlockingIndex right_index(right);
  const TermKeyCache left_keys(left);
  const ValueCache left_values(left);
  const ValueCache right_values(right);
  Build(left, right, left_entities, theta, max_block_pairs,
        BuildResources{&right_index, &left_keys, &left_values, &right_values});
}

std::span<const FeatureValue> LinkSpace::FeaturesOf(PairKey pair) const {
  const auto it =
      std::lower_bound(lefts_.begin(), lefts_.end(), feedback::PairLeft(pair));
  if (it == lefts_.end() || *it != feedback::PairLeft(pair)) return {};
  const size_t i = static_cast<size_t>(it - lefts_.begin());
  for (uint32_t o = left_begin_[i]; o < left_begin_[i + 1]; ++o) {
    if (pairs_[o] == pair) return Features(o);
  }
  return {};
}

void LinkSpace::BandQuery(FeatureKey f, double lo, double hi,
                          std::vector<uint32_t>* out) const {
  SpaceMetrics& metrics = SpaceMetrics::Get();
  metrics.band_queries.Add(1);
  auto it = feature_index_.find(f);
  if (it == feature_index_.end()) return;
  const size_t out_before = out->size();
  const auto& entries = it->second;
  // Search from a float bound guaranteed not to exceed `lo`:
  // static_cast<float>(lo) can round *above* lo, which would skip stored
  // scores inside the band. Entries the relaxed bound over-admits are
  // filtered below by comparing in double.
  float flo = static_cast<float>(lo);
  if (static_cast<double>(flo) > lo) {
    flo = std::nextafter(flo, -std::numeric_limits<float>::infinity());
  }
  auto begin = std::lower_bound(entries.begin(), entries.end(),
                                std::make_pair(flo, uint32_t{0}));
  for (auto cur = begin; cur != entries.end(); ++cur) {
    const double score = static_cast<double>(cur->first);
    if (score > hi) break;
    if (score < lo) continue;
    out->push_back(cur->second);
  }
  metrics.band_results.Add(out->size() - out_before);
}

}  // namespace alex::core
