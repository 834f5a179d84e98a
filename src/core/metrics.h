#ifndef ALEX_CORE_METRICS_H_
#define ALEX_CORE_METRICS_H_

#include <unordered_set>

#include "feedback/ground_truth.h"

namespace alex::core {

/// Link-set quality as reported in the paper's figures:
/// P = |C∩G| / |C|,  R = |C∩G| / |G|,  F = 2PR/(P+R)  (Section 7.1).
struct LinkSetMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
  size_t correct = 0;
  size_t candidates = 0;
  size_t ground_truth = 0;
};

/// Metrics of a set of `candidates` links, `correct` of them true, against
/// a ground truth of `ground_truth` links.
LinkSetMetrics MetricsFromCounts(size_t correct, size_t candidates,
                                 size_t ground_truth);

/// Computes metrics of a candidate link set against the ground truth.
LinkSetMetrics ComputeMetrics(
    const std::unordered_set<feedback::PairKey>& candidates,
    const feedback::GroundTruth& truth);

/// The same over any range of distinct keys, such as an engine's sorted
/// candidate set.
template <typename KeyRange>
LinkSetMetrics ComputeMetrics(const KeyRange& candidates,
                              const feedback::GroundTruth& truth) {
  size_t n = 0;
  size_t correct = 0;
  for (feedback::PairKey key : candidates) {
    ++n;
    if (truth.Contains(key)) ++correct;
  }
  return MetricsFromCounts(correct, n, truth.size());
}

}  // namespace alex::core

#endif  // ALEX_CORE_METRICS_H_
