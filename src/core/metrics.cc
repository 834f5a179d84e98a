#include "core/metrics.h"

#include "obs/metrics.h"

namespace alex::core {

LinkSetMetrics MetricsFromCounts(size_t correct, size_t candidates,
                                 size_t ground_truth) {
  LinkSetMetrics m;
  m.correct = correct;
  m.candidates = candidates;
  m.ground_truth = ground_truth;
  // Zero denominators (empty candidate set, empty ground truth) leave the
  // affected metric at 0 rather than NaN — but a 0 that means "undefined"
  // is indistinguishable from a 0 that means "all wrong" in a metric
  // series, so each occurrence is counted as an explicit event.
  if (m.candidates > 0) {
    m.precision = static_cast<double>(m.correct) /
                  static_cast<double>(m.candidates);
  } else {
    obs::MetricsRegistry::Global().counter("metrics.undefined").Add(1);
  }
  if (m.ground_truth > 0) {
    m.recall = static_cast<double>(m.correct) /
               static_cast<double>(m.ground_truth);
  } else {
    obs::MetricsRegistry::Global().counter("metrics.undefined").Add(1);
  }
  if (m.precision + m.recall > 0.0) {
    m.f_measure = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

LinkSetMetrics ComputeMetrics(
    const std::unordered_set<feedback::PairKey>& candidates,
    const feedback::GroundTruth& truth) {
  return ComputeMetrics<std::unordered_set<feedback::PairKey>>(candidates,
                                                               truth);
}

}  // namespace alex::core
