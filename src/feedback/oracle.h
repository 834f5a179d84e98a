#ifndef ALEX_FEEDBACK_ORACLE_H_
#define ALEX_FEEDBACK_ORACLE_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "feedback/ground_truth.h"

namespace alex::feedback {

/// One user feedback item over a candidate link: approval or rejection of
/// the query answer that the link produced (paper Section 3.2).
struct FeedbackItem {
  rdf::EntityId left = rdf::kInvalidEntityId;
  rdf::EntityId right = rdf::kInvalidEntityId;
  bool positive = false;

  PairKey key() const { return PackPair(left, right); }
};

/// Simulated user, matching the paper's feedback methodology (Section 7.1):
/// a randomly chosen candidate link is compared against the ground truth;
/// membership yields positive feedback, absence yields negative feedback.
/// With probability `error_rate` the verdict is flipped (Appendix C studies
/// 10% incorrect feedback).
class Oracle {
 public:
  /// `truth` is borrowed and must outlive the oracle.
  Oracle(const GroundTruth* truth, double error_rate, uint64_t seed)
      : truth_(truth), error_rate_(error_rate), rng_(seed) {}

  /// Judges one candidate link.
  FeedbackItem Judge(rdf::EntityId left, rdf::EntityId right);

  /// Samples one link uniformly from a sequence of `count` candidates, of
  /// which `at(k)` returns the k-th, and judges it: one UniformInt(count)
  /// draw, then Judge(). Returns nullopt, drawing nothing, if `count` is 0.
  template <typename KeyAt>
  std::optional<FeedbackItem> SampleAndJudge(size_t count, const KeyAt& at) {
    if (count == 0) return std::nullopt;
    const PairKey key = at(static_cast<size_t>(rng_.UniformInt(count)));
    return Judge(PairLeft(key), PairRight(key));
  }

  /// The same over a candidate vector.
  std::optional<FeedbackItem> SampleAndJudge(
      const std::vector<PairKey>& candidates) {
    return SampleAndJudge(candidates.size(),
                          [&](size_t k) { return candidates[k]; });
  }

  double error_rate() const { return error_rate_; }

  /// The oracle's RNG stream, for checkpoint/resume: a restored oracle
  /// samples and mis-judges exactly as the saved one would have.
  Rng::State SaveRngState() const { return rng_.SaveState(); }
  void RestoreRngState(const Rng::State& state) { rng_.RestoreState(state); }

 private:
  const GroundTruth* truth_;
  double error_rate_;
  Rng rng_;
};

}  // namespace alex::feedback

#endif  // ALEX_FEEDBACK_ORACLE_H_
