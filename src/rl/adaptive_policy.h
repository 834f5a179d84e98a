#ifndef ALEX_RL_ADAPTIVE_POLICY_H_
#define ALEX_RL_ADAPTIVE_POLICY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"

namespace alex::rl {

/// Stable type tag of the adaptive-feature policy.
inline constexpr std::string_view kAdaptiveFeaturePolicyTag =
    "adaptive-feature";

/// ε-greedy policy that conditions both branches on per-feature payoff
/// statistics — how often exploring around each feature has historically
/// produced positive vs. negative returns, across all states.
///
/// The paper's policy treats the exploration (ε) branch as uniform over the
/// state's features. This variant keeps the paper's first-visit Monte Carlo
/// Q machinery (delegated to an embedded EpsilonGreedyPolicy) but spends
/// the exploration budget where it has paid off:
///
///  - ε branch: instead of a uniform draw, features are sampled with weight
///    `floor + success_rate(f)` where success_rate is the Laplace-smoothed
///    positive fraction (pos+1)/(trials+2) and floor > 0 keeps every
///    feature's probability strictly positive (GLIE needs π(s,a) > 0).
///  - greedy branch: the state's recorded greedy action wins as in the
///    base policy; otherwise actions are scored by state Q when known, and
///    by global Q (or the cold-start prior) *plus* a payoff bonus
///    `payoff_weight * (success_rate − ½)` when not — centering at ½ makes
///    the bonus negative for features that mostly drew negative feedback.
///    Exact ties break to the smallest feature key (canonical, not random).
///
/// ε decay (set_epsilon) follows the same GLIE schedule the engine applies
/// to every policy. Deterministic given the seed and the call sequence;
/// serialization is canonical (payoff table sorted by key).
class AdaptiveFeaturePolicy final : public core::Policy {
 public:
  /// `payoff_weight` scales the greedy-branch bonus (see class comment);
  /// AlexConfig::adaptive_payoff_weight supplies it through the registry.
  AdaptiveFeaturePolicy(double epsilon, double payoff_weight, uint64_t seed);

  std::string_view type_tag() const override {
    return kAdaptiveFeaturePolicyTag;
  }

  std::optional<core::FeatureKey> ChooseAction(
      core::PairKey state, std::span<const core::FeatureValue> actions,
      const core::ActionPrior& prior = {}) override;

  void RecordReturn(const core::StateAction& sa, double reward) override;

  void Improve(const std::vector<core::PairKey>& episode_states) override;

  void set_epsilon(double epsilon) override { epsilon_ = epsilon; }
  double epsilon() const override { return epsilon_; }

  std::optional<double> Q(const core::StateAction& sa) const override;
  std::optional<double> GlobalQ(core::FeatureKey action) const override;
  std::optional<core::FeatureKey> GreedyAction(
      core::PairKey state) const override;
  std::vector<std::pair<core::FeatureKey, double>> GlobalActionValues()
      const override;
  size_t num_states() const override;

  void SaveState(BinaryWriter* w) const override;
  Status LoadState(BinaryReader* r) override;

  /// Laplace-smoothed positive-return fraction of a feature: (pos+1) /
  /// (trials+2). ½ for never-tried features. Exposed for tests and benches.
  double SuccessRate(core::FeatureKey feature) const;

  /// Distinct features with at least one recorded return.
  size_t num_tracked_features() const { return payoffs_.size(); }

 private:
  /// Per-feature payoff tallies across all states.
  struct FeaturePayoff {
    uint64_t positive = 0;
    uint64_t negative = 0;
    uint64_t trials = 0;
  };

  /// Sampling floor of the ε branch: a feature with zero payoff history
  /// still draws with weight kWeightFloor + ½.
  static constexpr double kWeightFloor = 0.25;

  double epsilon_;
  double payoff_weight_;
  Rng rng_;
  /// Q bookkeeping and serialization are the base policy's, unchanged; its
  /// own ε and RNG are idle (this class keeps its own on top).
  core::EpsilonGreedyPolicy base_;
  std::unordered_map<core::FeatureKey, FeaturePayoff> payoffs_;
  std::vector<double> weights_;  // Scratch for the ε-branch draw.
};

/// Registers the "adaptive-feature" tag with core::PolicyRegistry::Global().
/// Idempotent; call before constructing engines that select it (the
/// Simulation constructor does).
void RegisterAdaptiveFeaturePolicy();

}  // namespace alex::rl

#endif  // ALEX_RL_ADAPTIVE_POLICY_H_
