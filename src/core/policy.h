#ifndef ALEX_CORE_POLICY_H_
#define ALEX_CORE_POLICY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "core/feature.h"
#include "feedback/ground_truth.h"

namespace alex::core {

using feedback::PairKey;

/// A state-action pair: the link (state) and the feature explored around
/// (action). See paper Sections 4.1-4.2.
struct StateAction {
  PairKey state = 0;
  FeatureKey action = 0;

  friend bool operator==(const StateAction& a, const StateAction& b) {
    return a.state == b.state && a.action == b.action;
  }
};

struct StateActionHash {
  size_t operator()(const StateAction& sa) const {
    // 64-bit mix of the two keys, finalized splitmix64-style before the
    // narrowing cast: on a 32-bit size_t the cast keeps only the low word,
    // and without finalization those bits carry almost none of the
    // high-half entropy of `state` (PairKey packs the left entity in the
    // high 32 bits), collapsing whole entity ranges onto shared buckets.
    uint64_t h = sa.state * 0x9e3779b97f4a7c15ULL;
    h ^= sa.action + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

/// Scores an untried action in the absence of any recorded return; used
/// to order cold-start exploration. Must return values in [0, 0.5] so a
/// learned positive Q (+1 scale) always dominates and a learned negative
/// Q always loses. The default prior is the constant 0.
using ActionPrior = std::function<double(FeatureKey)>;

/// Abstract action-selection policy of the ALEX control loop.
///
/// The engine drives any implementation through this interface: choose an
/// action at a state (ChooseAction), credit Monte Carlo returns
/// (RecordReturn), improve at episode boundaries (Improve), and decay ε on
/// the GLIE schedule (set_epsilon). Implementations must be deterministic
/// given their construction seed and the call sequence, and must serialize
/// canonically (equal states produce equal bytes) so checkpoints stay
/// bit-identical.
///
/// `type_tag()` names the concrete type inside checkpoint payloads; a
/// policy's LoadState only ever reads bytes its own SaveState wrote — the
/// tag routing happens in AlexEngine (see engine.cc and DESIGN.md
/// "Linkers and policies").
class Policy {
 public:
  virtual ~Policy() = default;

  /// Stable type tag recorded in checkpoints ("epsilon-greedy", ...).
  virtual std::string_view type_tag() const = 0;

  /// Chooses the action (feature) to explore around at `state`, given the
  /// state's available actions (its feature set). Returns nullopt when
  /// `actions` is empty. Every action must keep π(s,a) > 0 (continuous
  /// exploration, Section 4.4.1).
  virtual std::optional<FeatureKey> ChooseAction(
      PairKey state, std::span<const FeatureValue> actions,
      const ActionPrior& prior = {}) = 0;

  /// Appends a Monte Carlo return to Returns(s,a) and refreshes Q(s,a)
  /// (Algorithm 1 lines 14-16).
  virtual void RecordReturn(const StateAction& sa, double reward) = 0;

  /// Policy improvement (Algorithm 1 lines 24-33) over the states visited
  /// in the episode just ended.
  virtual void Improve(const std::vector<PairKey>& episode_states) = 0;

  /// Sets the exploration rate (used by GLIE ε decay across episodes).
  virtual void set_epsilon(double epsilon) = 0;
  virtual double epsilon() const = 0;

  /// Estimated Q(s,a); nullopt if the pair was never returned to.
  virtual std::optional<double> Q(const StateAction& sa) const = 0;

  /// Global prior Q̄(a) for a feature; nullopt if never returned to.
  virtual std::optional<double> GlobalQ(FeatureKey action) const = 0;

  /// Greedy action recorded for a state at the last Improve(), if any.
  virtual std::optional<FeatureKey> GreedyAction(PairKey state) const = 0;

  /// The global per-feature average returns, sorted by value descending
  /// (ties by ascending key — the order must not depend on hash-table
  /// iteration history).
  virtual std::vector<std::pair<FeatureKey, double>> GlobalActionValues()
      const = 0;

  virtual size_t num_states() const = 0;

  /// Serializes the full policy state in a canonical (sorted) order, so
  /// identical policies produce identical bytes. The bytes do NOT include
  /// the type tag — the engine frames them with it.
  virtual void SaveState(BinaryWriter* w) const = 0;

  /// Restores a policy saved with SaveState() by the same concrete type.
  /// All-or-nothing: on any parse error the policy is left untouched.
  virtual Status LoadState(BinaryReader* r) = 0;
};

/// ε-greedy stochastic policy with first-visit Monte Carlo action-value
/// estimation (Algorithm 1) — the paper's policy, and the default.
///
/// Per-state Q tables are kept exactly as the paper specifies; in addition
/// a global per-feature average return acts as a prior for states that have
/// never been visited (this is how ALEX "learns that a feature is not
/// distinctive and avoids exploring around it in the future" — Section 4.2 —
/// before a particular state is ever revisited).
class EpsilonGreedyPolicy final : public Policy {
 public:
  EpsilonGreedyPolicy(double epsilon, uint64_t seed)
      : epsilon_(epsilon), rng_(seed) {}

  /// Kept as a member alias for pre-interface call sites.
  using ActionPrior = core::ActionPrior;

  std::string_view type_tag() const override { return "epsilon-greedy"; }

  /// With probability 1−ε the greedy action is taken: the action with the
  /// best estimated Q at this state, falling back to the global per-feature
  /// average return, and finally to `prior` for actions never tried
  /// anywhere. Exact-score ties break uniformly at random (the draw is
  /// seeded, so runs are reproducible). With probability ε a uniformly
  /// random action is taken, so every action has π(s,a) ≥ ε/|A(s)| > 0.
  std::optional<FeatureKey> ChooseAction(PairKey state,
                                         std::span<const FeatureValue> actions,
                                         const ActionPrior& prior = {}) override;

  void RecordReturn(const StateAction& sa, double reward) override;

  void Improve(const std::vector<PairKey>& episode_states) override;

  void set_epsilon(double epsilon) override { epsilon_ = epsilon; }
  double epsilon() const override { return epsilon_; }

  std::optional<double> Q(const StateAction& sa) const override;

  std::optional<double> GlobalQ(FeatureKey action) const override;

  std::optional<FeatureKey> GreedyAction(PairKey state) const override;

  std::vector<std::pair<FeatureKey, double>> GlobalActionValues()
      const override;

  size_t num_states() const override { return greedy_.size(); }

  /// Serializes ε, the RNG stream, the per-state and global return tables,
  /// and the greedy map — in a canonical (sorted) order.
  void SaveState(BinaryWriter* w) const override;

  Status LoadState(BinaryReader* r) override;

 private:
  struct Stats {
    double sum = 0.0;
    size_t count = 0;
    double q() const { return count == 0 ? 0.0 : sum / count; }
  };

  double epsilon_;
  Rng rng_;
  std::vector<FeatureKey> ties_;  // Scratch for greedy tie-breaking.
  std::unordered_map<StateAction, Stats, StateActionHash> returns_;
  std::unordered_map<FeatureKey, Stats> global_returns_;
  std::unordered_map<PairKey, FeatureKey> greedy_;
};

/// Process-wide registry mapping policy type tags to factories, so drivers
/// (engine construction, checkpoint restore, benches, the CLI) can
/// instantiate policies by name. The built-in "epsilon-greedy" policy is
/// registered by the registry itself; libraries adding policies expose an
/// explicit registration call (static-library registrar objects get
/// dead-stripped) — e.g. rl::RegisterAdaptiveFeaturePolicy().
class PolicyRegistry {
 public:
  /// Builds a policy for one engine. `seed` is the engine's seed — the
  /// factory owns any stream-splitting it needs.
  using Factory =
      std::function<std::unique_ptr<Policy>(const AlexConfig&, uint64_t seed)>;

  static PolicyRegistry& Global();

  /// Registers (or replaces) the factory for `tag`. Registration is
  /// idempotent so explicit registration calls may run more than once.
  void Register(std::string tag, Factory factory);

  bool Contains(std::string_view tag) const;

  /// All registered tags, sorted.
  std::vector<std::string> KnownTags() const;

  /// Instantiates the policy registered under `tag`; NotFound (naming the
  /// tag and the known tags) when nothing is registered under it.
  Result<std::unique_ptr<Policy>> Create(std::string_view tag,
                                         const AlexConfig& config,
                                         uint64_t seed) const;

 private:
  PolicyRegistry();

  mutable std::mutex mu_;
  std::unordered_map<std::string, Factory> factories_;
};

}  // namespace alex::core

#endif  // ALEX_CORE_POLICY_H_
