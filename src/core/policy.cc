#include "core/policy.h"

#include <algorithm>
#include <tuple>
#include <unordered_set>

namespace alex::core {

std::optional<FeatureKey> EpsilonGreedyPolicy::ChooseAction(
    PairKey state, std::span<const FeatureValue> actions,
    const ActionPrior& prior) {
  if (actions.empty()) return std::nullopt;

  // ε branch: uniform random exploration.
  if (rng_.Bernoulli(epsilon_)) {
    return actions[static_cast<size_t>(rng_.UniformInt(actions.size()))].key;
  }

  // Greedy branch. The state's recorded greedy action (from the last
  // policy improvement) wins if still available.
  auto git = greedy_.find(state);
  if (git != greedy_.end()) {
    for (const FeatureValue& f : actions) {
      if (f.key == git->second) return f.key;
    }
  }

  // Otherwise score every action: the state's own Q when known, else the
  // global per-feature average return, else the cold-start prior — an
  // untried feature beats one known to be bad, and loses to one known to
  // be good.
  std::optional<FeatureKey> best;
  double best_q = 0.0;
  ties_.clear();
  for (const FeatureValue& f : actions) {
    double q;
    auto it = returns_.find(StateAction{state, f.key});
    if (it != returns_.end()) {
      q = it->second.q();
    } else {
      auto global = global_returns_.find(f.key);
      if (global != global_returns_.end()) {
        q = global->second.q();
      } else {
        q = prior ? prior(f.key) : 0.0;
      }
    }
    if (!best.has_value() || q > best_q) {
      best = f.key;
      best_q = q;
      ties_.clear();
      ties_.push_back(f.key);
    } else if (q == best_q) {
      ties_.push_back(f.key);
    }
  }
  // Break exact ties randomly so equally scored actions all get explored.
  if (ties_.size() > 1) {
    return ties_[static_cast<size_t>(rng_.UniformInt(ties_.size()))];
  }
  return best;
}

void EpsilonGreedyPolicy::RecordReturn(const StateAction& sa, double reward) {
  Stats& s = returns_[sa];
  s.sum += reward;
  ++s.count;
  Stats& g = global_returns_[sa.action];
  g.sum += reward;
  ++g.count;
}

void EpsilonGreedyPolicy::Improve(const std::vector<PairKey>& episode_states) {
  // argmax_a Q(s, a) for every episode state, in one pass over the returns.
  // Exact-Q ties break towards the smallest action key: the winner must not
  // depend on the hash table's iteration order, or a checkpoint-restored
  // policy (same contents, different insertion history) could improve to a
  // different greedy map than the uninterrupted run.
  const std::unordered_set<PairKey> in_episode(episode_states.begin(),
                                               episode_states.end());
  std::unordered_map<PairKey, std::pair<FeatureKey, double>> best;
  for (const auto& [sa, stats] : returns_) {
    if (!in_episode.count(sa.state)) continue;
    const double q = stats.q();
    auto it = best.find(sa.state);
    if (it == best.end() || q > it->second.second ||
        (q == it->second.second && sa.action < it->second.first)) {
      best[sa.state] = {sa.action, q};
    }
  }
  for (const auto& [state, action_q] : best) {
    greedy_[state] = action_q.first;
  }
}

std::optional<double> EpsilonGreedyPolicy::Q(const StateAction& sa) const {
  auto it = returns_.find(sa);
  if (it == returns_.end()) return std::nullopt;
  return it->second.q();
}

std::optional<double> EpsilonGreedyPolicy::GlobalQ(FeatureKey action) const {
  auto it = global_returns_.find(action);
  if (it == global_returns_.end()) return std::nullopt;
  return it->second.q();
}

std::vector<std::pair<FeatureKey, double>>
EpsilonGreedyPolicy::GlobalActionValues() const {
  std::vector<std::pair<FeatureKey, double>> out;
  out.reserve(global_returns_.size());
  for (const auto& [action, stats] : global_returns_) {
    out.emplace_back(action, stats.q());
  }
  // Equal values tie-break by ascending action key. The previous
  // value-only std::sort (unstable) left equal-valued features in
  // unspecified relative order — which, fed from an unordered_map, meant
  // the ranking two runs reported for the same learned state could differ
  // across platforms or standard libraries.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::optional<FeatureKey> EpsilonGreedyPolicy::GreedyAction(
    PairKey state) const {
  auto it = greedy_.find(state);
  if (it == greedy_.end()) return std::nullopt;
  return it->second;
}

void EpsilonGreedyPolicy::SaveState(BinaryWriter* w) const {
  w->WriteDouble(epsilon_);
  for (uint64_t word : rng_.SaveState()) w->WriteU64(word);

  // Tables go out sorted by key so equal policies serialize to equal bytes
  // regardless of their hash tables' insertion histories.
  std::vector<std::pair<StateAction, Stats>> returns(returns_.begin(),
                                                     returns_.end());
  std::sort(returns.begin(), returns.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.state, a.first.action) <
           std::tie(b.first.state, b.first.action);
  });
  w->WriteU64(returns.size());
  for (const auto& [sa, stats] : returns) {
    w->WriteU64(sa.state);
    w->WriteU64(sa.action);
    w->WriteDouble(stats.sum);
    w->WriteU64(stats.count);
  }

  std::vector<std::pair<FeatureKey, Stats>> global(global_returns_.begin(),
                                                   global_returns_.end());
  std::sort(global.begin(), global.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->WriteU64(global.size());
  for (const auto& [action, stats] : global) {
    w->WriteU64(action);
    w->WriteDouble(stats.sum);
    w->WriteU64(stats.count);
  }

  std::vector<std::pair<PairKey, FeatureKey>> greedy(greedy_.begin(),
                                                     greedy_.end());
  std::sort(greedy.begin(), greedy.end());
  w->WriteU64(greedy.size());
  for (const auto& [state, action] : greedy) {
    w->WriteU64(state);
    w->WriteU64(action);
  }
}

Status EpsilonGreedyPolicy::LoadState(BinaryReader* r) {
  // Parse everything into locals first; commit only on full success so a
  // corrupt snapshot cannot leave the policy half-restored.
  double epsilon = 0.0;
  ALEX_RETURN_NOT_OK(r->ReadDouble(&epsilon));
  Rng::State rng_state;
  for (uint64_t& word : rng_state) ALEX_RETURN_NOT_OK(r->ReadU64(&word));

  uint64_t n = 0;
  ALEX_RETURN_NOT_OK(r->ReadCount(32, "state-action returns", &n));
  std::unordered_map<StateAction, Stats, StateActionHash> returns;
  returns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    StateAction sa;
    Stats stats;
    ALEX_RETURN_NOT_OK(r->ReadU64(&sa.state));
    ALEX_RETURN_NOT_OK(r->ReadU64(&sa.action));
    ALEX_RETURN_NOT_OK(r->ReadDouble(&stats.sum));
    uint64_t count = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&count));
    stats.count = static_cast<size_t>(count);
    returns.emplace(sa, stats);
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(24, "global action returns", &n));
  std::unordered_map<FeatureKey, Stats> global;
  global.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    FeatureKey action = 0;
    Stats stats;
    ALEX_RETURN_NOT_OK(r->ReadU64(&action));
    ALEX_RETURN_NOT_OK(r->ReadDouble(&stats.sum));
    uint64_t count = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&count));
    stats.count = static_cast<size_t>(count);
    global.emplace(action, stats);
  }

  ALEX_RETURN_NOT_OK(r->ReadCount(16, "greedy actions", &n));
  std::unordered_map<PairKey, FeatureKey> greedy;
  greedy.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PairKey state = 0;
    FeatureKey action = 0;
    ALEX_RETURN_NOT_OK(r->ReadU64(&state));
    ALEX_RETURN_NOT_OK(r->ReadU64(&action));
    greedy.emplace(state, action);
  }

  epsilon_ = epsilon;
  rng_.RestoreState(rng_state);
  returns_ = std::move(returns);
  global_returns_ = std::move(global);
  greedy_ = std::move(greedy);
  return Status::OK();
}

PolicyRegistry::PolicyRegistry() {
  // The paper's policy ships with the registry itself, so a bare core
  // library always resolves the default tag.
  factories_[std::string(kDefaultPolicyTag)] =
      [](const AlexConfig& config, uint64_t seed) -> std::unique_ptr<Policy> {
    return std::make_unique<EpsilonGreedyPolicy>(config.epsilon, seed);
  };
}

PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = new PolicyRegistry();
  return *registry;
}

void PolicyRegistry::Register(std::string tag, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[std::move(tag)] = std::move(factory);
}

bool PolicyRegistry::Contains(std::string_view tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(std::string(tag)) > 0;
}

std::vector<std::string> PolicyRegistry::KnownTags() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> tags;
  tags.reserve(factories_.size());
  for (const auto& [tag, factory] : factories_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  return tags;
}

Result<std::unique_ptr<Policy>> PolicyRegistry::Create(
    std::string_view tag, const AlexConfig& config, uint64_t seed) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(std::string(tag));
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& t : KnownTags()) {
      if (!known.empty()) known += ", ";
      known += t;
    }
    return Status::NotFound("no policy registered under tag '" +
                            std::string(tag) + "' (known: " + known + ")");
  }
  return factory(config, seed);
}

}  // namespace alex::core
