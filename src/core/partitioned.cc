#include "core/partitioned.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/thread_pool.h"
#include "exec/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alex::core {
namespace {

/// Registry handles for the partition-orchestration layer: per-partition
/// build timing (each observation is one partition's wall time; the
/// histogram's max bucket tail shows the slowest-partition bound of
/// Section 7.3) and shared-resource construction.
struct PartitionMetrics {
  obs::Histogram& partition_build_seconds =
      obs::MetricsRegistry::Global().histogram(
          "partition.build_seconds");
  obs::Histogram& shared_index_seconds =
      obs::MetricsRegistry::Global().histogram(
          "partition.shared_index_seconds");
  obs::Histogram& end_episode_seconds =
      obs::MetricsRegistry::Global().histogram(
          "partition.end_episode_seconds");

  static PartitionMetrics& Get() {
    static PartitionMetrics* metrics = new PartitionMetrics();
    return *metrics;
  }
};

}  // namespace

PartitionedAlex::PartitionedAlex(const rdf::Dataset* left,
                                 const rdf::Dataset* right,
                                 const AlexConfig& config)
    : left_(left), right_(right), config_(config) {
  size_t n = config_.num_partitions;
  if (n == 0) n = 1;
  partition_entities_.resize(n);
  for (rdf::EntityId e = 0; e < left_->num_entities(); ++e) {
    partition_entities_[e % n].push_back(e);
  }
  Rng seeder(config_.seed);
  for (size_t p = 0; p < n; ++p) {
    spaces_.push_back(std::make_unique<LinkSpace>());
    engines_.push_back(
        std::make_unique<AlexEngine>(spaces_[p].get(), config_, seeder.Next()));
  }
}

ThreadPool* PartitionedAlex::pool() const {
  if (!pool_) {
    size_t threads = config_.num_threads;
    if (threads == 0) {
      threads = exec::CpuTopology::Detect().RecommendedWorkers();
    }
    pool_ = std::make_unique<ThreadPool>(std::min(threads, spaces_.size()),
                                         "alexp");
  }
  return pool_.get();
}

std::vector<double> PartitionedAlex::Build() {
  ALEX_TRACE_SPAN("build", "PartitionedAlex::Build");
  PartitionMetrics& metrics = PartitionMetrics::Get();
  const size_t n = spaces_.size();
  std::vector<double> seconds(n, 0.0);
  shared_index_seconds_ = 0.0;

  // Phase 1: shared read-only build resources, constructed once per dataset
  // pair. The four pieces are independent, so they build concurrently.
  std::unique_ptr<BlockingIndex> right_index;
  std::unique_ptr<TermKeyCache> left_keys;
  std::unique_ptr<ValueCache> left_values;
  std::unique_ptr<ValueCache> right_values;
  {
    ALEX_TRACE_SPAN("build", "SharedBuildResources");
    obs::ScopedTimer timer(metrics.shared_index_seconds,
                           &shared_index_seconds_);
    ParallelFor(pool(), 4, [&](size_t task) {
      switch (task) {
        case 0: right_index = std::make_unique<BlockingIndex>(*right_); break;
        case 1: left_keys = std::make_unique<TermKeyCache>(*left_); break;
        case 2: left_values = std::make_unique<ValueCache>(*left_); break;
        case 3: right_values = std::make_unique<ValueCache>(*right_); break;
      }
    });
  }

  // Phase 2: per-partition builds, all borrowing the shared resources.
  const BuildResources res{right_index.get(), left_keys.get(),
                           left_values.get(), right_values.get()};
  ParallelFor(pool(), n, [this, &metrics, &seconds, &res](size_t p) {
    obs::ScopedTimer timer(metrics.partition_build_seconds, &seconds[p]);
    spaces_[p]->Build(*left_, *right_, partition_entities_[p], config_.theta,
                      config_.max_block_pairs, res);
  });
  return seconds;
}

void PartitionedAlex::InitializeCandidates(
    const std::vector<paris::ScoredLink>& links) {
  std::vector<PairKey> keys;
  keys.reserve(links.size());
  for (const paris::ScoredLink& link : links) {
    keys.push_back(feedback::PackPair(link.left, link.right));
  }
  InitializeCandidates(keys);
}

void PartitionedAlex::InitializeCandidates(const std::vector<PairKey>& links) {
  std::vector<std::vector<PairKey>> routed(engines_.size());
  for (PairKey key : links) {
    routed[PartitionOf(feedback::PairLeft(key))].push_back(key);
  }
  for (size_t p = 0; p < engines_.size(); ++p) {
    engines_[p]->InitializeCandidates(routed[p]);
  }
}

void PartitionedAlex::ProcessFeedback(const feedback::FeedbackItem& item) {
  engines_[PartitionOf(item.left)]->ProcessFeedback(item);
}

void PartitionedAlex::ProcessFeedbackBatch(
    const std::vector<feedback::FeedbackItem>& items) {
  std::vector<std::vector<feedback::FeedbackItem>> routed(engines_.size());
  for (const feedback::FeedbackItem& item : items) {
    routed[PartitionOf(item.left)].push_back(item);
  }
  ParallelFor(pool(), engines_.size(), [this, &routed](size_t p) {
    for (const feedback::FeedbackItem& item : routed[p]) {
      engines_[p]->ProcessFeedback(item);
    }
  });
}

EngineEpisodeStats PartitionedAlex::EndEpisode() {
  ALEX_TRACE_SPAN("episode", "PartitionedAlex::EndEpisode");
  obs::ScopedTimer timer(PartitionMetrics::Get().end_episode_seconds);
  // Policy improvement is per-partition work over disjoint engines, so the
  // episode ends in parallel; only the trivial stat summation is serial.
  std::vector<EngineEpisodeStats> per_engine(engines_.size());
  ParallelFor(pool(), engines_.size(), [this, &per_engine](size_t p) {
    per_engine[p] = engines_[p]->EndEpisode();
  });
  EngineEpisodeStats total;
  for (const EngineEpisodeStats& s : per_engine) {
    total.feedback_items += s.feedback_items;
    total.positive_items += s.positive_items;
    total.negative_items += s.negative_items;
    total.links_added += s.links_added;
    total.links_removed += s.links_removed;
    total.rollbacks += s.rollbacks;
  }
  return total;
}

PartitionedAlex::EpisodeCommit PartitionedAlex::CommitFeedbackBatch(
    const std::vector<feedback::FeedbackItem>& items) {
  // The window opens BEFORE feedback routing: ProcessFeedback mutates the
  // candidate set directly (rejected links are erased, approvals can fan
  // out into exploration adds), and EndEpisode only improves the policy.
  std::vector<PairKey> before = CandidateVector();
  ProcessFeedbackBatch(items);
  EpisodeCommit commit;
  commit.stats = EndEpisode();
  std::vector<PairKey> after = CandidateVector();
  // CandidateVector's canonical order is partition-major (sorted only
  // within each partition), so both snapshots are re-sorted globally
  // before the set differences.
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(commit.added));
  std::set_difference(before.begin(), before.end(), after.begin(),
                      after.end(), std::back_inserter(commit.removed));
  return commit;
}

std::unordered_set<PairKey> PartitionedAlex::Candidates() const {
  const std::vector<PairKey> flat = CandidateVector();
  std::unordered_set<PairKey> out;
  out.reserve(flat.size());
  out.insert(flat.begin(), flat.end());
  return out;
}

std::vector<PairKey> PartitionedAlex::CandidateVector() const {
  // Left entities are partitioned, so no pair appears in two slices, and
  // each engine's set is already ascending.
  std::vector<PairKey> out;
  out.reserve(NumCandidates());
  for (const auto& engine : engines_) {
    out.insert(out.end(), engine->candidates().begin(),
               engine->candidates().end());
  }
  return out;
}

PairKey PartitionedAlex::CandidateAt(size_t k) const {
  for (const auto& engine : engines_) {
    const SortedKeySet& slice = engine->candidates();
    if (k < slice.size()) return slice[k];
    k -= slice.size();
  }
  assert(false && "candidate index out of range");
  return 0;
}

size_t PartitionedAlex::NumCandidates() const {
  size_t n = 0;
  for (const auto& engine : engines_) n += engine->candidates().size();
  return n;
}

LinkSpace::BuildStats PartitionedAlex::AggregatedSpaceStats() const {
  LinkSpace::BuildStats total;
  for (const auto& space : spaces_) {
    const LinkSpace::BuildStats& s = space->stats();
    total.total_possible += s.total_possible;
    total.candidate_pairs += s.candidate_pairs;
    total.kept_pairs += s.kept_pairs;
    total.features_indexed += s.features_indexed;
    total.cells_scored += s.cells_scored;
    total.cells_skipped += s.cells_skipped;
  }
  return total;
}

void PartitionedAlex::SaveState(BinaryWriter* w) const {
  w->WriteU64(engines_.size());
  w->WriteU64(left_->num_entities());
  for (const auto& engine : engines_) {
    BinaryWriter ew;
    engine->SaveState(&ew);
    w->WriteBytes(ew.buffer());
  }
}

Status PartitionedAlex::LoadState(BinaryReader* r, uint32_t format_version) {
  uint64_t num_partitions = 0;
  ALEX_RETURN_NOT_OK(r->ReadU64(&num_partitions));
  if (num_partitions != engines_.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(num_partitions) +
        " partitions, this instance has " + std::to_string(engines_.size()));
  }
  uint64_t num_left = 0;
  ALEX_RETURN_NOT_OK(r->ReadU64(&num_left));
  if (num_left != left_->num_entities()) {
    return Status::InvalidArgument(
        "checkpoint was taken over a left dataset with " +
        std::to_string(num_left) + " entities, this one has " +
        std::to_string(left_->num_entities()));
  }
  // Stage every partition into a fresh engine before swapping anything in:
  // a payload that corrupts mid-stream must not leave partition 0 restored
  // and partition 1 untouched.
  std::vector<std::unique_ptr<AlexEngine>> staged;
  staged.reserve(engines_.size());
  for (size_t p = 0; p < engines_.size(); ++p) {
    std::string_view payload;
    ALEX_RETURN_NOT_OK(r->ReadBytesView(&payload));
    BinaryReader er(payload);
    staged.push_back(
        std::make_unique<AlexEngine>(spaces_[p].get(), config_, 0));
    ALEX_RETURN_NOT_OK(staged[p]->LoadState(&er, format_version));
    if (!er.AtEnd()) {
      return Status::ParseError("partition " + std::to_string(p) +
                                " payload has trailing bytes");
    }
  }
  engines_ = std::move(staged);
  return Status::OK();
}

}  // namespace alex::core
