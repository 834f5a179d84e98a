#include "simulation/simulation.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "feedback/oracle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paris/seed_linkers.h"
#include "rl/adaptive_policy.h"

namespace alex::simulation {
namespace {

using core::PartitionedAlex;
using feedback::PairKey;

size_t SymmetricDifferenceSize(const std::unordered_set<PairKey>& a,
                               const std::unordered_set<PairKey>& b) {
  size_t diff = 0;
  for (PairKey k : a) {
    if (!b.count(k)) ++diff;
  }
  for (PairKey k : b) {
    if (!a.count(k)) ++diff;
  }
  return diff;
}

obs::Counter& ResumeCounter() {
  return obs::MetricsRegistry::Global().counter("ckpt.resumes");
}

/// Simulation checkpoint payload (kind kSimulation): the seed-linker tag
/// (format v2+), the boundary episode, the oracle's RNG stream, the
/// per-episode series so far, and the embedded PartitionedAlex snapshot.
/// Everything else a resumed run needs (datasets, link spaces, seed links)
/// is deterministically regenerated — which is exactly why the linker tag
/// is persisted: the regenerated initial candidate set must come from the
/// same linker, or the resumed run silently diverges.
std::string SerializeSimulationState(std::string_view linker_tag,
                                     size_t boundary_episode,
                                     const feedback::Oracle& oracle,
                                     uint64_t oracle_seed,
                                     const RunResult& result,
                                     const PartitionedAlex& alex) {
  BinaryWriter w;
  w.WriteBytes(linker_tag);
  w.WriteU64(boundary_episode);
  for (uint64_t word : oracle.SaveRngState()) w.WriteU64(word);
  w.WriteDouble(oracle.error_rate());
  w.WriteU64(oracle_seed);
  w.WriteU64(result.relaxed_episode);
  w.WriteU64(result.episodes.size());
  for (const EpisodeRecord& rec : result.episodes) {
    w.WriteU64(rec.episode);
    w.WriteDouble(rec.metrics.precision);
    w.WriteDouble(rec.metrics.recall);
    w.WriteDouble(rec.metrics.f_measure);
    w.WriteU64(rec.metrics.correct);
    w.WriteU64(rec.metrics.candidates);
    w.WriteU64(rec.metrics.ground_truth);
    w.WriteU64(rec.links_changed);
    w.WriteU64(rec.positive_feedback);
    w.WriteU64(rec.negative_feedback);
    w.WriteU64(rec.links_added);
    w.WriteU64(rec.links_removed);
    w.WriteU64(rec.rollbacks);
    w.WriteDouble(rec.seconds);
  }
  BinaryWriter alex_payload;
  alex.SaveState(&alex_payload);
  w.WriteBytes(alex_payload.buffer());
  return w.Release();
}

/// Restores a kSimulation payload written at container `format_version`.
/// Fills `*boundary_episode`, the oracle RNG, `result->episodes` /
/// `relaxed_episode`, and the engines in `*alex`. `linker_tag` is the tag
/// of the linker this run actually used: version-2 payloads carry the
/// checkpointing run's tag and the two must agree; version-1 payloads
/// predate pluggable linkers and are implicitly "paris".
Status RestoreSimulationState(std::string_view payload, uint32_t format_version,
                              std::string_view linker_tag,
                              const SimulationConfig& config,
                              size_t* boundary_episode,
                              feedback::Oracle* oracle, RunResult* result,
                              PartitionedAlex* alex) {
  BinaryReader r(payload);
  if (format_version >= 2) {
    std::string_view saved_tag;
    ALEX_RETURN_NOT_OK(r.ReadBytesView(&saved_tag));
    if (saved_tag != linker_tag) {
      return Status::InvalidArgument(
          "checkpoint: linker section has type tag '" +
          std::string(saved_tag) + "', but this run uses linker '" +
          std::string(linker_tag) + "'");
    }
  } else if (linker_tag != paris::kParisLinkerTag) {
    return Status::InvalidArgument(
        "checkpoint: version-1 linker is implicitly 'paris', but this run "
        "uses linker '" +
        std::string(linker_tag) + "'");
  }
  uint64_t boundary = 0;
  ALEX_RETURN_NOT_OK(r.ReadU64(&boundary));
  Rng::State oracle_rng;
  for (uint64_t& word : oracle_rng) ALEX_RETURN_NOT_OK(r.ReadU64(&word));
  double error_rate = 0.0;
  uint64_t oracle_seed = 0;
  ALEX_RETURN_NOT_OK(r.ReadDouble(&error_rate));
  ALEX_RETURN_NOT_OK(r.ReadU64(&oracle_seed));
  if (error_rate != config.feedback_error_rate ||
      oracle_seed != config.oracle_seed) {
    return Status::InvalidArgument(
        "checkpoint oracle settings (error_rate/seed) differ from the "
        "resuming run's");
  }
  uint64_t relaxed = 0;
  ALEX_RETURN_NOT_OK(r.ReadU64(&relaxed));
  // Minimum record size: 14 fixed 8-byte fields.
  uint64_t num_records = 0;
  ALEX_RETURN_NOT_OK(r.ReadCount(14 * 8, "episode records", &num_records));
  if (num_records != boundary + 1) {
    return Status::ParseError("checkpoint episode series length " +
                              std::to_string(num_records) +
                              " does not match boundary episode " +
                              std::to_string(boundary));
  }
  std::vector<EpisodeRecord> records;
  records.reserve(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    EpisodeRecord rec;
    uint64_t v = 0;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.episode = v;
    ALEX_RETURN_NOT_OK(r.ReadDouble(&rec.metrics.precision));
    ALEX_RETURN_NOT_OK(r.ReadDouble(&rec.metrics.recall));
    ALEX_RETURN_NOT_OK(r.ReadDouble(&rec.metrics.f_measure));
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.metrics.correct = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.metrics.candidates = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.metrics.ground_truth = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.links_changed = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.positive_feedback = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.negative_feedback = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.links_added = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.links_removed = v;
    ALEX_RETURN_NOT_OK(r.ReadU64(&v));
    rec.rollbacks = v;
    ALEX_RETURN_NOT_OK(r.ReadDouble(&rec.seconds));
    records.push_back(rec);
  }
  std::string_view alex_payload;
  ALEX_RETURN_NOT_OK(r.ReadBytesView(&alex_payload));
  if (!r.AtEnd()) {
    return Status::ParseError("checkpoint has trailing bytes");
  }
  BinaryReader ar(alex_payload);
  ALEX_RETURN_NOT_OK(alex->LoadState(&ar, format_version));

  // Engines restored; commit the driver-level pieces.
  oracle->RestoreRngState(oracle_rng);
  result->episodes = std::move(records);
  result->relaxed_episode = static_cast<size_t>(relaxed);
  *boundary_episode = static_cast<size_t>(boundary);
  return Status::OK();
}

}  // namespace

Simulation::Simulation(SimulationConfig config) : config_(std::move(config)) {
  // The simulation layer links every built-in policy, so make them all
  // selectable by tag before any engine is constructed.
  rl::RegisterAdaptiveFeaturePolicy();
}

feedback::GroundTruth Simulation::PartitionTruth(
    const feedback::GroundTruth& truth, const core::PartitionedAlex& alex,
    size_t partition) {
  feedback::GroundTruth out;
  for (PairKey key : truth.pairs()) {
    if (alex.PartitionOf(feedback::PairLeft(key)) == partition) {
      out.Add(feedback::PairLeft(key), feedback::PairRight(key));
    }
  }
  return out;
}

RunResult Simulation::Run() {
  ALEX_TRACE_SPAN("simulation", "Simulation::Run");
  RunResult result;
  result.scenario_name = config_.scenario.name;
  obs::RunTelemetry& telemetry = result.telemetry;
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::Global().Snapshot();
  Stopwatch total_watch;

  // 1. Data and ground truth.
  {
    obs::PhaseTimer phase(&telemetry, "generate");
    data_ = datagen::GenerateScenario(config_.scenario);
  }

  // 2. Initial candidate links from the configured seed linker. The phase
  // keeps its historical name "paris" (sidecar schemas key on it) even when
  // another linker runs. An unknown tag degrades to the default linker with
  // an error log, mirroring the engine's unknown-policy fallback.
  std::vector<paris::ScoredLink> initial;
  std::string linker_tag;
  {
    obs::PhaseTimer phase(&telemetry, "paris");
    auto linker = paris::MakeSeedLinker(config_.linker, &data_.left,
                                        &data_.right, config_.paris,
                                        config_.sigma);
    if (!linker.ok()) {
      ALEX_LOG(kError) << "linker '" << config_.linker
                       << "' unavailable, falling back to '"
                       << paris::kParisLinkerTag
                       << "': " << linker.status();
      linker = paris::MakeSeedLinker(paris::kParisLinkerTag, &data_.left,
                                     &data_.right, config_.paris,
                                     config_.sigma);
    }
    ALEX_TRACE_SPAN("simulation", "SeedLinker::Run");
    linker_tag = std::string((*linker)->type_tag());
    initial = (*linker)->Run();
  }
  result.initial_links = initial.size();

  // 3. Partitioned ALEX over the pair. The build phase splits into the
  // shared blocking-index/cache construction ("blocking", amortized across
  // partitions) and the per-partition space builds ("build_space").
  PartitionedAlex alex(&data_.left, &data_.right, config_.alex);
  {
    obs::PhaseTimer phase(&telemetry, "build_space");
    const std::vector<double> build_seconds = alex.Build();
    for (double s : build_seconds) {
      result.build_seconds_max = std::max(result.build_seconds_max, s);
      result.build_seconds_avg += s;
    }
    if (!build_seconds.empty()) {
      result.build_seconds_avg /= static_cast<double>(build_seconds.size());
    }
  }
  result.shared_index_seconds = alex.shared_index_seconds();
  // Carve the blocking time out of the build phase so the two are disjoint.
  if (!telemetry.phases.empty() &&
      telemetry.phases.back().first == "build_space") {
    telemetry.phases.back().second = std::max(
        0.0, telemetry.phases.back().second - result.shared_index_seconds);
  }
  telemetry.AddPhase("blocking", result.shared_index_seconds);
  result.space_stats = alex.AggregatedSpaceStats();
  alex.InitializeCandidates(initial);

  std::unordered_set<PairKey> initial_set;
  for (const paris::ScoredLink& link : initial) {
    initial_set.insert(feedback::PackPair(link.left, link.right));
  }

  // Episode 0: the automatic linker's quality.
  std::unordered_set<PairKey> previous = alex.Candidates();
  EpisodeRecord first;
  first.episode = 0;
  first.metrics = core::ComputeMetrics(previous, data_.truth);
  result.episodes.push_back(first);

  feedback::Oracle oracle(&data_.truth, config_.feedback_error_rate,
                          config_.oracle_seed);

  const uint64_t fingerprint = core::ckpt::ConfigFingerprint(config_.alex);
  size_t start_episode = 1;

  // Resume: restore the engines, the oracle stream, and the episode series
  // from the newest (or named) checkpoint, then continue the loop exactly
  // where the checkpointing run left off. A failed restore aborts the run
  // with `resume_error` set — continuing fresh would silently diverge.
  if (!config_.resume_from.empty()) {
    Status st;
    auto path = core::ckpt::CheckpointManager::ResolveLatest(config_.resume_from);
    if (!path.ok()) st = path.status();
    if (st.ok()) {
      auto blob = core::ckpt::CheckpointManager::ReadBlob(*path);
      if (!blob.ok()) {
        st = blob.status();
      } else {
        uint32_t format_version = core::ckpt::kFormatVersion;
        auto payload = core::ckpt::UnwrapPayload(
            *blob, core::ckpt::PayloadKind::kSimulation, fingerprint,
            &format_version);
        if (!payload.ok()) {
          st = payload.status();
        } else {
          size_t boundary = 0;
          st = RestoreSimulationState(*payload, format_version, linker_tag,
                                      config_, &boundary, &oracle, &result,
                                      &alex);
          if (st.ok()) {
            start_episode = boundary + 1;
            result.resumed_from_episode = boundary;
            previous = alex.Candidates();
            ResumeCounter().Add(1);
            ALEX_LOG(kInfo) << "resumed '" << result.scenario_name
                            << "' from episode " << boundary << " ("
                            << *path << ")";
          }
        }
      }
    }
    if (!st.ok()) {
      ALEX_LOG(kError) << "resume from '" << config_.resume_from
                       << "' failed: " << st;
      result.resume_error = st;
      result.total_seconds = total_watch.ElapsedSeconds();
      telemetry.wall_seconds = result.total_seconds;
      telemetry.metrics =
          obs::MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before);
      return result;
    }
  }

  std::unique_ptr<core::ckpt::CheckpointManager> ckpt_manager;
  if (config_.checkpoint_every_k_episodes > 0) {
    ckpt_manager = std::make_unique<core::ckpt::CheckpointManager>(
        config_.checkpoint_dir.empty() ? "alex-checkpoints"
                                       : config_.checkpoint_dir,
        config_.checkpoint_keep);
  }

  // 4. Policy evaluation / policy improvement iterations.
  for (size_t episode = start_episode; episode <= config_.alex.max_episodes;
       ++episode) {
    ALEX_TRACE_SPAN("simulation", "Episode");
    Stopwatch episode_watch;
    {
      obs::PhaseTimer phase(&telemetry, "explore");
      for (size_t i = 0; i < config_.alex.episode_size; ++i) {
        // The candidate set evolves within the episode (actions add links,
        // negative feedback removes them), so re-sample from the live set:
        // newly discovered links can receive feedback in the same episode.
        auto item = oracle.SampleAndJudge(
            alex.NumCandidates(), [&](size_t k) { return alex.CandidateAt(k); });
        if (!item.has_value()) break;
        alex.ProcessFeedback(*item);
      }
    }
    core::EngineEpisodeStats stats;
    {
      obs::PhaseTimer phase(&telemetry, "end_episode");
      stats = alex.EndEpisode();
    }

    obs::PhaseTimer evaluate_phase(&telemetry, "evaluate");
    const std::unordered_set<PairKey> current = alex.Candidates();
    EpisodeRecord record;
    record.episode = episode;
    record.metrics = core::ComputeMetrics(current, data_.truth);
    record.links_changed = SymmetricDifferenceSize(previous, current);
    record.positive_feedback = stats.positive_items;
    record.negative_feedback = stats.negative_items;
    record.links_added = stats.links_added;
    record.links_removed = stats.links_removed;
    record.rollbacks = stats.rollbacks;
    record.seconds = episode_watch.ElapsedSeconds();
    result.episodes.push_back(record);

    if (observer_) observer_(episode, alex);
    // Phases are disjoint by contract; end "evaluate" before "checkpoint".
    evaluate_phase.Stop();

    if (result.relaxed_episode == 0 && !previous.empty() &&
        static_cast<double>(record.links_changed) <
            config_.alex.relaxed_fraction *
                static_cast<double>(previous.size())) {
      result.relaxed_episode = episode;
    }

    // Durable snapshot at the episode boundary: engine + oracle + series
    // (after the relaxed-convergence bookkeeping so the saved series is
    // exactly the uninterrupted run's view of this boundary). A write
    // failure is logged and the run continues — older retained checkpoints
    // stay valid behind the manifest.
    if (ckpt_manager && episode % config_.checkpoint_every_k_episodes == 0) {
      obs::PhaseTimer ckpt_phase(&telemetry, "checkpoint");
      const std::string blob = core::ckpt::WrapPayload(
          core::ckpt::PayloadKind::kSimulation, fingerprint,
          SerializeSimulationState(linker_tag, episode, oracle,
                                   config_.oracle_seed, result, alex));
      const Status st = ckpt_manager->Write(blob);
      if (!st.ok()) {
        ALEX_LOG(kWarning) << "checkpoint write at episode " << episode
                           << " failed: " << st;
      }
    }

    // Episode boundary: the hub samples if its interval has elapsed, so a
    // long run streams metric deltas and SLO evaluations as it goes.
    if (config_.telemetry_hub != nullptr) config_.telemetry_hub->MaybeSample();

    if (record.links_changed == 0) {
      result.converged_episode = episode;
      previous = current;
      break;
    }
    previous = current;
  }

  // New correct links discovered: correct links in the final set that were
  // not produced by the automatic linker.
  for (PairKey key : previous) {
    if (data_.truth.Contains(key) && !initial_set.count(key)) {
      ++result.new_links_discovered;
    }
  }
  result.total_seconds = total_watch.ElapsedSeconds();
  telemetry.wall_seconds = result.total_seconds;
  telemetry.metrics =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before);
  ALEX_LOG(kDebug) << "run '" << result.scenario_name << "' finished: "
                   << result.episodes.size() - 1 << " episodes, "
                   << telemetry.PhaseSecondsTotal() << "s in phases of "
                   << telemetry.wall_seconds << "s wall";
  return result;
}

}  // namespace alex::simulation
