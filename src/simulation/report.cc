#include "simulation/report.h"

#include <iomanip>

namespace alex::simulation {

namespace {

/// Restores the stream's format flags and precision on scope exit; the
/// printers set std::fixed/precision and must not leak that to the caller.
class ScopedStreamFormat {
 public:
  explicit ScopedStreamFormat(std::ostream& os)
      : os_(os), flags_(os.flags()), precision_(os.precision()) {}
  ~ScopedStreamFormat() {
    os_.flags(flags_);
    os_.precision(precision_);
  }

 private:
  std::ostream& os_;
  std::ios::fmtflags flags_;
  std::streamsize precision_;
};

}  // namespace

std::string ConvergenceEpisode(size_t episode) {
  return episode == 0 ? "none" : std::to_string(episode);
}

void PrintEpisodeSeries(const RunResult& result, std::ostream& os) {
  const ScopedStreamFormat restore(os);
  os << "# scenario: " << result.scenario_name << "\n";
  os << std::setw(8) << "episode" << std::setw(11) << "precision"
     << std::setw(9) << "recall" << std::setw(10) << "f-measure"
     << std::setw(12) << "candidates" << std::setw(9) << "changed"
     << std::setw(8) << "neg%" << "\n";
  if (result.episodes.empty()) {
    os << "  (no episodes)\n";
    return;
  }
  os << std::fixed << std::setprecision(3);
  for (const EpisodeRecord& r : result.episodes) {
    os << std::setw(8) << r.episode << std::setw(11) << r.metrics.precision
       << std::setw(9) << r.metrics.recall << std::setw(10)
       << r.metrics.f_measure << std::setw(12) << r.metrics.candidates
       << std::setw(9) << r.links_changed << std::setw(8)
       << r.NegativeFeedbackPercent() << "\n";
  }
}

void PrintRunSummary(const RunResult& result, std::ostream& os) {
  const ScopedStreamFormat restore(os);
  if (result.episodes.empty()) {
    // final_episode() on a zero-episode run would dereference an empty
    // vector; emit an explicit no-episodes summary instead.
    os << "scenario=" << result.scenario_name << " episodes=0 (no episodes)"
       << std::fixed << std::setprecision(2)
       << " total_s=" << result.total_seconds << "\n";
    return;
  }
  const EpisodeRecord& last = result.final_episode();
  os << "scenario=" << result.scenario_name
     << " episodes=" << result.episodes.size() - 1
     << " strict_convergence=" << ConvergenceEpisode(result.converged_episode)
     << " relaxed_convergence=" << ConvergenceEpisode(result.relaxed_episode)
     << " initial_links=" << result.initial_links
     << " new_links_discovered=" << result.new_links_discovered
     << " final_F=" << std::fixed << std::setprecision(3)
     << last.metrics.f_measure << " final_P=" << last.metrics.precision
     << " final_R=" << last.metrics.recall << std::setprecision(2)
     << " build_max_s=" << result.build_seconds_max
     << " total_s=" << result.total_seconds << "\n";
}

}  // namespace alex::simulation
