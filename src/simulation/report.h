#ifndef ALEX_SIMULATION_REPORT_H_
#define ALEX_SIMULATION_REPORT_H_

#include <cstddef>
#include <ostream>
#include <string>

#include "simulation/simulation.h"

namespace alex::simulation {

/// A convergence episode (strict or relaxed) as printed: `none` for a run
/// that never converged, whose episode field stays 0 (a run converges at
/// episode 1 at the earliest).
std::string ConvergenceEpisode(size_t episode);

/// Prints the per-episode precision/recall/F series of a run in the layout
/// of the paper's quality figures (episode on the x-axis), plus the
/// relaxed/strict convergence markers.
void PrintEpisodeSeries(const RunResult& result, std::ostream& os);

/// Prints the one-line run summary: convergence episodes, links discovered,
/// and timing (Section 7.3 style).
void PrintRunSummary(const RunResult& result, std::ostream& os);

}  // namespace alex::simulation

#endif  // ALEX_SIMULATION_REPORT_H_
