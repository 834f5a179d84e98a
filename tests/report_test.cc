#include "simulation/report.h"

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace alex::simulation {
namespace {

RunResult MakeTwoEpisodeResult() {
  RunResult result;
  result.scenario_name = "unit_scenario";
  result.converged_episode = 2;
  result.relaxed_episode = 1;
  result.initial_links = 40;
  result.new_links_discovered = 7;
  result.build_seconds_max = 0.25;
  result.total_seconds = 1.5;

  EpisodeRecord first;  // Episode 0: the automatic linker's state.
  first.episode = 0;
  first.metrics.precision = 0.5;
  first.metrics.recall = 0.25;
  first.metrics.f_measure = 1.0 / 3.0;
  first.metrics.candidates = 40;
  result.episodes.push_back(first);

  EpisodeRecord second;
  second.episode = 1;
  second.metrics.precision = 0.875;
  second.metrics.recall = 0.7;
  second.metrics.f_measure = 0.77777;
  second.metrics.candidates = 48;
  second.links_changed = 12;
  second.positive_feedback = 30;
  second.negative_feedback = 10;
  result.episodes.push_back(second);
  return result;
}

TEST(ReportTest, EpisodeSeriesListsEveryEpisode) {
  const RunResult result = MakeTwoEpisodeResult();
  std::ostringstream os;
  PrintEpisodeSeries(result, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# scenario: unit_scenario"), std::string::npos);
  EXPECT_NE(text.find("episode"), std::string::npos);
  EXPECT_NE(text.find("0.500"), std::string::npos);   // Episode 0 precision.
  EXPECT_NE(text.find("0.875"), std::string::npos);   // Episode 1 precision.
  EXPECT_NE(text.find("25.000"), std::string::npos);  // neg% = 10/40.
  // Header plus one row per episode.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(ReportTest, EpisodeSeriesEmptyRunSaysSo) {
  RunResult result;
  result.scenario_name = "empty_scenario";
  std::ostringstream os;
  PrintEpisodeSeries(result, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# scenario: empty_scenario"), std::string::npos);
  EXPECT_NE(text.find("(no episodes)"), std::string::npos);
}

TEST(ReportTest, RunSummaryReportsFinalMetricsAndConvergence) {
  const RunResult result = MakeTwoEpisodeResult();
  std::ostringstream os;
  PrintRunSummary(result, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("scenario=unit_scenario"), std::string::npos);
  EXPECT_NE(text.find("episodes=1"), std::string::npos);  // Excl. episode 0.
  EXPECT_NE(text.find("strict_convergence=2"), std::string::npos);
  EXPECT_NE(text.find("relaxed_convergence=1"), std::string::npos);
  EXPECT_NE(text.find("initial_links=40"), std::string::npos);
  EXPECT_NE(text.find("new_links_discovered=7"), std::string::npos);
  EXPECT_NE(text.find("final_P=0.875"), std::string::npos);
  EXPECT_NE(text.find("final_R=0.700"), std::string::npos);
  EXPECT_NE(text.find("total_s=1.50"), std::string::npos);
}

TEST(ReportTest, RunSummaryPrintsNoneForANeverConvergedRun) {
  RunResult result = MakeTwoEpisodeResult();
  result.converged_episode = 0;
  result.relaxed_episode = 0;
  std::ostringstream os;
  PrintRunSummary(result, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("strict_convergence=none"), std::string::npos);
  EXPECT_NE(text.find("relaxed_convergence=none"), std::string::npos);
  EXPECT_EQ(text.find("convergence=0"), std::string::npos);
}

TEST(ReportTest, ConvergenceEpisodeNamesTheEpisodeOrNone) {
  EXPECT_EQ(ConvergenceEpisode(0), "none");
  EXPECT_EQ(ConvergenceEpisode(1), "1");
  EXPECT_EQ(ConvergenceEpisode(20), "20");
}

TEST(ReportTest, RunSummaryEmptyRunDoesNotTouchFinalEpisode) {
  // A hand-built result with no episodes must not reach final_episode()
  // (episodes.back() on an empty vector is undefined behavior).
  RunResult result;
  result.scenario_name = "empty_scenario";
  result.total_seconds = 0.75;
  std::ostringstream os;
  PrintRunSummary(result, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("scenario=empty_scenario"), std::string::npos);
  EXPECT_NE(text.find("episodes=0"), std::string::npos);
  EXPECT_NE(text.find("(no episodes)"), std::string::npos);
  EXPECT_NE(text.find("total_s=0.75"), std::string::npos);
  EXPECT_EQ(text.find("final_F"), std::string::npos);
}

TEST(ReportTest, SeriesAndSummaryLeaveStreamFormattingUntouched) {
  const RunResult result = MakeTwoEpisodeResult();
  std::ostringstream os;
  PrintEpisodeSeries(result, os);
  PrintRunSummary(result, os);
  // Both printers set std::fixed internally and must clear it on exit.
  EXPECT_FALSE(os.flags() & std::ios::fixed);
  os << 0.123456789;
  EXPECT_NE(os.str().find("0.123457"), std::string::npos);
}

}  // namespace
}  // namespace alex::simulation
