// Runs any built-in scenario end to end and prints the per-episode quality
// series, mirroring the paper's figures.
//
// Usage:
//   run_scenario [scenario] [episode_size] [step_size] [error_rate]
//                [epsilon] [max_links_per_action] [flags...]
//   run_scenario --list
//
// Flags (anywhere after the positionals):
//   --checkpoint-dir <dir>    where snapshots go (default: alex-checkpoints)
//   --checkpoint-every <k>    write a snapshot every k episodes (0 = off)
//   --checkpoint-keep <n>     retained snapshot depth (default: 3)
//   --resume <path>           resume from a checkpoint file, directory, or
//                             MANIFEST (newest retained snapshot)
//   --max-episodes <n>        episode budget (useful with --resume)
//   --linker <tag>            seed linker: paris (default) or sigma
//   --policy <tag>            RL policy: epsilon-greedy (default) or
//                             adaptive-feature
//   --telemetry-interval <s>  sample the metrics registry every s seconds
//                             of run time (0 = off; enables the hub)
//   --telemetry-out <file>    write the hub's JSON timeline here
//                             (default: telemetry_timeline.json)
//   --prom-out <file>         write Prometheus text exposition here
//   --slo <h>:<q>:<target>    add a latency SLO on histogram <h> at
//                             quantile <q> with target <target> seconds
//                             (repeatable), e.g.
//                             --slo fed.query_seconds:0.99:0.5
//
// Examples (one command each; indented lines continue it):
//   ./build/examples/run_scenario dbpedia_drugbank 1000 0.05 0.0
//   ./build/examples/run_scenario dbpedia_drugbank 1000 0.05 0.0 0.1 0
//       --checkpoint-every 10 --checkpoint-dir /tmp/ckpt
//   ./build/examples/run_scenario dbpedia_drugbank 1000 0.05 0.0 0.1 0
//       --telemetry-interval 1 --slo phase.explore:0.99:5.0
//       --telemetry-out /tmp/timeline.json --prom-out /tmp/metrics.prom

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "core/policy.h"
#include "datagen/scenarios.h"
#include "obs/telemetry_hub.h"
#include "paris/seed_linkers.h"
#include "rl/adaptive_policy.h"
#include "simulation/report.h"
#include "simulation/simulation.h"

namespace {

/// Parses "<histogram>:<quantile>:<target_seconds>"; exits on malformed
/// input (this is an operator-facing flag; fail fast beats guessing).
alex::obs::SloConfig ParseSloFlag(const std::string& spec) {
  const size_t first = spec.find(':');
  const size_t second = first == std::string::npos
                            ? std::string::npos
                            : spec.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos) {
    std::cerr << "--slo expects <histogram>:<quantile>:<target_seconds>, got '"
              << spec << "'\n";
    std::exit(1);
  }
  alex::obs::SloConfig slo;
  slo.histogram = spec.substr(0, first);
  slo.quantile = std::strtod(spec.substr(first + 1, second - first - 1).c_str(),
                             nullptr);
  slo.target_seconds = std::strtod(spec.substr(second + 1).c_str(), nullptr);
  slo.name = slo.histogram + "_p" +
             std::to_string(static_cast<int>(slo.quantile * 100));
  if (slo.quantile <= 0.0 || slo.quantile > 1.0 || slo.target_seconds <= 0.0) {
    std::cerr << "--slo '" << spec
              << "': quantile must be in (0,1] and target > 0\n";
    std::exit(1);
  }
  return slo;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alex;
  InitLoggingFromEnv();

  // Split positional operands from --flag value pairs.
  std::vector<std::string> positional;
  simulation::SimulationConfig config;
  size_t checkpoint_every = 0;
  double telemetry_interval = 0.0;
  std::string telemetry_out = "telemetry_timeline.json";
  std::string prom_out;
  std::vector<obs::SloConfig> slos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--checkpoint-dir")) {
      config.checkpoint_dir = v;
    } else if (const char* v = flag_value("--checkpoint-every")) {
      checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--checkpoint-keep")) {
      config.checkpoint_keep = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--resume")) {
      config.resume_from = v;
    } else if (const char* v = flag_value("--max-episodes")) {
      config.alex.max_episodes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--linker")) {
      config.linker = v;
    } else if (const char* v = flag_value("--policy")) {
      config.alex.policy = v;
    } else if (const char* v = flag_value("--telemetry-interval")) {
      telemetry_interval = std::strtod(v, nullptr);
    } else if (const char* v = flag_value("--telemetry-out")) {
      telemetry_out = v;
    } else if (const char* v = flag_value("--prom-out")) {
      prom_out = v;
    } else if (const char* v = flag_value("--slo")) {
      slos.push_back(ParseSloFlag(v));
    } else if (arg.rfind("--", 0) == 0 && arg != "--list") {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 1;
    } else {
      positional.push_back(arg);
    }
  }
  config.checkpoint_every_k_episodes = checkpoint_every;

  // Validate the pluggable tags up front: a typo should stop the run here,
  // not fall back to the default linker mid-run or fail after generation.
  rl::RegisterAdaptiveFeaturePolicy();
  {
    const std::vector<std::string> linkers = paris::KnownLinkerTags();
    if (std::find(linkers.begin(), linkers.end(), config.linker) ==
        linkers.end()) {
      std::cerr << "unknown linker '" << config.linker << "' (known:";
      for (const std::string& tag : linkers) std::cerr << " " << tag;
      std::cerr << ")\n";
      return 1;
    }
    if (!core::PolicyRegistry::Global().Contains(config.alex.policy)) {
      std::cerr << "unknown policy '" << config.alex.policy << "' (known:";
      for (const std::string& tag : core::PolicyRegistry::Global().KnownTags())
        std::cerr << " " << tag;
      std::cerr << ")\n";
      return 1;
    }
  }

  const std::string name = !positional.empty() ? positional[0]
                                               : "dbpedia_nytimes";
  if (name == "--list") {
    for (const auto& s : datagen::AllScenarios()) {
      std::cout << s.name << "\n";
    }
    return 0;
  }

  datagen::ScenarioConfig scenario = datagen::ScenarioByName(name);
  if (scenario.name.empty()) {
    std::cerr << "unknown scenario '" << name << "' (try --list)\n";
    return 1;
  }

  config.scenario = scenario;
  if (positional.size() > 1) {
    config.alex.episode_size = std::strtoull(positional[1].c_str(), nullptr, 10);
  }
  if (positional.size() > 2) {
    config.alex.step_size = std::strtod(positional[2].c_str(), nullptr);
  }
  if (positional.size() > 3) {
    config.feedback_error_rate = std::strtod(positional[3].c_str(), nullptr);
  }
  if (positional.size() > 4) {
    config.alex.epsilon = std::strtod(positional[4].c_str(), nullptr);
  }
  if (positional.size() > 5) {
    config.alex.max_links_per_action =
        std::strtoull(positional[5].c_str(), nullptr, 10);
  }

  // Live telemetry: the hub samples at episode boundaries (wall clock) and
  // flushes a JSON timeline + optional Prometheus exposition at exit.
  SteadyClock telemetry_clock;
  std::unique_ptr<obs::TelemetryHub> hub;
  if (telemetry_interval > 0.0 || !slos.empty() || !prom_out.empty()) {
    hub = std::make_unique<obs::TelemetryHub>(
        &telemetry_clock,
        telemetry_interval > 0.0 ? telemetry_interval : 1.0);
    for (obs::SloConfig& slo : slos) hub->AddSlo(std::move(slo));
    config.telemetry_hub = hub.get();
  }

  simulation::Simulation sim(config);
  const simulation::RunResult result = sim.Run();
  if (!result.resume_error.ok()) {
    std::cerr << "resume failed: " << result.resume_error << "\n";
    return 2;
  }
  if (result.resumed_from_episode > 0) {
    std::cout << "# resumed from episode " << result.resumed_from_episode
              << "\n";
  }
  simulation::PrintEpisodeSeries(result, std::cout);
  std::cout << "\n";
  simulation::PrintRunSummary(result, std::cout);

  if (hub) {
    hub->ForceSample();
    {
      std::ofstream out(telemetry_out);
      hub->WriteJsonTimeline(out);
    }
    std::cout << "# telemetry timeline (" << hub->sample_count()
              << " samples, " << hub->breach_count()
              << " SLO breaches) -> " << telemetry_out << "\n";
    if (!prom_out.empty()) {
      std::ofstream out(prom_out);
      hub->WritePrometheus(out);
      std::cout << "# prometheus exposition -> " << prom_out << "\n";
    }
  }
  return 0;
}
