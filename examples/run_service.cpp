// Runs the long-running concurrent link service over a built-in scenario:
// N closed-loop simulated clients share one PartitionedAlex and one
// endpoint stack, issuing federated queries against epoch-versioned link
// snapshots while feedback batches commit new epochs underneath them.
//
// Usage:
//   run_service [scenario] [clients] [ops_per_client] [flags...]
//   run_service --list
//
// Flags (anywhere after the positionals):
//   --think <s>               client think time between ops (default 0)
//   --feedback-fraction <p>   probability an answered query yields feedback
//   --batch <n>               feedback items per episode commit (default 32)
//   --max-in-flight <n>       admission bound (0 = 2x clients)
//   --deterministic           single-threaded SimClock mode (repeatable)
//   --seed <n>                service seed (default 1)
//   --checkpoint-dir <dir>    where service snapshots go (enables them)
//   --checkpoint-every <k>    write a snapshot every k commits (default 1)
//   --checkpoint-keep <n>     retained snapshot depth (default 3)
//   --resume <path>           resume from a checkpoint file/dir/MANIFEST
//   --telemetry-interval <s>  hub sampling interval (0 = off)
//   --telemetry-out <file>    hub JSON timeline (default service_timeline.json)
//   --prom-out <file>         Prometheus text exposition
//   --slo <h>:<q>:<target>    latency SLO, e.g. --slo svc.query_seconds:0.99:0.1
//
// Example (one command; indented lines continue it):
//   ./build/examples/run_service dbpedia_nytimes 64 100
//       --slo svc.query_seconds:0.99:0.25 --telemetry-interval 0.5

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "core/partitioned.h"
#include "datagen/scenarios.h"
#include "obs/telemetry_hub.h"
#include "paris/paris.h"
#include "service/link_service.h"

namespace {

/// Parses "<histogram>:<quantile>:<target_seconds>"; exits on malformed
/// input (operator-facing flag; fail fast beats guessing).
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

  std::vector<std::string> positional;
  svc::ServiceConfig config;
  double telemetry_interval = 0.0;
  std::string telemetry_out = "service_timeline.json";
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
    if (const char* v = flag_value("--think")) {
      config.think_seconds = std::strtod(v, nullptr);
    } else if (const char* v = flag_value("--feedback-fraction")) {
      config.feedback_fraction = std::strtod(v, nullptr);
    } else if (const char* v = flag_value("--batch")) {
      config.feedback_batch = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--max-in-flight")) {
      config.max_in_flight = std::strtoull(v, nullptr, 10);
    } else if (arg == "--deterministic") {
      config.deterministic = true;
    } else if (const char* v = flag_value("--seed")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--checkpoint-dir")) {
      config.checkpoint_dir = v;
    } else if (const char* v = flag_value("--checkpoint-every")) {
      config.checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--checkpoint-keep")) {
      config.checkpoint_keep = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--resume")) {
      config.resume_from = v;
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
  if (positional.size() > 1) {
    config.num_clients = std::strtoull(positional[1].c_str(), nullptr, 10);
  }
  if (positional.size() > 2) {
    config.ops_per_client = std::strtoull(positional[2].c_str(), nullptr, 10);
  }

  SteadyClock telemetry_clock;
  std::unique_ptr<obs::TelemetryHub> hub;
  if (telemetry_interval > 0.0 || !slos.empty() || !prom_out.empty()) {
    hub = std::make_unique<obs::TelemetryHub>(
        &telemetry_clock,
        telemetry_interval > 0.0 ? telemetry_interval : 1.0);
    for (obs::SloConfig& slo : slos) hub->AddSlo(std::move(slo));
    config.hub = hub.get();
  }

  // Setup mirrors the simulation: generate, link automatically with PARIS,
  // seed the engine's candidates from the linker's output — then hand the
  // shared engine to the service instead of the episode loop.
  std::cout << "# generating scenario " << scenario.name << "\n";
  datagen::GeneratedPair pair = datagen::GenerateScenario(scenario);
  core::AlexConfig alex_config;
  core::PartitionedAlex alex(&pair.left, &pair.right, alex_config);
  alex.Build();
  paris::ParisLinker linker(&pair.left, &pair.right, {});
  alex.InitializeCandidates(linker.Run());

  std::cout << "# serving: " << config.num_clients << " clients x "
            << config.ops_per_client << " ops"
            << (config.deterministic ? " (deterministic)" : "") << "\n";
  svc::LinkService service(&pair, &alex, alex_config, config);
  const svc::ServiceReport report = service.Run();
  if (!report.resume_error.empty()) {
    std::cerr << "resume failed: " << report.resume_error << "\n";
    return 2;
  }

  std::cout << "clients             " << report.clients << "\n"
            << "ops                 " << report.ops << "\n"
            << "queries             " << report.queries << "\n"
            << "shed                " << report.shed << "\n"
            << "answered            " << report.answered << "\n"
            << "degraded            " << report.degraded << "\n"
            << "failed              " << report.failed << "\n"
            << "rows                " << report.rows << "\n"
            << "p50 latency (ms)    " << report.latency.p50_seconds * 1e3
            << "\n"
            << "p99 latency (ms)    " << report.latency.p99_seconds * 1e3
            << "\n"
            << "feedback items      " << report.feedback_items << "\n"
            << "committed episodes  " << report.committed_episodes << "\n"
            << "epochs published    " << report.epochs_published << "\n"
            << "links +" << report.links_added << " / -"
            << report.links_removed << "\n"
            << "checkpoints         " << report.checkpoints_written << "\n"
            << "duration (s)        " << report.duration_seconds << "\n"
            << "final P/R/F         " << report.quality.precision << " / "
            << report.quality.recall << " / " << report.quality.f_measure
            << "\n";

  if (hub) {
    hub->ForceSample();
    {
      std::ofstream out(telemetry_out);
      hub->WriteJsonTimeline(out);
    }
    std::cout << "# telemetry timeline (" << hub->sample_count()
              << " samples, " << hub->breach_count() << " SLO breaches) -> "
              << telemetry_out << "\n";
    if (!prom_out.empty()) {
      std::ofstream out(prom_out);
      hub->WritePrometheus(out);
      std::cout << "# prometheus exposition -> " << prom_out << "\n";
    }
  }
  return 0;
}
