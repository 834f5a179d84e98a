#ifndef ALEX_BENCH_BENCH_UTIL_H_
#define ALEX_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/topology.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "simulation/simulation.h"

namespace alex::bench {

/// Checked parse of an optional positional argv uint. Returns
/// `default_value` when the argument is absent; exits with a usage message
/// when it is present but not a decimal number in [min_value, SIZE_MAX] —
/// the silent-zero behavior of `atoi` turned "bench 1O" (typo) into
/// nonsense reps/sizes.
inline size_t ParseUintArg(int argc, char** argv, int index,
                           size_t default_value, const char* what,
                           size_t min_value = 1) {
  if (argc <= index) return default_value;
  const std::optional<uint64_t> value = ParseUint64(argv[index]);
  if (!value.has_value() || *value < min_value ||
      *value > static_cast<uint64_t>(SIZE_MAX)) {
    std::fprintf(stderr, "invalid %s: '%s' (want a positive integer)\n", what,
                 argv[index]);
    std::exit(2);
  }
  return static_cast<size_t>(*value);
}

/// Prints several runs' series for one metric side by side (episode rows,
/// one column per run), as the comparison figures do.
inline void PrintComparisonFigure(
    const char* title, const char* metric,
    const std::vector<std::string>& labels,
    const std::vector<const simulation::RunResult*>& runs,
    double (*extract)(const simulation::EpisodeRecord&),
    size_t max_episodes = SIZE_MAX) {
  std::printf("\n=== %s (%s) ===\n", title, metric);
  std::printf("%8s", "episode");
  for (const std::string& label : labels) {
    std::printf(" %14s", label.c_str());
  }
  std::printf("\n");
  size_t longest = 0;
  for (const auto* run : runs) {
    longest = std::max(longest, run->episodes.size());
  }
  longest = std::min(longest, max_episodes);
  for (size_t i = 0; i < longest; ++i) {
    std::printf("%8zu", i);
    for (const auto* run : runs) {
      if (run->episodes.empty()) {
        std::printf(" %14s", "-");
      } else if (i < run->episodes.size()) {
        std::printf(" %14.3f", extract(run->episodes[i]));
      } else {
        // Converged: the series holds at its final value.
        std::printf(" %14.3f", extract(run->episodes.back()));
      }
    }
    std::printf("\n");
  }
}

inline double ExtractF(const simulation::EpisodeRecord& r) {
  return r.metrics.f_measure;
}
inline double ExtractPrecision(const simulation::EpisodeRecord& r) {
  return r.metrics.precision;
}
inline double ExtractRecall(const simulation::EpisodeRecord& r) {
  return r.metrics.recall;
}
inline double ExtractNegPercent(const simulation::EpisodeRecord& r) {
  return r.NegativeFeedbackPercent();
}

/// Run-level telemetry sidecar for bench binaries. Construct one at the top
/// of main(); on destruction it writes `<bench_name>.telemetry.json` next to
/// the figures (the working directory) containing:
///  - the bench's wall time and its top-level phases (one per AddPhase call
///    and one per AddRun label), which are disjoint and sum to ~wall,
///  - the metrics-registry delta observed over the bench lifetime,
///  - per-run RunTelemetry (phases + per-run registry delta).
/// If scoped tracing was enabled at any point and recorded events, the
/// retained trace is also written as `<bench_name>.trace.json` (Chrome
/// trace_event JSON, loadable in chrome://tracing or Perfetto).
class TelemetrySidecar {
 public:
  explicit TelemetrySidecar(std::string bench_name)
      : bench_name_(std::move(bench_name)),
        metrics_before_(obs::MetricsRegistry::Global().Snapshot()) {
    // Every sidecar records the CPUs it ran on: perf numbers from a
    // 1-core CI runner and a 64-core bare-metal box are not comparable, and
    // dashboards need to partition by core count to see that.
    AddField("topology_cores",
             static_cast<uint64_t>(exec::CpuTopology::Detect().num_cpus()));
  }

  TelemetrySidecar(const TelemetrySidecar&) = delete;
  TelemetrySidecar& operator=(const TelemetrySidecar&) = delete;

  /// Records one simulation run: its wall time becomes a top-level phase
  /// named `label` and its RunTelemetry is embedded under "runs".
  void AddRun(const std::string& label,
              const simulation::RunResult& result) {
    telemetry_.AddPhase(label, result.total_seconds);
    runs_.emplace_back(label, result.telemetry);
  }

  /// Records one bench-level phase (for benches that time non-simulation
  /// work, e.g. raw space builds). Phases with one name accumulate.
  void AddPhase(const std::string& name, double seconds) {
    telemetry_.AddPhase(name, seconds);
  }

  /// Attaches one bench-level result field to the sidecar (emitted under
  /// "fields"): headline numbers a dashboard should track without parsing
  /// the bench's stdout — cache hit rates, speedups, compile times.
  void AddField(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(name, buf);
  }
  void AddField(const std::string& name, uint64_t value) {
    fields_.emplace_back(name, std::to_string(value));
  }

  ~TelemetrySidecar() {
    telemetry_.wall_seconds = wall_.ElapsedSeconds();
    telemetry_.metrics =
        obs::MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before_);

    const std::string telemetry_path = bench_name_ + ".telemetry.json";
    std::ofstream out(telemetry_path);
    if (!out) {
      ALEX_LOG(kWarning) << "cannot write telemetry sidecar "
                         << telemetry_path;
      return;
    }
    out << "{\n  \"bench\": \"" << EscapeJson(bench_name_) << "\",\n";
    if (!fields_.empty()) {
      out << "  \"fields\": {";
      for (size_t i = 0; i < fields_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "\"" << EscapeJson(fields_[i].first)
            << "\": " << fields_[i].second;
      }
      out << "},\n";
    }
    // Slow-query exemplars: the top-K slowest federated queries the global
    // QueryLog saw during the bench, each with its trace id (0 = untraced)
    // so a dashboard can jump from "this query was slow" to its span tree
    // in the .trace.json.
    if (obs::QueryLog::Global().Totals().queries > 0) {
      out << "  \"slow_queries\": ";
      obs::QueryLog::Global().WriteSlowestJson(out, "  ");
      out << ",\n";
    }
    out << "  \"telemetry\":\n";
    telemetry_.WriteJson(out, 1);
    out << ",\n  \"runs\": [";
    for (size_t i = 0; i < runs_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"label\": \"" << EscapeJson(runs_[i].first) << "\",\n"
          << "     \"telemetry\":\n";
      runs_[i].second.WriteJson(out, 2);
      out << "}";
    }
    out << (runs_.empty() ? "" : "\n  ") << "]\n}\n";
    out.close();
    ALEX_LOG(kInfo) << "wrote " << telemetry_path;

    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (!recorder.Events().empty()) {
      const std::string trace_path = bench_name_ + ".trace.json";
      std::ofstream trace_out(trace_path);
      if (trace_out) {
        recorder.WriteChromeTrace(trace_out);
        ALEX_LOG(kInfo) << "wrote " << trace_path
                        << " (load in chrome://tracing or Perfetto)";
      }
    }
  }

 private:
  std::string bench_name_;
  Stopwatch wall_;
  obs::MetricsSnapshot metrics_before_;
  obs::RunTelemetry telemetry_;
  std::vector<std::pair<std::string, obs::RunTelemetry>> runs_;
  /// (name, pre-rendered JSON value) pairs from AddField.
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace alex::bench

#endif  // ALEX_BENCH_BENCH_UTIL_H_
