// End-to-end benchmark: runs one workload per process and prints its
// metrics as JSON.
//
//   alex_e2e --workload <batch_nytimes|build_opencyc|serve_nytimes>
//            [--seed N] [--seconds S] [--trace 0|1] [--small] [--commit ID]
//
// --trace 0 repeats the workload through the product entry points
// (simulation::Simulation::Run, svc::LinkService::Run) for about --seconds
// and reports the end-to-end metrics over the repetitions (Summarize).
// --trace 1 alternates untraced runs of the workload with traced replays
// of the same steps through the layers' public calls, each call timed from
// here, and reports the per-layer metrics of the fastest replay. Tracing
// is compiled into the library and left off at run time in both modes; the
// library gains no spans or counters for the benchmark's sake.
//
// Every run checks its outputs (README.md, "Checks"). stdout carries a
// context line, a detail line and, last, the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 whenever a result line was printed, 2 on bad usage.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/partitioned.h"
#include "datagen/generator.h"
#include "datagen/scenarios.h"
#include "exec/topology.h"
#include "federation/compiled_query.h"
#include "federation/endpoint.h"
#include "federation/federated_engine.h"
#include "federation/probe_cache.h"
#include "federation/versioned_link_index.h"
#include "feedback/oracle.h"
#include "obs/metrics.h"
#include "obs/telemetry_hub.h"
#include "obs/trace.h"
#include "paris/seed_linkers.h"
#include "service/link_service.h"
#include "simulation/query_workload.h"
#include "simulation/simulation.h"

// ---------------------------------------------------------------------------
// Allocation counting. This binary replaces the global allocation functions;
// they count calls and bytes only while `g_counting` is set, which only the
// traced run does. Counts go to padded shards picked per thread, so the
// build's workers do not contend on one cache line.
// ---------------------------------------------------------------------------
namespace {

struct alignas(64) AllocShard {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};
constexpr size_t kAllocShards = 64;
AllocShard g_alloc_shards[kAllocShards];
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_next_shard{0};

inline void CountAlloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local const size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kAllocShards;
  g_alloc_shards[shard].count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_shards[shard].bytes.fetch_add(n, std::memory_order_relaxed);
}

struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

AllocTotals ReadAllocs() {
  AllocTotals t;
  for (const AllocShard& s : g_alloc_shards) {
    t.count += s.count.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return t;
}

void* CountedMalloc(std::size_t n) {
  CountAlloc(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedMalloc(std::size_t n, std::align_val_t al) {
  CountAlloc(n);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedMalloc(n); }
void* operator new[](std::size_t n) { return CountedMalloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedMalloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedMalloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace alex;
using feedback::PairKey;

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; the self-test
// checks that the two agree. Every run prints every metric of its mode.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"total_s", "s"},     {"cpu_s", "s"},
    {"feedback_per_s", "1/s"}, {"final_f", "ratio"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"paris.seed_link_s", "s"},
    {"paris.initial_links", "count"},
    {"core.build_s", "s"},
    {"core.shared_index_s", "s"},
    {"core.build_slowest_partition_s", "s"},
    {"core.build_skew", "ratio"},
    {"core.candidate_pairs", "count"},
    {"core.kept_pairs", "count"},
    {"core.features_indexed", "count"},
    {"core.sim_memo_hit_ratio", "ratio"},
    {"core.sim_memo_lookups", "count"},
    {"core.build_allocs", "count"},
    {"core.build_alloc_bytes", "bytes"},
    {"core.init_candidates_s", "s"},
    {"core.candidate_vector_s", "s"},
    {"core.candidate_vector_bytes", "bytes"},
    {"feedback.sample_judge_s", "s"},
    {"core.process_feedback_s", "s"},
    {"core.end_episode_s", "s"},
    {"core.evaluate_s", "s"},
    {"core.episode_p50_ms", "ms"},
    {"core.episode_p90_ms", "ms"},
    {"core.loop_cpu_s", "s"},
    {"core.feedback_items", "count"},
    {"core.links_added", "count"},
    {"core.links_removed", "count"},
    {"core.rollbacks", "count"},
    {"core.explore_actions", "count"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"exec.cpu_per_wall", "ratio"},
    {"fed.acquire_s", "s"},
    {"fed.plan_lookup_s", "s"},
    {"fed.execute_s", "s"},
    {"fed.execute_p50_us", "us"},
    {"fed.queries", "count"},
    {"fed.queries_per_s", "1/s"},
    {"fed.query_p50_us", "us"},
    {"fed.query_p99_us", "us"},
    {"fed.rows_per_query", "ratio"},
    {"fed.probe_cache_hit_ratio", "ratio"},
    {"fed.probe_cache_hits", "count"},
    {"fed.probe_cache_misses", "count"},
    {"svc.setup_s", "s"},
    {"svc.commits", "count"},
    {"svc.commit_s", "s"},
    {"svc.commit_p50_ms", "ms"},
    {"core.commit_feedback_batch_s", "s"},
    {"fed.link_commit_s", "s"},
    {"feedback.judge_s", "s"},
    {"svc.commit_allocs", "count"},
    {"trace.wall_s", "s"},
    {"trace.attributed_frac", "ratio"},
    {"trace_overhead_pct", "%"},
};

/// The disjoint per-layer times that must add up to a traced run's wall
/// time (ROADMAP item 1: at most 5% unattributed). The others are parts of
/// these (commit_feedback_batch_s and link_commit_s are inside
/// svc.commit_s) or not times.
constexpr const char* kAttributedLayers[] = {
    "datagen.generate_s",      "paris.seed_link_s",
    "core.build_s",            "core.init_candidates_s",
    "core.candidate_vector_s", "feedback.sample_judge_s",
    "core.process_feedback_s", "core.end_episode_s",
    "core.evaluate_s",         "fed.acquire_s",
    "fed.plan_lookup_s",       "fed.execute_s",
    "svc.setup_s",             "feedback.judge_s",
    "svc.commit_s",
};

// ---------------------------------------------------------------------------
// Options, workloads and seeds.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  bool small = false;  // Reduced sizes for the self-test.
  std::string commit = "unknown";
};

enum class Kind { kBatch, kServe };

/// Feedback items per service commit (one service episode).
constexpr size_t kServeFeedbackBatch = 32;

struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  datagen::ScenarioConfig scenario;
  size_t max_episodes = 0;  // Batch kind.
  size_t service_ops = 0;   // Serve kind.
  /// The attributed layer that must take the most time in a traced run;
  /// unchecked when null.
  const char* largest_layer = nullptr;
};

/// Shrinks a preset for the self-test: about a tenth of the entities.
void Shrink(datagen::ScenarioConfig* c) {
  c->num_shared = std::max<size_t>(60, c->num_shared / 10);
  c->num_left_only = std::max<size_t>(60, c->num_left_only / 10);
  c->num_right_only = std::max<size_t>(30, c->num_right_only / 10);
}

/// The workloads. The scenarios are the presets, generated from their own
/// fixed seeds: reseeding the generator changes the work itself (README.md,
/// "Workloads" and "Seeds").
std::optional<Workload> MakeWorkload(const Options& opt) {
  Workload w;
  w.name = opt.workload;
  if (w.name == "batch_nytimes") {
    w.scenario = datagen::DbpediaNytimes();
    w.max_episodes = opt.small ? 3 : 100;
    // On one worker core.build_s takes about as long as the largest loop
    // layer, core.candidate_vector_s; either can come out larger, so the
    // order is not checked (README.md, "Workloads").
  } else if (w.name == "build_opencyc") {
    w.scenario = datagen::DbpediaOpencyc();
    w.max_episodes = opt.small ? 2 : 10;
    w.largest_layer = "core.build_s";
  } else if (w.name == "serve_nytimes") {
    w.kind = Kind::kServe;
    w.scenario = datagen::DbpediaNytimes();
    w.service_ops = opt.small ? 4000 : 1000000;
    w.largest_layer = "svc.commit_s";
  } else {
    return std::nullopt;
  }
  if (opt.small) Shrink(&w.scenario);
  return w;
}

/// Pool workers of every workload. With more, each fan-out over the 27
/// partitions waits for its slowest worker, and a worker whose vCPU the
/// host deschedules holds it for milliseconds (README.md, "Workloads").
constexpr size_t kWorkers = 1;

core::AlexConfig MakeAlexConfig(const Workload& w, const Options& opt) {
  core::AlexConfig c;  // PARIS + epsilon-greedy, 27 partitions.
  c.num_threads = kWorkers;
  if (w.kind == Kind::kBatch) {
    c.seed += opt.seed;  // The policy stream.
    c.episode_size = 1000;
    c.max_episodes = w.max_episodes;
  } else {
    c.episode_size = kServeFeedbackBatch;  // Episodes end on commits.
  }
  return c;
}

simulation::SimulationConfig MakeSimConfig(const Workload& w,
                                           const Options& opt,
                                           size_t max_episodes) {
  simulation::SimulationConfig c;
  c.scenario = w.scenario;
  c.alex = MakeAlexConfig(w, opt);
  c.alex.max_episodes = max_episodes;
  if (w.kind == Kind::kBatch) c.oracle_seed += opt.seed;
  return c;
}

/// The service's streams stay at their defaults: its feedback loop turns
/// any reseeding into a different number of commits (README.md, "Seeds").
svc::ServiceConfig MakeServiceConfig(const Workload& w) {
  svc::ServiceConfig c;
  c.num_clients = 1;  // One closed-loop client on the calling thread.
  c.ops_per_client = w.service_ops;
  c.think_seconds = 0.0;
  c.feedback_fraction = 0.5;
  c.feedback_batch = kServeFeedbackBatch;
  c.use_probe_cache = true;
  return c;
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

using SteadyTime = std::chrono::steady_clock::time_point;

SteadyTime Now() { return std::chrono::steady_clock::now(); }

double Between(SteadyTime t0, SteadyTime t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double Since(SteadyTime t0) { return Between(t0, Now()); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Nearest-rank quantile (q in (0,1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t Fnv1a(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of a link set, independent of the order it is listed in.
uint64_t LinkDigest(std::vector<PairKey> links) {
  std::sort(links.begin(), links.end());
  uint64_t h = 1469598103934665603ULL;
  for (PairKey k : links) h = Fnv1a(h, k);
  return Fnv1a(h, links.size());
}

/// Recomputes P/R/F of `links` against the ground truth from scratch and
/// compares them with what the program reported.
bool QualityMatches(const std::vector<PairKey>& links,
                    const feedback::GroundTruth& truth,
                    const core::LinkSetMetrics& reported) {
  const std::unordered_set<PairKey> set(links.begin(), links.end());
  size_t correct = 0;
  for (PairKey k : set) correct += truth.Contains(k) ? 1 : 0;
  const double p = set.empty() ? 0.0
                               : static_cast<double>(correct) /
                                     static_cast<double>(set.size());
  const double r = truth.size() == 0 ? 0.0
                                     : static_cast<double>(correct) /
                                           static_cast<double>(truth.size());
  const double f = p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  return set.size() == links.size() && reported.correct == correct &&
         reported.candidates == set.size() &&
         reported.ground_truth == truth.size() &&
         std::fabs(reported.precision - p) <= 1e-12 &&
         std::fabs(reported.recall - r) <= 1e-12 &&
         std::fabs(reported.f_measure - f) <= 1e-12;
}

/// Failed output checks, by description.
struct Checks {
  std::vector<std::string> failures;

  void Expect(bool cond, const std::string& what) {
    if (!cond) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// Counter deltas of the program's own metrics registry.
class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::Global().Snapshot()) {}

  void Stop() {
    delta_ = obs::MetricsRegistry::Global().Snapshot().DeltaSince(before_);
  }

  uint64_t Counter(const std::string& name) const {
    auto it = delta_.counters.find(name);
    return it == delta_.counters.end() ? 0 : it->second;
  }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot delta_;
};

/// What a traced run accumulates: layer times and other per-layer values
/// by metric name, plus the per-call samples that become quantiles once
/// the run's wall clock has stopped (SummarizeSamples).
struct Trace {
  std::map<std::string, double> values;
  std::vector<double> episode_samples_s;
  std::vector<double> execute_samples_s;
  std::vector<double> latency_samples_s;
  std::vector<double> commit_samples_s;

  double* slot(const char* name) { return &values[name]; }
};

void SummarizeSamples(Trace* trace) {
  std::map<std::string, double>& v = trace->values;
  v["core.episode_p50_ms"] = Quantile(trace->episode_samples_s, 0.5) * 1e3;
  v["core.episode_p90_ms"] = Quantile(trace->episode_samples_s, 0.9) * 1e3;
  v["fed.query_p50_us"] = Quantile(trace->latency_samples_s, 0.5) * 1e6;
  v["fed.query_p99_us"] = Quantile(trace->latency_samples_s, 0.99) * 1e6;
  v["fed.execute_p50_us"] = Median(trace->execute_samples_s) * 1e6;
  v["svc.commit_p50_ms"] = Median(trace->commit_samples_s) * 1e3;
}

/// Runs `fn()` and adds its wall time to `*acc`.
template <typename Fn>
auto Timed(double* acc, Fn&& fn) {
  const SteadyTime t0 = Now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *acc += Since(t0);
  } else {
    auto out = fn();
    *acc += Since(t0);
    return out;
  }
}

/// Wall and CPU clock readings at the boundaries of one repetition's
/// windows; window i lies between readings i and i + 1. The windows cut a
/// repetition into pieces of fixed work (set-up, one episode, a fixed number
/// of service ops), so repetitions of one seed compare piece by piece.
struct Marks {
  std::vector<double> wall;
  std::vector<double> cpu;

  void Mark() {
    wall.push_back(
        std::chrono::duration<double>(Now().time_since_epoch()).count());
    cpu.push_back(CpuSeconds());
  }
};

/// Durations between consecutive readings.
std::vector<double> WindowsOf(const std::vector<double>& readings) {
  std::vector<double> out;
  for (size_t i = 1; i < readings.size(); ++i) {
    out.push_back(readings[i] - readings[i - 1]);
  }
  return out;
}

/// Timings of one untraced repetition.
struct RepTimes {
  double setup_s = 0;  // Wall time before the first feedback item or query.
  double end_s = 0;    // Wall time until the entry point returned.
  std::vector<double> wall, cpu;  // Window durations, set-up first.
  std::vector<double> loop;       // Durations of the loop's windows.
  int run_on_cpu = -1;            // PinToFastestCpu's choice.

  void SetWindows(const Marks& marks) {
    end_s = marks.wall.back() - marks.wall.front();
    wall = WindowsOf(marks.wall);
    cpu = WindowsOf(marks.cpu);
  }
  bool SameShape(const RepTimes& o) const {
    return wall.size() == o.wall.size() && loop.size() == o.loop.size();
  }
};

/// Σ over windows of the median of the repetitions' times for that window.
/// All repetitions have the same windows (RepTimes::SameShape).
double SumOfMedians(const std::vector<RepTimes>& reps,
                    std::vector<double> RepTimes::*windows) {
  double sum = 0.0;
  for (size_t i = 0; i < (reps[0].*windows).size(); ++i) {
    std::vector<double> times;
    for (const RepTimes& r : reps) times.push_back((r.*windows)[i]);
    sum += Median(times);
  }
  return sum;
}

/// The end-to-end metrics of a run, from its repetitions. Set-up is their
/// median. Every other time is a sum over the repetitions' fixed-work
/// windows of the median time of each window, and the rate divides the
/// feedback items by such a sum over the loop's windows: a slow spell of
/// the VM, seconds long, lands in different windows of different
/// repetitions, and the median of each window leaves it out. The fastest
/// time of each window would spread more from run to run: it sinks with
/// the number of repetitions, and slow runs fit fewer (README.md, "Noise"). `first_rss_mb` is the peak RSS at the end of the
/// first repetition: later repetitions raise the process's peak by however
/// much the heap fragmented.
std::map<std::string, double> Summarize(const std::vector<RepTimes>& reps,
                                        size_t feedback_items,
                                        double first_rss_mb) {
  std::vector<double> setups;
  for (const RepTimes& r : reps) setups.push_back(r.setup_s);
  std::map<std::string, double> out;
  out["setup_s"] = Median(setups);
  out["total_s"] = SumOfMedians(reps, &RepTimes::wall);
  out["cpu_s"] = SumOfMedians(reps, &RepTimes::cpu);
  out["feedback_per_s"] = static_cast<double>(feedback_items) /
                          SumOfMedians(reps, &RepTimes::loop);
  out["peak_rss_mb"] = first_rss_mb;
  return out;
}

// ---------------------------------------------------------------------------
// CPU choice. A repetition runs on one CPU, and its pool worker (created
// inside the repetition, inheriting the mask) with it: each fan-out then
// hands over on the same CPU instead of waking an idle one, a wake-up the
// host may delay. A vCPU of the VM the benchmark was written on can also
// slow down on its own, by up to half, for seconds to tens of seconds,
// while the others keep their speed (README.md, "Noise"). So before each
// repetition the benchmark times a walk through an L2-sized buffer on
// every allowed CPU and pins the repetition to the fastest.
// ---------------------------------------------------------------------------

/// A random cyclic walk over the cache lines of 1 MiB.
class L2Probe {
 public:
  L2Probe() : next_(kLines) {
    std::vector<uint32_t> order(kLines);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(42);
    for (size_t i = kLines - 1; i > 0; --i) {
      std::swap(order[i], order[rng.UniformInt(i + 1)]);
    }
    for (size_t i = 0; i < kLines; ++i) {
      next_[order[i]].index = order[(i + 1) % kLines];
    }
  }

  /// Nanoseconds per step on the calling thread's CPU: the fastest of
  /// three passes after a warm-up pass.
  double NsPerStep() {
    double best = std::numeric_limits<double>::infinity();
    uint32_t j = 0;
    for (int pass = 0; pass < 4; ++pass) {
      const SteadyTime t0 = Now();
      for (size_t i = 0; i < kLines; ++i) j = next_[j].index;
      if (pass > 0) best = std::min(best, Since(t0));
    }
    sink_ = j;
    return best * 1e9 / static_cast<double>(kLines);
  }

 private:
  struct alignas(64) Line {
    uint32_t index = 0;
  };
  static constexpr size_t kLines = (size_t{1} << 20) / sizeof(Line);
  std::vector<Line> next_;
  volatile uint32_t sink_ = 0;
};

bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Pins the calling thread to the allowed CPU on which the probe runs
/// fastest now and returns it; -1 if no CPU could be pinned.
int PinToFastestCpu() {
  static L2Probe probe;
  double best_ns = std::numeric_limits<double>::infinity();
  int best = -1;
  for (const exec::CpuInfo& cpu : exec::CpuTopology::Detect().cpus()) {
    if (!PinToCpu(cpu.cpu)) continue;
    const double ns = probe.NsPerStep();
    if (ns < best_ns) {
      best_ns = ns;
      best = cpu.cpu;
    }
  }
  return best >= 0 && PinToCpu(best) ? best : -1;
}

// ---------------------------------------------------------------------------
// Batch workloads (batch_nytimes, build_opencyc).
// ---------------------------------------------------------------------------

struct Prf {
  double p = 0, r = 0, f = 0;
  bool operator==(const Prf&) const = default;
};

Prf ToPrf(const core::LinkSetMetrics& m) {
  return {m.precision, m.recall, m.f_measure};
}

/// One untraced repetition of a batch workload through Simulation::Run.
struct BatchRep {
  RepTimes times;  // Windows: set-up with episode 1, then one per episode.
  size_t episodes = 0, feedback = 0, draws = 0, empty_draws = 0;
  std::vector<Prf> series;
  uint64_t digest = 0;
  double final_f = 0;
  bool quality_ok = true;
};

BatchRep RunBatch(const Workload& w, const Options& opt) {
  BatchRep rep;
  rep.times.run_on_cpu = PinToFastestCpu();
  Marks marks;
  marks.Mark();
  const simulation::SimulationConfig config =
      MakeSimConfig(w, opt, w.max_episodes);
  simulation::Simulation sim(config);
  std::vector<PairKey> final_links;
  sim.set_observer([&](size_t, const core::PartitionedAlex& alex) {
    marks.Mark();  // The end of an episode.
    final_links = alex.CandidateVector();
  });
  const simulation::RunResult result = sim.Run();
  marks.Mark();
  rep.times.SetWindows(marks);

  for (size_t e = 0; e < result.episodes.size(); ++e) {
    const simulation::EpisodeRecord& rec = result.episodes[e];
    rep.series.push_back(ToPrf(rec.metrics));
    if (e == 0) continue;
    ++rep.episodes;
    rep.times.loop.push_back(rec.seconds);
    const size_t items = rec.positive_feedback + rec.negative_feedback;
    // Simulation::Run ends an episode early only on an empty oracle draw.
    const size_t empty = items < config.alex.episode_size ? 1 : 0;
    rep.feedback += items;
    rep.empty_draws += empty;
    rep.draws += items + empty;
  }
  rep.final_f = result.final_episode().metrics.f_measure;
  // Set-up is everything before the first feedback item: the run up to the
  // end of episode 1, less episode 1 itself.
  rep.times.setup_s = rep.episodes > 0
                          ? rep.times.wall[0] - result.episodes[1].seconds
                          : rep.times.end_s;
  rep.digest = LinkDigest(final_links);
  rep.quality_ok = QualityMatches(final_links, sim.data().truth,
                                  result.final_episode().metrics);
  return rep;
}

std::vector<paris::ScoredLink> SeedLink(const simulation::SimulationConfig& c,
                                        const datagen::GeneratedPair& pair) {
  auto linker = paris::MakeSeedLinker(c.linker, &pair.left, &pair.right,
                                      c.paris, c.sigma);
  if (!linker.ok()) return {};
  return (*linker)->Run();
}

size_t SymmetricDifferenceSize(const std::unordered_set<PairKey>& a,
                               const std::unordered_set<PairKey>& b) {
  size_t diff = 0;
  for (PairKey k : a) diff += b.count(k) ? 0 : 1;
  for (PairKey k : b) diff += a.count(k) ? 0 : 1;
  return diff;
}

/// Generation, seed linking, build and candidate seeding, timed call by
/// call; shared by the traced replays of all three workloads.
struct TracedSetup {
  datagen::GeneratedPair pair;
  std::vector<paris::ScoredLink> initial;
  std::unique_ptr<core::PartitionedAlex> alex;
};

TracedSetup ReplaySetup(const simulation::SimulationConfig& config,
                        Trace* trace) {
  TracedSetup s;
  s.pair = Timed(trace->slot("datagen.generate_s"),
                 [&] { return datagen::GenerateScenario(config.scenario); });
  s.initial = Timed(trace->slot("paris.seed_link_s"),
                    [&] { return SeedLink(config, s.pair); });
  s.alex = std::make_unique<core::PartitionedAlex>(&s.pair.left,
                                                   &s.pair.right, config.alex);
  RegistryDelta reg;
  const AllocTotals a0 = ReadAllocs();
  const std::vector<double> partition_s =
      Timed(trace->slot("core.build_s"), [&] { return s.alex->Build(); });
  const AllocTotals a1 = ReadAllocs();
  reg.Stop();
  Timed(trace->slot("core.init_candidates_s"),
        [&] { s.alex->InitializeCandidates(s.initial); });

  std::map<std::string, double>& v = trace->values;
  v["paris.initial_links"] = static_cast<double>(s.initial.size());
  v["core.shared_index_s"] = s.alex->shared_index_seconds();
  const double slowest =
      partition_s.empty()
          ? 0.0
          : *std::max_element(partition_s.begin(), partition_s.end());
  const double median = Median(partition_s);
  v["core.build_slowest_partition_s"] = slowest;
  v["core.build_skew"] = median > 0.0 ? slowest / median : 0.0;
  const core::LinkSpace::BuildStats stats = s.alex->AggregatedSpaceStats();
  v["core.candidate_pairs"] = static_cast<double>(stats.candidate_pairs);
  v["core.kept_pairs"] = static_cast<double>(stats.kept_pairs);
  v["core.features_indexed"] = static_cast<double>(stats.features_indexed);
  const double hits = static_cast<double>(reg.Counter("space.sim_memo_hits"));
  const double lookups =
      hits + static_cast<double>(reg.Counter("space.sim_memo_misses"));
  v["core.sim_memo_lookups"] = lookups;
  v["core.sim_memo_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  v["core.build_allocs"] = static_cast<double>(a1.count - a0.count);
  v["core.build_alloc_bytes"] = static_cast<double>(a1.bytes - a0.bytes);
  return s;
}

/// Engine counters of the RL loop, from the registry.
void RecordEngine(const RegistryDelta& reg, Trace* trace) {
  std::map<std::string, double>& v = trace->values;
  v["core.feedback_items"] =
      static_cast<double>(reg.Counter("engine.feedback_items"));
  v["core.links_added"] =
      static_cast<double>(reg.Counter("engine.links_added"));
  v["core.links_removed"] =
      static_cast<double>(reg.Counter("engine.links_removed"));
  v["core.rollbacks"] = static_cast<double>(reg.Counter("engine.rollbacks"));
  v["core.explore_actions"] =
      static_cast<double>(reg.Counter("engine.explore_actions"));
}

/// A traced replay's outputs, compared against the untraced run's.
struct BatchReplay {
  std::vector<Prf> series;
  uint64_t digest = 0;
  bool quality_ok = false;
  size_t draws = 0, empty_draws = 0;
};

/// Replays Simulation::Run step by step through the public calls, timing
/// each call on its own. What lies between the calls (the candidate
/// vector's teardown, the loop itself) is left unattributed.
BatchReplay ReplayBatch(const Workload& w, const Options& opt, Trace* trace) {
  BatchReplay out;
  const simulation::SimulationConfig config =
      MakeSimConfig(w, opt, w.max_episodes);
  TracedSetup s = ReplaySetup(config, trace);
  core::PartitionedAlex& alex = *s.alex;
  double* evaluate = trace->slot("core.evaluate_s");

  std::unordered_set<PairKey> previous =
      Timed(evaluate, [&] { return alex.Candidates(); });
  out.series.push_back(Timed(evaluate, [&] {
    return ToPrf(core::ComputeMetrics(previous, s.pair.truth));
  }));
  feedback::Oracle oracle(&s.pair.truth, config.feedback_error_rate,
                          config.oracle_seed);

  double* candidate_vector = trace->slot("core.candidate_vector_s");
  double* sample_judge = trace->slot("feedback.sample_judge_s");
  double* process = trace->slot("core.process_feedback_s");
  double* end_episode = trace->slot("core.end_episode_s");
  uint64_t candidate_vector_bytes = 0;
  RegistryDelta loop_reg;
  const double loop_cpu0 = CpuSeconds();
  for (size_t episode = 1; episode <= config.alex.max_episodes; ++episode) {
    const SteadyTime episode0 = Now();
    for (size_t i = 0; i < config.alex.episode_size; ++i) {
      std::optional<feedback::FeedbackItem> item;
      {
        const uint64_t b0 = ReadAllocs().bytes;
        const std::vector<PairKey> candidates =
            Timed(candidate_vector, [&] { return alex.CandidateVector(); });
        candidate_vector_bytes += ReadAllocs().bytes - b0;
        item = Timed(sample_judge,
                     [&] { return oracle.SampleAndJudge(candidates); });
      }
      ++out.draws;
      if (!item.has_value()) {
        ++out.empty_draws;
        break;
      }
      Timed(process, [&] { alex.ProcessFeedback(*item); });
    }
    Timed(end_episode, [&] { alex.EndEpisode(); });
    const size_t changed = Timed(evaluate, [&] {
      const std::unordered_set<PairKey> current = alex.Candidates();
      out.series.push_back(
          ToPrf(core::ComputeMetrics(current, s.pair.truth)));
      const size_t diff = SymmetricDifferenceSize(previous, current);
      previous = current;
      return diff;
    });
    trace->episode_samples_s.push_back(Since(episode0));
    if (changed == 0) break;
  }
  trace->values["core.loop_cpu_s"] = CpuSeconds() - loop_cpu0;
  loop_reg.Stop();
  RecordEngine(loop_reg, trace);
  trace->values["core.candidate_vector_bytes"] =
      static_cast<double>(candidate_vector_bytes);

  const std::vector<PairKey> final_links = alex.CandidateVector();
  out.digest = LinkDigest(final_links);
  out.quality_ok =
      QualityMatches(final_links, s.pair.truth,
                     core::ComputeMetrics(previous, s.pair.truth));

  return out;
}

// ---------------------------------------------------------------------------
// Serve workload (serve_nytimes).
// ---------------------------------------------------------------------------

/// The ServiceReport fields a replay must reproduce exactly.
struct ServeCounts {
  size_t ops = 0, queries = 0, shed = 0, answered = 0, degraded = 0,
         failed = 0, feedback_items = 0, commits = 0, links_added = 0,
         links_removed = 0;
  uint64_t rows = 0, epochs = 0;
  Prf quality;
  bool operator==(const ServeCounts&) const = default;
};

ServeCounts CountsOf(const svc::ServiceReport& r) {
  ServeCounts c;
  c.ops = r.ops;
  c.queries = r.queries;
  c.shed = r.shed;
  c.answered = r.answered;
  c.degraded = r.degraded;
  c.failed = r.failed;
  c.feedback_items = r.feedback_items;
  c.commits = r.committed_episodes;
  c.links_added = r.links_added;
  c.links_removed = r.links_removed;
  c.rows = r.rows;
  c.epochs = r.epochs_published;
  c.quality = ToPrf(r.quality);
  return c;
}

std::string ToString(const ServeCounts& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ops=%zu queries=%zu shed=%zu answered=%zu degraded=%zu "
                "failed=%zu rows=%llu feedback=%zu commits=%zu epochs=%llu "
                "added=%zu removed=%zu F=%.17g",
                c.ops, c.queries, c.shed, c.answered, c.degraded, c.failed,
                static_cast<unsigned long long>(c.rows), c.feedback_items,
                c.commits, static_cast<unsigned long long>(c.epochs),
                c.links_added, c.links_removed, c.quality.f);
  return buf;
}

/// Windows of the service's Run per repetition.
constexpr uint64_t kServeWindows = 40;

/// The clock of the service's TelemetryHub. LinkService reads its hub's
/// clock after every op and every commit, the same number of times in
/// every repetition; every `every`-th reading marks a window boundary.
class WindowClock : public Clock {
 public:
  WindowClock(uint64_t every, Marks* marks) : every_(every), marks_(marks) {}

  double NowSeconds() const override {
    if (++reads_ % every_ == 0) marks_->Mark();
    return steady_.NowSeconds();
  }
  void SleepSeconds(double seconds) override { steady_.SleepSeconds(seconds); }

 private:
  const uint64_t every_;
  Marks* marks_;
  mutable uint64_t reads_ = 0;
  SteadyClock steady_;
};

/// One untraced repetition of the serve workload through LinkService::Run.
struct ServeRep {
  RepTimes times;  // Windows: set-up, then the service's Run.
  svc::ServiceReport report;
  ServeCounts counts;
  uint64_t digest = 0;
  bool quality_ok = false;
};

ServeRep RunServe(const Workload& w, const Options& opt) {
  ServeRep rep;
  rep.times.run_on_cpu = PinToFastestCpu();
  Marks marks;
  marks.Mark();
  const simulation::SimulationConfig config = MakeSimConfig(w, opt, 0);
  datagen::GeneratedPair pair = datagen::GenerateScenario(config.scenario);
  const std::vector<paris::ScoredLink> initial = SeedLink(config, pair);
  core::PartitionedAlex alex(&pair.left, &pair.right, config.alex);
  alex.Build();
  alex.InitializeCandidates(initial);
  WindowClock clock(std::max<uint64_t>(1, w.service_ops / kServeWindows),
                    &marks);
  // Samples once, at its first reading, and once at the end of the run.
  obs::TelemetryHub hub(&clock, /*interval_seconds=*/1e12);
  svc::ServiceConfig service_config = MakeServiceConfig(w);
  service_config.hub = &hub;
  svc::LinkService service(&pair, &alex, config.alex, service_config);
  marks.Mark();
  rep.report = service.Run();
  marks.Mark();
  rep.times.SetWindows(marks);
  rep.times.setup_s = rep.times.wall[0];
  rep.times.loop.assign(rep.times.wall.begin() + 1, rep.times.wall.end());
  rep.counts = CountsOf(rep.report);
  const std::vector<PairKey> final_links = alex.CandidateVector();
  rep.digest = LinkDigest(final_links);
  rep.quality_ok = QualityMatches(final_links, pair.truth, rep.report.quality);
  return rep;
}

struct ServeReplay {
  ServeCounts counts;
  uint64_t digest = 0;
  bool quality_ok = false;
};

/// Replays LinkService's single-client loop through the public calls,
/// timing each on its own: VersionedLinkIndex::Acquire,
/// PlanCache::GetOrCompile, FederatedEngine::Execute, Oracle::Judge,
/// PartitionedAlex::CommitFeedbackBatch, staging and
/// VersionedLinkIndex::Commit. The glue between them (random draws, the
/// answers' teardown, batching) is left unattributed.
ServeReplay ReplayServe(const Workload& w, const Options& opt, Trace* trace) {
  ServeReplay out;
  ServeCounts& c = out.counts;
  const simulation::SimulationConfig config = MakeSimConfig(w, opt, 0);
  const svc::ServiceConfig sc = MakeServiceConfig(w);
  TracedSetup s = ReplaySetup(config, trace);
  core::PartitionedAlex& alex = *s.alex;
  datagen::GeneratedPair& pair = s.pair;
  std::map<std::string, double>& v = trace->values;

  // LinkService's constructor: entity and store indexes, the versioned
  // link index, probe caches keyed to its published epoch, query texts.
  const SteadyTime setup0 = Now();
  fed::VersionedLinkIndex links(
      simulation::LinksFromPairs(pair, alex.CandidateVector()));
  pair.left.BuildEntityIndex();
  pair.right.BuildEntityIndex();
  pair.left.store().EnsureIndexes();
  pair.right.store().EnsureIndexes();
  fed::Endpoint left_base(&pair.left);
  fed::Endpoint right_base(&pair.right);
  const fed::CachingEndpoint::EpochFn epoch = [&links] {
    return links.published_epoch();
  };
  fed::CachingEndpoint left(&left_base, fed::ProbeCacheConfig(), epoch);
  fed::CachingEndpoint right(&right_base, fed::ProbeCacheConfig(), epoch);
  fed::PlanCache plans;
  const simulation::FederatedWorkload workload =
      simulation::MakeFederatedWorkload(
          pair, std::max<size_t>(1, sc.workload_queries),
          sc.seed ^ 0x9e3779b97f4a7c15ULL);
  v["svc.setup_s"] = Since(setup0);

  Rng root(sc.seed);
  Rng rng = root.Fork();
  feedback::Oracle oracle(&pair.truth, sc.oracle_error_rate,
                          root.Fork().SaveState()[0]);

  double* acquire = trace->slot("fed.acquire_s");
  double* plan_lookup = trace->slot("fed.plan_lookup_s");
  double* execute = trace->slot("fed.execute_s");
  double* judge = trace->slot("feedback.judge_s");
  double* commit_batch = trace->slot("core.commit_feedback_batch_s");
  double* link_commit = trace->slot("fed.link_commit_s");
  std::vector<feedback::FeedbackItem> pending;
  uint64_t commit_allocs = 0;
  // LinkService::MaybeCommit: one batch per call, or everything (final
  // partial batch included) when forced at the end of the run.
  auto commit = [&](bool force) {
    while (true) {
      size_t take = 0;
      if (pending.size() >= sc.feedback_batch) {
        take = sc.feedback_batch;
      } else if (force) {
        take = pending.size();
      }
      if (take == 0) return;
      const uint64_t a0 = ReadAllocs().count;
      std::vector<feedback::FeedbackItem> batch(pending.begin(),
                                                pending.begin() + take);
      pending.erase(pending.begin(), pending.begin() + take);
      const SteadyTime commit0 = Now();
      const core::PartitionedAlex::EpisodeCommit episode =
          Timed(commit_batch, [&] { return alex.CommitFeedbackBatch(batch); });
      Timed(link_commit, [&] {
        for (PairKey key : episode.added) {
          links.StageAdd(pair.left.entity_iri(feedback::PairLeft(key)),
                         pair.right.entity_iri(feedback::PairRight(key)));
        }
        for (PairKey key : episode.removed) {
          links.StageRemove(pair.left.entity_iri(feedback::PairLeft(key)),
                            pair.right.entity_iri(feedback::PairRight(key)));
        }
        links.Commit();
      });
      trace->commit_samples_s.push_back(Since(commit0));
      ++c.commits;
      c.links_added += episode.added.size();
      c.links_removed += episode.removed.size();
      commit_allocs += ReadAllocs().count - a0;
      if (!force) return;
    }
  };

  // Feedback on the links an answer crossed, as LinkService::RunOneOp
  // gives it after a query.
  uint64_t rows = 0;
  auto give_feedback = [&](const Result<fed::FederatedResult>& result) {
    if (!result.ok()) {
      ++c.failed;
      return;
    }
    if (result->degraded) ++c.degraded;
    c.rows += result->NumRows();
    rows += result->NumRows();
    if (result->NumRows() == 0) return;
    ++c.answered;
    if (sc.feedback_fraction <= 0.0 || !rng.Bernoulli(sc.feedback_fraction)) {
      return;
    }
    // Judge every distinct link the answer crossed, as the service does.
    const size_t judged_items = Timed(judge, [&] {
      std::unordered_set<PairKey> judged;
      const size_t before = pending.size();
      for (const fed::ProvenancedRow& row : result->rows) {
        for (const fed::SameAsLink& link : row.links_used) {
          auto l = pair.left.FindEntityByIri(link.left_iri);
          auto r = pair.right.FindEntityByIri(link.right_iri);
          if (!l || !r) continue;
          if (!judged.insert(feedback::PackPair(*l, *r)).second) continue;
          pending.push_back(oracle.Judge(*l, *r));
        }
      }
      return pending.size() - before;
    });
    c.feedback_items += judged_items;
    if (judged_items > 0 && pending.size() >= sc.feedback_batch) {
      commit(/*force=*/false);
    }
  };

  // The ops of LinkService::RunOneOp after admission (one client is never
  // shed): snapshot and engine, plan, execution, feedback.
  trace->execute_samples_s.reserve(sc.ops_per_client);
  trace->latency_samples_s.reserve(sc.ops_per_client);
  RegistryDelta loop_reg;
  const double loop_cpu0 = CpuSeconds();
  const SteadyTime loop0 = Now();
  for (size_t i = 0; i < sc.ops_per_client; ++i) {
    ++c.ops;
    const size_t qi =
        static_cast<size_t>(rng.UniformInt(workload.queries.size()));
    // Three calls back to back, timed at their shared boundaries.
    const SteadyTime t0 = Now();
    std::shared_ptr<const fed::LinkIndex> snapshot = links.Acquire();
    std::optional<fed::FederatedEngine> engine(std::in_place, &left, &right,
                                               snapshot.get());
    const SteadyTime t1 = Now();
    const auto plan = plans.GetOrCompile(workload.queries[qi]);
    const SteadyTime t2 = Now();
    std::optional<Result<fed::FederatedResult>> result;
    if (plan.ok()) {
      result.emplace(engine->Execute(**plan));
    } else {
      result.emplace(plan.status());
    }
    const SteadyTime t3 = Now();
    *acquire += Between(t0, t1);
    *plan_lookup += Between(t1, t2);
    *execute += Between(t2, t3);
    if (plan.ok()) trace->execute_samples_s.push_back(Between(t2, t3));
    // The service's latency span.
    trace->latency_samples_s.push_back(Between(t1, t3));
    ++c.queries;
    give_feedback(*result);
    // The answer's teardown belongs to its execution.
    Timed(execute, [&] {
      result.reset();
      engine.reset();
      snapshot.reset();
    });
  }
  commit(/*force=*/true);
  const double loop_s = Since(loop0);
  v["core.loop_cpu_s"] = CpuSeconds() - loop_cpu0;
  loop_reg.Stop();
  RecordEngine(loop_reg, trace);

  v["fed.queries"] = static_cast<double>(c.queries);
  v["fed.rows_per_query"] =
      c.queries > 0
          ? static_cast<double>(rows) / static_cast<double>(c.queries)
          : 0.0;
  v["fed.queries_per_s"] =
      loop_s > 0.0 ? static_cast<double>(c.queries) / loop_s : 0.0;
  const double hits =
      static_cast<double>(loop_reg.Counter("fed.probe_cache_hits"));
  const double misses =
      static_cast<double>(loop_reg.Counter("fed.probe_cache_misses"));
  v["fed.probe_cache_hits"] = hits;
  v["fed.probe_cache_misses"] = misses;
  v["fed.probe_cache_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

  c.epochs = links.commit_sequence();
  const std::unordered_set<PairKey> final_set =
      Timed(trace->slot("core.evaluate_s"), [&] { return alex.Candidates(); });
  const core::LinkSetMetrics quality =
      Timed(trace->slot("core.evaluate_s"),
            [&] { return core::ComputeMetrics(final_set, pair.truth); });
  c.quality = ToPrf(quality);
  v["svc.commits"] = static_cast<double>(c.commits);
  v["svc.commit_s"] = *commit_batch + *link_commit;
  v["svc.commit_allocs"] = static_cast<double>(commit_allocs);

  const std::vector<PairKey> final_links = alex.CandidateVector();
  out.digest = LinkDigest(final_links);
  out.quality_ok = QualityMatches(final_links, pair.truth, quality);
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// Formats a double with all its significant digits (JSON has no NaN/inf).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void PrintContext(const Options& opt) {
  const exec::CpuTopology& topo = exec::CpuTopology::Detect();
  std::string cpus;
  for (const exec::CpuInfo& cpu : topo.cpus()) {
    if (!cpus.empty()) cpus += ",";
    cpus += std::to_string(cpu.cpu);
  }
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"small\": %s, \"nproc\": %ld, \"allowed_cpus\": [%s], "
      "\"workers\": %zu, \"compiler\": %s, "
      "\"build_type\": %s, "
      "\"alex_enable_tracing\": %d, \"commit\": %s}}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), Num(opt.seconds).c_str(),
      opt.trace ? 1 : 0, opt.small ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), cpus.c_str(), kWorkers,
      JsonString(ALEX_E2E_COMPILER).c_str(),
      JsonString(ALEX_E2E_BUILD_TYPE).c_str(), ALEX_E2E_TRACING,
      JsonString(opt.commit).c_str());
}

/// Prints the detail line (free-form diagnostics) and the result line.
void PrintResult(const Checks& checks, size_t attempted, size_t failed,
                 const std::map<std::string, double>& values,
                 bool per_layer, const std::string& detail) {
  std::string failures;
  for (const std::string& f : checks.failures) {
    if (!failures.empty()) failures += ", ";
    failures += JsonString(f);
  }
  std::printf("{\"detail\": {%s, \"check_failures\": [%s]}}\n",
              detail.c_str(), failures.c_str());
  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    auto it = values.find(m.name);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               Num(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (per_layer) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      checks.ok() ? "true" : "false", attempted, failed,
      metrics.c_str());
  std::fflush(stdout);
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

/// Repeats `rep()` while another repetition, as slow as the slowest so far,
/// still fits in `seconds`; at least once.
template <typename Rep>
void RepeatFor(double seconds, const Rep& rep) {
  const SteadyTime t0 = Now();
  double slowest = 0.0;
  for (size_t n = 0;; ++n) {
    if (n > 0 && Since(t0) + slowest > seconds) break;
    const SteadyTime r0 = Now();
    rep();
    slowest = std::max(slowest, Since(r0));
  }
}

/// Each repetition's set-up and whole wall time, and the window counts.
std::string RepDetail(const std::vector<RepTimes>& reps) {
  std::vector<double> setup, end, cpus;
  for (const RepTimes& r : reps) {
    setup.push_back(r.setup_s);
    end.push_back(r.end_s);
    cpus.push_back(r.run_on_cpu);
  }
  return "\"runs\": " + std::to_string(reps.size()) +
         ", \"windows\": " + std::to_string(reps[0].wall.size()) +
         ", \"setup_s\": " + JsonArray(setup) +
         ", \"end_s\": " + JsonArray(end) + ", \"run_on_cpu\": " + JsonArray(cpus);
}

void ExpectSameWindows(const std::vector<RepTimes>& reps, Checks* checks) {
  for (const RepTimes& r : reps) {
    checks->Expect(r.SameShape(reps[0]),
                   "repetitions of one seed had different windows");
  }
}

int EndToEndBatch(const Workload& w, const Options& opt) {
  std::vector<BatchRep> reps;
  double first_rss_mb = 0.0;
  RepeatFor(opt.seconds, [&] {
    reps.push_back(RunBatch(w, opt));
    if (reps.size() == 1) first_rss_mb = PeakRssMb();
  });

  Checks checks;
  std::vector<RepTimes> times;
  size_t attempted = 0, failed = 0;
  for (const BatchRep& r : reps) {
    checks.Expect(r.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(r.digest == reps[0].digest && r.series == reps[0].series,
                  "repetitions of one seed produced different link sets");
    checks.Expect(r.feedback > 0, "no feedback processed");
    times.push_back(r.times);
    attempted += r.draws;
    failed += r.empty_draws;
  }
  ExpectSameWindows(times, &checks);
  std::map<std::string, double> summary =
      checks.ok() ? Summarize(times, reps[0].feedback, first_rss_mb)
                  : std::map<std::string, double>{};
  summary["final_f"] = reps[0].final_f;
  const BatchRep& r0 = reps[0];
  char head[256];
  std::snprintf(head, sizeof(head),
                "\"episodes\": %zu, \"feedback_items\": %zu, "
                "\"final_links_digest\": \"%016llx\", ",
                r0.episodes, r0.feedback,
                static_cast<unsigned long long>(r0.digest));
  PrintResult(checks, attempted, failed, summary, false,
              head + RepDetail(times));
  return 0;
}

int EndToEndServe(const Workload& w, const Options& opt) {
  std::vector<ServeRep> reps;
  double first_rss_mb = 0.0;
  RepeatFor(opt.seconds, [&] {
    reps.push_back(RunServe(w, opt));
    if (reps.size() == 1) first_rss_mb = PeakRssMb();
  });

  Checks checks;
  std::vector<RepTimes> times;
  size_t attempted = 0, failed = 0;
  for (const ServeRep& r : reps) {
    const svc::ServiceReport& s = r.report;
    checks.Expect(r.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(r.counts == reps[0].counts && r.digest == reps[0].digest,
                  "repetitions of one seed did different work");
    checks.Expect(s.queries == s.ops - s.shed, "queries != ops - shed");
    checks.Expect(s.committed_episodes > 0 && s.answered > 0,
                  "no commits or no answered queries");
    times.push_back(r.times);
    attempted += s.ops;
    failed += s.failed + s.shed + s.degraded;
  }
  ExpectSameWindows(times, &checks);
  std::map<std::string, double> summary =
      checks.ok() ? Summarize(times, reps[0].report.feedback_items,
                              first_rss_mb)
                  : std::map<std::string, double>{};
  summary["final_f"] = reps[0].report.quality.f_measure;
  const std::string head =
      "\"report\": " + JsonString(ToString(reps[0].counts)) + ", ";
  PrintResult(checks, attempted, failed, summary, false,
              head + RepDetail(times));
  return 0;
}

/// One traced replay: its per-layer values, its outputs and its wall time.
template <typename Replay>
struct TracedRep {
  Trace trace;
  Replay replay;
  double wall_s = 0.0;
};

/// Runs `replay` with allocation counting on and fills the whole-run
/// per-layer values; returns its wall time.
template <typename Replay>
double TracedRun(Trace* trace, const Replay& replay) {
  RegistryDelta reg;
  g_counting.store(true, std::memory_order_relaxed);
  const double cpu0 = CpuSeconds();
  const SteadyTime t0 = Now();
  replay();
  const double wall = Since(t0);
  const double cpu = CpuSeconds() - cpu0;
  g_counting.store(false, std::memory_order_relaxed);
  reg.Stop();
  SummarizeSamples(trace);
  std::map<std::string, double>& v = trace->values;
  v["exec.tasks"] = static_cast<double>(reg.Counter("threadpool.tasks"));
  v["exec.steals"] = static_cast<double>(reg.Counter("threadpool.steals"));
  v["exec.cpu_per_wall"] = wall > 0.0 ? cpu / wall : 0.0;
  double attributed = 0.0;
  for (const char* layer : kAttributedLayers) attributed += v[layer];
  v["trace.wall_s"] = wall;
  v["trace.attributed_frac"] = wall > 0.0 ? attributed / wall : 0.0;
  return wall;
}

/// Minimum share of a traced run's wall time the layers must account for.
constexpr double kMinAttributed = 0.95;

/// The attributed layer with the most time.
std::string LargestLayer(const Trace& trace) {
  std::string largest;
  double largest_s = -1.0;
  for (const char* layer : kAttributedLayers) {
    const double s = trace.values.at(layer);
    if (s > largest_s) {
      largest_s = s;
      largest = layer;
    }
  }
  return largest;
}

/// Alternates untraced repetitions (`run`) with traced replays (`replay`)
/// for about `seconds`, and checks every replay's coverage. Returns the
/// replays, the fastest first: the run reports its layers, checks its
/// largest layer, and its trace_overhead_pct compares the median traced
/// wall time with the median untraced one. `detail` gets the times.
template <typename Rep, typename Replay, typename Run, typename ReplayFn>
std::vector<TracedRep<Replay>> AlternateTraced(
    const Workload& w, const Options& opt, const Run& run,
    const ReplayFn& replay, std::vector<Rep>* untraced, Checks* checks,
    std::string* detail) {
  std::vector<TracedRep<Replay>> traced;
  RepeatFor(opt.seconds, [&] {
    untraced->push_back(run());
    TracedRep<Replay>& t = traced.emplace_back();
    PinToFastestCpu();
    t.wall_s = TracedRun(&t.trace, [&] { t.replay = replay(&t.trace); });
  });
  std::vector<double> untraced_s, traced_s;
  for (const Rep& r : *untraced) untraced_s.push_back(r.times.end_s);
  size_t fastest = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const TracedRep<Replay>& t = traced[i];
    traced_s.push_back(t.wall_s);
    if (t.wall_s < traced[fastest].wall_s) fastest = i;
    checks->Expect(t.trace.values.at("trace.attributed_frac") >= kMinAttributed,
                   "layers cover less than 95% of the traced wall time");
  }
  std::swap(traced[0], traced[fastest]);
  // At the self-test's sizes set-up outweighs every loop.
  const std::string largest = LargestLayer(traced[0].trace);
  checks->Expect(opt.small || w.largest_layer == nullptr ||
                     largest == w.largest_layer,
                 "largest layer is " + largest + ", not " +
                     (w.largest_layer ? w.largest_layer : ""));
  traced[0].trace.values["trace_overhead_pct"] =
      100.0 * (Median(traced_s) / Median(untraced_s) - 1.0);
  *detail = "\"untraced_s\": " + JsonArray(untraced_s) +
            ", \"traced_s\": " + JsonArray(traced_s) +
            ", \"largest_layer\": " + JsonString(largest);
  return traced;
}

int PerLayerBatch(const Workload& w, const Options& opt) {
  std::vector<BatchRep> untraced;
  Checks checks;
  std::string detail;
  const std::vector<TracedRep<BatchReplay>> traced =
      AlternateTraced<BatchRep, BatchReplay>(
          w, opt, [&] { return RunBatch(w, opt); },
          [&](Trace* trace) { return ReplayBatch(w, opt, trace); },
          &untraced, &checks, &detail);
  const TracedRep<BatchReplay>& best = traced[0];

  const BatchRep& u0 = untraced[0];
  for (const BatchRep& u : untraced) {
    checks.Expect(u.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(u.digest == u0.digest && u.series == u0.series,
                  "repetitions of one seed produced different link sets");
  }
  for (const TracedRep<BatchReplay>& t : traced) {
    const BatchReplay& r = t.replay;
    checks.Expect(r.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(r.digest == u0.digest,
                  "traced replay's final link set differs from the run's");
    checks.Expect(r.series == u0.series,
                  "traced replay's P/R/F series differs from the run's");
  }
  PrintResult(checks, best.replay.draws, best.replay.empty_draws,
              best.trace.values, true, detail);
  return 0;
}

int PerLayerServe(const Workload& w, const Options& opt) {
  std::vector<ServeRep> untraced;
  Checks checks;
  std::string detail;
  const std::vector<TracedRep<ServeReplay>> traced =
      AlternateTraced<ServeRep, ServeReplay>(
          w, opt, [&] { return RunServe(w, opt); },
          [&](Trace* trace) { return ReplayServe(w, opt, trace); },
          &untraced, &checks, &detail);
  const TracedRep<ServeReplay>& best = traced[0];

  const ServeRep& u0 = untraced[0];
  for (const ServeRep& u : untraced) {
    checks.Expect(u.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(u.counts == u0.counts && u.digest == u0.digest,
                  "repetitions of one seed did different work");
  }
  for (const TracedRep<ServeReplay>& t : traced) {
    const ServeReplay& r = t.replay;
    checks.Expect(r.quality_ok, "P/R/F differ from a recount on the truth");
    checks.Expect(r.counts == u0.counts, "traced replay's report differs: " +
                                             ToString(r.counts) + " vs " +
                                             ToString(u0.counts));
    checks.Expect(r.digest == u0.digest,
                  "traced replay's final link set differs from the service's");
    checks.Expect(r.counts.queries == r.counts.ops - r.counts.shed,
                  "queries != ops - shed");
  }
  const ServeCounts& c = best.replay.counts;
  PrintResult(checks, c.ops, c.failed + c.shed + c.degraded,
              best.trace.values, true, detail);
  return 0;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "alex_e2e: %s\nusage: alex_e2e --workload "
               "<batch_nytimes|build_opencyc|serve_nytimes> [--seed N] "
               "[--seconds S] [--trace 0|1] [--small] "
               "[--commit ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t n = 0;
    if (arg == "--small") {
      opt.small = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--commit") {
      opt.commit = argv[++i];
    } else if (arg == "--seed" && ParseUint(argv[i + 1], &n)) {
      opt.seed = n;
      ++i;
    } else if (arg == "--seconds" && ParseUint(argv[i + 1], &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
      ++i;
    } else if (arg == "--trace" && ParseUint(argv[i + 1], &n) && n <= 1) {
      opt.trace = n == 1;
      ++i;
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  const std::optional<Workload> w = MakeWorkload(opt);
  if (!w.has_value()) return Usage("unknown --workload");

  SetLogLevel(LogLevel::kWarning);
  obs::TraceRecorder::Global().SetEnabled(false);
  PrintContext(opt);

  if (w->kind == Kind::kServe) {
    return opt.trace ? PerLayerServe(*w, opt) : EndToEndServe(*w, opt);
  }
  return opt.trace ? PerLayerBatch(*w, opt) : EndToEndBatch(*w, opt);
}
