#ifndef ALEX_OBS_TRACE_H_
#define ALEX_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace alex::obs {

/// Scoped tracing: RAII spans record begin/end into a lock-cheap per-thread
/// ring buffer, exportable as Chrome `trace_event` JSON loadable in
/// chrome://tracing and Perfetto.
///
/// Two gates keep the cost off hot paths:
///  - Compile time: the ALEX_TRACE_SPAN macro compiles to nothing when the
///    build sets ALEX_ENABLE_TRACING=OFF (no ALEX_TRACING_ENABLED define).
///  - Run time: even when compiled in, spans are inert (one relaxed atomic
///    load) until TraceRecorder::Global().SetEnabled(true).
///
/// Span names and categories must be string literals (or otherwise outlive
/// the recorder): only the pointers are stored.
///
/// Causal context: every span carries a 64-bit trace id and span id, plus
/// the span id of its parent. A root span (TraceSpan::Root::kNewTrace, used
/// by FederatedEngine per query) mints a fresh trace id; child spans on the
/// same thread inherit it through a thread-local TraceContext, so one
/// federated query — plan execution, pattern probes, probe-cache lookups —
/// exports as one connected tree.

/// The ambient causal identity of the calling thread: which trace it is
/// inside and which span is the innermost open one. {0, 0} means "no open
/// trace". Saved/restored by TraceSpan, so it always mirrors the live span
/// stack of the thread.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// One key/value annotation on a span (pattern index, endpoint id, cache
/// hit/miss, attempt number, ...). Keys are string literals. Values are
/// either integers or strings interned into the recorder's table
/// (`string_index` indexes TraceRecorder arg strings when `is_string`).
struct TraceArg {
  const char* key = nullptr;
  int64_t value = 0;
  bool is_string = false;
};

/// Maximum annotations one span retains; extra AddArg calls are dropped.
inline constexpr size_t kMaxTraceArgs = 6;

/// One completed span. Timestamps are microseconds since the recorder's
/// epoch (its construction).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t ts_micros = 0;   // Span begin.
  uint64_t dur_micros = 0;  // Span duration.
  uint32_t tid = 0;         // Sequential per-thread id.
  /// Causal identity: which query tree this span belongs to and where.
  /// 0 = untraced (an event recorded outside any TraceSpan, e.g. via the
  /// raw Record(category, name, ts, dur) overload).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root of its trace.
  TraceArg args[kMaxTraceArgs];
  uint32_t num_args = 0;
};

class TraceRecorder {
 public:
  /// Events each thread's ring buffer retains; older events are overwritten.
  static constexpr size_t kRingCapacity = 1 << 16;

  static TraceRecorder& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one completed span on the calling thread's ring buffer
  /// (no causal ids, no args — kept for plain begin/end instrumentation
  /// and for tests that drive the ring directly).
  void Record(const char* category, const char* name, uint64_t ts_micros,
              uint64_t dur_micros);

  /// Records a fully populated event; `event.tid` is overwritten with the
  /// calling thread's id.
  void Record(TraceEvent event);

  /// Fresh process-unique ids (sequential, never 0).
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The calling thread's ambient trace context (mutable; TraceSpan
  /// saves/restores it around each scope).
  static TraceContext& CurrentContext();

  /// Interns a string argument value, returning its table index. The table
  /// only grows; Clear() does not drop it (events may still reference it).
  uint32_t InternArgString(std::string_view value);

  /// The interned string for a TraceArg with is_string set.
  std::string ArgString(size_t index) const;

  /// Microseconds since the recorder epoch.
  uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// All retained events, merged across threads and sorted by (ts, tid).
  /// Within one thread, a span's children precede it (they end first).
  std::vector<TraceEvent> Events() const;

  /// Drops all retained events (buffers stay registered).
  void Clear();

  /// Writes all retained events as Chrome trace_event JSON (a complete
  /// "X"-phase event per span): {"traceEvents": [...]}. Causal ids and
  /// AddArg annotations are emitted under each event's "args" object
  /// (trace_id / span_id / parent_span_id plus the span's own keys), which
  /// is where Perfetto surfaces them.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  /// Fixed-capacity overwrite-oldest ring. The owning thread appends;
  /// export/clear lock the same mutex, so concurrent export is safe. The
  /// mutex is thread-private in steady state — uncontended acquire.
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<TraceEvent> ring;
    size_t next = 0;    // Ring slot the next event lands in.
    size_t count = 0;   // Total events ever recorded.
    uint32_t tid = 0;
  };

  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  ThreadBuffer& LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_trace_id_{0};
  std::atomic<uint64_t> next_span_id_{0};
  mutable std::mutex registry_mu_;
  /// shared_ptr keeps buffers of exited threads alive for export.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  uint32_t next_tid_ = 0;
  /// Interned string argument values (append-only).
  std::vector<std::string> arg_strings_;
};

/// RAII span: captures the start time on construction (when the recorder is
/// enabled) and records a TraceEvent on destruction. Use via the
/// ALEX_TRACE_SPAN / ALEX_TRACE_SPAN_VAR macros so disabled builds drop the
/// object entirely.
class TraceSpan {
 public:
  enum class Root {
    kInherit,   // Join the thread's current trace (fresh trace if none).
    kNewTrace,  // Mint a fresh trace id: this span is a query root.
  };

  TraceSpan(const char* category, const char* name,
            Root root = Root::kInherit)
      : active_(TraceRecorder::Global().enabled()) {
    if (active_) {
      TraceRecorder& recorder = TraceRecorder::Global();
      category_ = category;
      name_ = name;
      TraceContext& context = TraceRecorder::CurrentContext();
      parent_ = context;
      trace_id_ = (root == Root::kNewTrace || parent_.trace_id == 0)
                      ? recorder.NextTraceId()
                      : parent_.trace_id;
      span_id_ = recorder.NextSpanId();
      context.trace_id = trace_id_;
      context.span_id = span_id_;
      start_micros_ = recorder.NowMicros();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (active_) {
      TraceRecorder& recorder = TraceRecorder::Global();
      TraceRecorder::CurrentContext() = parent_;
      TraceEvent event;
      event.name = name_;
      event.category = category_;
      event.ts_micros = start_micros_;
      event.dur_micros = recorder.NowMicros() - start_micros_;
      event.trace_id = trace_id_;
      event.span_id = span_id_;
      // A root span reports no parent even if an outer span was open (the
      // query tree starts here).
      event.parent_span_id = (trace_id_ == parent_.trace_id)
                                 ? parent_.span_id
                                 : 0;
      event.num_args = num_args_;
      for (uint32_t i = 0; i < num_args_; ++i) event.args[i] = args_[i];
      recorder.Record(event);
    }
  }

  /// Annotates the span (no-op when inactive; extra args beyond
  /// kMaxTraceArgs are dropped). Keys must be string literals. One template
  /// covers every integral type (including bool → 0/1) so call sites avoid
  /// overload ambiguity between signed and unsigned conversions.
  template <typename T>
    requires std::is_integral_v<T>
  void AddArg(const char* key, T value) {
    if (!active_ || num_args_ >= kMaxTraceArgs) return;
    args_[num_args_++] =
        TraceArg{key, static_cast<int64_t>(value), /*is_string=*/false};
  }
  /// String values are interned in the recorder (copied; the argument need
  /// not outlive the call).
  void AddArg(const char* key, std::string_view value) {
    if (!active_ || num_args_ >= kMaxTraceArgs) return;
    const uint32_t index = TraceRecorder::Global().InternArgString(value);
    args_[num_args_++] =
        TraceArg{key, static_cast<int64_t>(index), /*is_string=*/true};
  }

  /// Causal ids of this span; 0 when the recorder was disabled at
  /// construction (callers use 0 as "untraced" in exemplars).
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }
  bool active() const { return active_; }

 private:
  bool active_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_micros_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  TraceContext parent_;
  TraceArg args_[kMaxTraceArgs];
  uint32_t num_args_ = 0;
};

/// Compiled-out stand-in for TraceSpan: every member is an inline no-op, so
/// ALEX_TRACE_SPAN_VAR call sites (including their AddArg calls) vanish
/// entirely under -DALEX_ENABLE_TRACING=OFF.
class NullTraceSpan {
 public:
  NullTraceSpan() = default;
  template <typename... Args>
  void AddArg(const char*, Args&&...) {}
  uint64_t trace_id() const { return 0; }
  uint64_t span_id() const { return 0; }
  bool active() const { return false; }
};

}  // namespace alex::obs

#define ALEX_OBS_CONCAT_INNER(a, b) a##b
#define ALEX_OBS_CONCAT(a, b) ALEX_OBS_CONCAT_INNER(a, b)

/// ALEX_TRACE_SPAN(category, name): opens an anonymous span covering the
/// rest of the enclosing scope.
/// ALEX_TRACE_SPAN_VAR(var, category, name): same, but named, so the call
/// site can AddArg / read trace_id().
/// ALEX_TRACE_ROOT_SPAN_VAR(var, category, name): named span that starts a
/// fresh trace (one per federated query).
/// Category and name must be string literals. All three compile to nothing
/// (NullTraceSpan for the named forms) when the build disables tracing
/// (-DALEX_ENABLE_TRACING=OFF).
#ifdef ALEX_TRACING_ENABLED
#define ALEX_TRACE_SPAN(category, name)          \
  ::alex::obs::TraceSpan ALEX_OBS_CONCAT(        \
      alex_trace_span_, __LINE__)(category, name)
#define ALEX_TRACE_SPAN_VAR(var, category, name) \
  ::alex::obs::TraceSpan var(category, name)
#define ALEX_TRACE_ROOT_SPAN_VAR(var, category, name)  \
  ::alex::obs::TraceSpan var(category, name,           \
                             ::alex::obs::TraceSpan::Root::kNewTrace)
#else
#define ALEX_TRACE_SPAN(category, name) \
  do {                                  \
  } while (false)
#define ALEX_TRACE_SPAN_VAR(var, category, name) \
  ::alex::obs::NullTraceSpan var
#define ALEX_TRACE_ROOT_SPAN_VAR(var, category, name) \
  ::alex::obs::NullTraceSpan var
#endif

#endif  // ALEX_OBS_TRACE_H_
