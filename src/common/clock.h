#ifndef ALEX_COMMON_CLOCK_H_
#define ALEX_COMMON_CLOCK_H_

#include <chrono>
#include <thread>

namespace alex {

/// Injectable time source for the link service's client think time and the
/// TelemetryHub's sampling interval.
///
/// Production code uses SteadyClock; LinkService's deterministic mode and
/// the telemetry tests use SimClock, where "sleeping" advances virtual time
/// instantly — so a run with seconds of simulated think time takes
/// microseconds of wall time and is bit-for-bit reproducible.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic time in seconds since an arbitrary epoch.
  virtual double NowSeconds() const = 0;

  /// Blocks (or simulates blocking) for `seconds`; no-op when <= 0.
  virtual void SleepSeconds(double seconds) = 0;
};

/// Real monotonic clock; SleepSeconds actually blocks the calling thread.
class SteadyClock : public Clock {
 public:
  double NowSeconds() const override {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void SleepSeconds(double seconds) override {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
};

/// Deterministic manual clock starting at 0. SleepSeconds advances virtual
/// time without blocking. Not thread-safe; share only with external
/// synchronization (LinkService drives it from its one client thread).
class SimClock : public Clock {
 public:
  double NowSeconds() const override { return now_; }

  void SleepSeconds(double seconds) override {
    if (seconds > 0.0) now_ += seconds;
  }

  /// Test hook: moves time forward directly.
  void AdvanceSeconds(double seconds) { SleepSeconds(seconds); }

 private:
  double now_ = 0.0;
};

}  // namespace alex

#endif  // ALEX_COMMON_CLOCK_H_
