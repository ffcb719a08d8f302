#pragma once

// In-memory span recorder for the benchmark's traced runs. Spans are
// opened around calls into the library's public API from the benchmark's
// own code (nothing inside src/ is instrumented), kept in memory, and
// written out once at exit as a chrome://tracing JSON file. Each span
// remembers the span that was open on the same thread when it began, so
// a span's self time is its duration minus the durations of its direct
// children.
//
// Recording is off unless SetEnabled(true); a disabled Scope costs one
// relaxed atomic load.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  using Clock = std::chrono::steady_clock;

  static SpanTrace& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread for the lifetime of the scope.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Id of the recorded span, -1 when recording was off at open.
    int id() const { return id_; }

   private:
    int id_ = -1;
    int saved_parent_ = -1;
  };

  /// Records an already-finished span under `parent` (used to lay out
  /// the phase durations a step returns inside that step's span).
  void AddFinished(const char* name, int parent, Clock::time_point start,
                   Clock::time_point end);

  struct SelfTime {
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: call count, summed duration and summed self time.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes every recorded span as chrome://tracing "X" events.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int tid;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  int Open(const char* name, int parent);
  void Close(int id);

  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
