//===- perfbench/src/Harness.h - Timing, spans and result output -*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own plumbing: a steady clock, order statistics, the
/// process's peak RSS, benchmark-side spans (recorded only in traced runs
/// and written as Chrome trace JSON), and the metric set printed as the
/// result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Quantile \p Q in [0, 1] by linear interpolation between closest ranks.
/// \p Values must be non-empty.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double peakRssMiB();

/// Fixes glibc's heap thresholds for the whole process. Left dynamic, they
/// move whenever some large block is freed, and where the heap top then
/// lands decides whether freeing a run's goroutine stacks trims the heap,
/// so that every run page-faults its stacks in afresh: 3-5x slower, and
/// flipped by any unrelated allocation in the benchmark itself. Pinned,
/// stacks come from the heap and are reused, in every run alike. The
/// trimming state is measured apart (rt.spawn_trimmed_heap_ns).
void pinHeapThresholds();

/// Makes glibc trim the heap top on every free (\p On) or restores the
/// pinned threshold.
void setHeapTrimming(bool On);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Benchmark-side spans around calls into the program's layers: name,
/// start, end, the span that was open on the same thread when it began
/// (its parent) and the thread. Off by default, so untraced runs pay one
/// branch per span site; traced runs keep every span in memory and write
/// them when the run ends.
class Tracer {
public:
  static constexpr uint32_t NoSpan = ~0u;

  void setEnabled(bool On);
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// \p Name must outlive the tracer (a string literal).
  uint32_t begin(const char *Name);
  void end(uint32_t Id);

  /// Durations, in microseconds, of every closed span named \p Name.
  std::vector<double> durationsUs(const std::string &Name) const;

  /// Writes every span as Chrome trace JSON ("X" events; args carry the
  /// span id and its parent id). \returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    int64_t StartNs = 0;
    int64_t EndNs = -1;
    uint32_t Parent = NoSpan;
    uint32_t Thread = 0;
  };
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< reserved when first enabled
  std::map<std::thread::id, uint32_t> ThreadIds;
};

/// The process's tracer.
Tracer &tracer();

/// RAII span on the process tracer; inert when tracing is off.
class SpanScope {
public:
  explicit SpanScope(const char *Name)
      : Id(tracer().enabled() ? tracer().begin(Name) : Tracer::NoSpan) {}
  ~SpanScope() {
    if (Id != Tracer::NoSpan)
      tracer().end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

/// Named metrics with units, printed in insertion-independent (sorted)
/// order inside the result object.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Values[Name] = {Value, Unit};
  }
  /// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string renderJson() const;

private:
  struct Entry {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Entry> Values;
};

/// Renders \p V with the shortest digits that read back exactly.
std::string renderNumber(double V);

/// Prints the result object as one line on stdout.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const MetricSet &Metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
