//===- perfbench/src/Harness.cpp - Timing, spans and result output --------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>

#include <malloc.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double Q) {
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double perfbench::peakRssMiB() {
  rusage Usage = {};
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {
constexpr int PinnedTrimBytes = 64 << 20;
} // namespace

void perfbench::pinHeapThresholds() {
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, PinnedTrimBytes);
}

void perfbench::setHeapTrimming(bool On) {
  mallopt(M_TRIM_THRESHOLD, On ? 0 : PinnedTrimBytes);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last.
thread_local std::vector<uint32_t> OpenSpans;

} // namespace

Tracer &perfbench::tracer() {
  static Tracer T;
  return T;
}

void Tracer::setEnabled(bool On) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (On && Spans.capacity() == 0)
    Spans.reserve(1 << 20);
  Enabled = On;
}

uint32_t Tracer::begin(const char *Name) {
  uint32_t Parent = OpenSpans.empty() ? NoSpan : OpenSpans.back();
  std::lock_guard<std::mutex> Lock(Mu);
  auto [It, Inserted] = ThreadIds.try_emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(ThreadIds.size()));
  (void)Inserted;
  uint32_t Id = static_cast<uint32_t>(Spans.size());
  Spans.push_back({Name, nowNs(), -1, Parent, It->second});
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(uint32_t Id) {
  int64_t Now = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Id].EndNs = Now;
}

std::vector<double> Tracer::durationsUs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.EndNs >= 0 && Name == S.Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e3);
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"traceEvents\":[";
  const char *Sep = "\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    Out << Sep << "{\"name\":\"" << S.Name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Thread
        << ",\"ts\":" << renderNumber(static_cast<double>(S.StartNs - Base) / 1e3)
        << ",\"dur\":" << renderNumber(static_cast<double>(S.EndNs - S.StartNs) / 1e3)
        << ",\"args\":{\"id\":" << I << ",\"parent\":"
        << (S.Parent == NoSpan ? std::string("null")
                               : std::to_string(S.Parent))
        << "}}";
    Sep = ",\n";
  }
  Out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

std::string perfbench::renderNumber(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  (void)Ec;
  return std::string(Buf, End);
}

std::string MetricSet::renderJson() const {
  std::string Out = "{";
  for (const auto &[Name, E] : Values) {
    if (Out.size() > 1)
      Out += ", ";
    Out += "\"" + Name + "\": {\"value\": " + renderNumber(E.Value) +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}";
}

void perfbench::printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                            const MetricSet &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Metrics.renderJson().c_str());
  std::fflush(stdout);
}
