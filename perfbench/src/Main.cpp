//===- perfbench/src/Main.cpp - The grsbench entry point ------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Runs one workload and prints one JSON result line:
//
//   grsbench --workload NAME --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--trace-out FILE]
//   grsbench --self-test
//
// Untraced (--trace 0): set-up (inputs, service start, one untimed warm-up
// round) is timed from process start as setup_s; then whole rounds run
// until S seconds have passed. runs_per_s comes from the fastest tenth of
// rounds and job latencies from the jobs of the fastest quarter, so that
// time the host takes from the process in its slow phases counts little.
//
// Traced (--trace 1): half the time runs rounds alternately with and
// without benchmark-side spans (their median ratio is the tracing
// overhead), then every per-layer probe runs under spans, and the spans
// are written as Chrome trace JSON. A traced run prints per-layer metrics
// only; end-to-end numbers always come from untraced runs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Layers.h"
#include "Oracles.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 20;
  bool Trace = false;
  bool SelfTest = false;
  std::string WorkDir = ".bench_build/run";
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atoi(Value.c_str());
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--work-dir")
      A.WorkDir = Value;
    else if (Flag == "--trace-out")
      A.TraceOut = Value;
    else
      return false;
  }
  return A.SelfTest || (!A.Workload.empty() && A.Seconds > 0);
}

/// Runs rounds until \p Seconds have passed; \p OnRound sees each.
template <typename FnT>
void runRounds(Workload &W, double Seconds, FnT &&OnRound) {
  Clock::time_point T0 = Clock::now();
  for (uint64_t I = 0; secondsSince(T0) < Seconds; ++I) {
    Clock::time_point R0 = Clock::now();
    RoundStats S = W.round();
    OnRound(I, S, secondsSince(R0));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point Start = Clock::now();
  pinHeapThresholds();
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: grsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n"
                 "       grsbench --self-test\n");
    return 2;
  }
  if (A.SelfTest)
    return runSelfTest();

  std::error_code Ec;
  std::filesystem::create_directories(A.WorkDir, Ec);
  OracleLog Log;
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, A.WorkDir, Log);
  if (!W) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", A.Workload.c_str());
    return 2;
  }
  if (!W->setup())
    return 1;
  double SetupS = secondsSince(Start);

  MetricSet M;
  uint64_t Attempted = 0, Failed = 0;
  auto Count = [&](const RoundStats &S) {
    Attempted += S.Jobs;
    Failed += S.FailedJobs;
  };

  if (!A.Trace) {
    // Reserved before timing, so that the loop allocates nothing large.
    std::vector<double> RoundSec, JobMs;
    std::vector<size_t> JobEnd; // JobMs[JobEnd[i-1] .. JobEnd[i]) is round i
    RoundSec.reserve(1 << 16);
    JobEnd.reserve(1 << 16);
    JobMs.reserve(1 << 22);
    uint64_t RunsPerRound = 0;
    runRounds(*W, A.Seconds, [&](uint64_t, const RoundStats &S, double Sec) {
      Count(S);
      RunsPerRound = S.Runs;
      RoundSec.push_back(Sec);
      JobMs.insert(JobMs.end(), S.JobMs.begin(), S.JobMs.end());
      JobEnd.push_back(JobMs.size());
    });
    // Interference from the rest of the host only ever adds time, in
    // phases of a fraction of a second to tens of seconds. Throughput
    // comes from the fastest tenth of rounds, job latency from the jobs
    // of the fastest quarter (still over 100 jobs on every workload).
    std::vector<size_t> Order(RoundSec.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(),
              [&](size_t X, size_t Y) { return RoundSec[X] < RoundSec[Y]; });
    std::vector<double> FastJobs;
    for (size_t K = 0; K < std::max<size_t>(1, Order.size() / 4); ++K) {
      size_t R = Order[K];
      FastJobs.insert(FastJobs.end(), JobMs.begin() + (R ? JobEnd[R - 1] : 0),
                      JobMs.begin() + JobEnd[R]);
    }
    M.set("setup_s", SetupS, "s");
    M.set("runs_per_s",
          static_cast<double>(RunsPerRound) / quantile(RoundSec, 0.1),
          "runs/s");
    M.set("job_p50_ms", FastJobs.empty() ? 0 : quantile(FastJobs, 0.5), "ms");
    M.set("job_p90_ms", FastJobs.empty() ? 0 : quantile(FastJobs, 0.9), "ms");
    M.set("peak_rss_mb", peakRssMiB(), "MiB");
  } else {
    // Alternate rounds with and without spans; compare seconds per run.
    std::vector<double> Traced, Plain;
    tracer().setEnabled(true); // even rounds traced, odd ones not
    runRounds(*W, A.Seconds / 2.0,
              [&](uint64_t I, const RoundStats &S, double Sec) {
                Count(S);
                (I % 2 ? Plain : Traced)
                    .push_back(Sec / static_cast<double>(S.Runs ? S.Runs : 1));
                tracer().setEnabled(I % 2 == 1);
              });
    tracer().setEnabled(true);
    measureLayers(*W, A.Seed, A.WorkDir, Log, M);
    M.set("bench.tracing_overhead_pct",
          Plain.empty() || Traced.empty()
              ? 0
              : (median(Traced) / median(Plain) - 1) * 100,
          "%");
  }

  TeardownOps Down = W->finish();
  Attempted += Down.Attempted;
  Failed += Down.Failed;

  if (A.Trace) {
    std::string Path = A.TraceOut.empty()
                           ? A.WorkDir + "/trace-" + A.Workload + ".json"
                           : A.TraceOut;
    if (!tracer().writeChromeTrace(Path))
      std::fprintf(stderr, "cannot write the span trace to %s\n",
                   Path.c_str());
    else
      std::fprintf(stderr, "spans written to %s\n", Path.c_str());
  }
  printResult(Log.ok(), Attempted, Failed, M);
  if (Down.Failed)
    std::_Exit(0); // a thread is stuck inside the service; do not join it
  return 0;
}
