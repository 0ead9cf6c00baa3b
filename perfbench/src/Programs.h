//===- perfbench/src/Programs.h - Workload inputs ---------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs the workloads feed the program, all made from the run's
/// seed: schedule-seed ranges, generated grs programs with their ground
/// truth, the worker-pool program written against the public rt API, and
/// sweep-service job specs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "lang/Ast.h"
#include "pipeline/Sweep.h"
#include "sweep/Adaptive.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// First schedule seed of a run with benchmark seed \p Seed: distinct
/// benchmark seeds sweep disjoint, reproducible seed ranges. The seed
/// chooses schedules only; the programs themselves are a fixed set, so
/// runs with different seeds do the same work under other interleavings.
uint64_t scheduleBase(uint64_t Seed);

/// First lang::generateProgram seed of the fixed generated-program set.
inline constexpr uint64_t FirstProgramSeed = 1;

/// pipeline::sweep over an Execute function (corpus patterns are
/// registered as runners, not bodies): same aggregation, same §3.3.1
/// fingerprints.
grs::pipeline::SweepResult sweepRunner(const grs::rt::RunOptions &Base,
                                  uint64_t FirstSeed, uint64_t NumSeeds,
                                  const grs::sweep::Runner &Run);

/// One program from lang::generateProgram with its ground truth.
struct GrsProgram {
  uint64_t ProgramSeed = 0;
  bool Racy = false;
  std::string Source;
  std::shared_ptr<const grs::lang::Program> Prog; ///< null: parse failed
};

/// Generates and parses programs \p First .. \p First + \p Count - 1.
std::vector<GrsProgram> generatePrograms(uint64_t First, unsigned Count);

//===----------------------------------------------------------------------===//
// worker-pool
//===----------------------------------------------------------------------===//

/// Items the worker-pool program processes per run.
inline constexpr uint64_t WorkerPoolItems = 6000;

/// A producer passes items 1..n over a buffered channel to three workers;
/// each adds its item to a mutex-guarded sum and hands it over an
/// unbuffered channel to main, which sums what it collects. Every item is
/// a fresh instrumented variable, so detector shadow state would grow
/// with n without shadow GC. The racy twin adds one unguarded update per
/// worker after its last synchronizing operation: unordered on every
/// schedule.
struct WorkerPoolOutcome {
  grs::rt::RunResult Run;
  int64_t GuardedSum = 0;  ///< the mutex-guarded total
  int64_t CollectedSum = 0; ///< what main received
  uint64_t PeakShadowCells = 0;
};
WorkerPoolOutcome runWorkerPool(const grs::rt::RunOptions &Opts, bool Racy,
                                uint64_t Items = WorkerPoolItems);

/// The same program as a runner (for sweeps and per-layer probes).
grs::sweep::Runner workerPoolRunner(bool Racy, uint64_t Items);

/// Live shadow cells the worker-pool program may hold at its peak with the
/// detector's default options, whatever its item count: cells created
/// between two collections are bounded by the collection interval (each
/// new cell costs at least one counted event), and what survives a
/// collection is the in-flight state of a handful of goroutines.
uint64_t workerPoolShadowBound();

//===----------------------------------------------------------------------===//
// daemon-jobs
//===----------------------------------------------------------------------===//

/// A POST /jobs body on the pool executor; every other field keeps its
/// wire default (watchdog 2000 ms, 3 attempts, preempt 0.2).
std::string patternJobSpec(const std::string &Pattern, bool Fixed,
                           uint64_t FirstSeed, uint64_t NumSeeds);
std::string grsJobSpec(const std::string &Source, uint64_t FirstSeed,
                       uint64_t NumSeeds);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
