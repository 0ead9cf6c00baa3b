//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload makes its inputs from the run's seed, warms up with one
/// untimed round, and then runs timed rounds: each round is the same fixed
/// set of jobs (a job is one sweep request: a pattern, program or service
/// job over a range of schedule seeds). Every round applies the workload's
/// oracles to what the program returned.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Oracles.h"

#include "sweep/Adaptive.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Operations attempted and failed in a workload's teardown.
struct TeardownOps {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// What one round did.
struct RoundStats {
  uint64_t Runs = 0;          ///< seeded schedules completed
  uint64_t Jobs = 0;          ///< jobs attempted
  uint64_t FailedJobs = 0;    ///< jobs the program did not complete
  std::vector<double> JobMs;  ///< latency of every completed job
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Makes the inputs from the seed and runs one untimed warm-up round.
  /// \returns false (with a reason on stderr) when it cannot start.
  virtual bool setup() = 0;

  /// Runs one round of jobs and checks their outputs.
  virtual RoundStats round() = 0;

  /// Checks what only the whole run can show and releases everything the
  /// workload holds. A failed teardown operation (a service whose stop()
  /// did not return in time) means the process must end without
  /// destroying the workload.
  virtual TeardownOps finish() = 0;

  /// A few of the workload's own programs, for the detector probes.
  virtual std::vector<grs::sweep::Runner> samplePrograms() const = 0;

  /// Loopback port of the workload's sweep service, 0 when it has none.
  virtual uint16_t servicePort() const { return 0; }
};

/// Names accepted by makeWorkload, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// \returns nullptr for an unknown name. \p WorkDir is a directory the
/// workload may write under (the service's state directory lives there).
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &WorkDir,
                                       OracleLog &Log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
