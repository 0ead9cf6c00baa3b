//===- perfbench/src/Oracles.h - Correctness oracles ------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks each workload applies to the program's outputs. Every oracle
/// rests on something computed apart from the code under test (a closed
/// form, the generator's ground truth, an independent in-process sweep,
/// an offline replay) or on a property the method must have (fixed
/// variants are race-free, shadow memory stays bounded); none compares
/// against a recording of earlier output. Each returns "" when the output
/// passes and a one-line reason when it does not, so the self-test can
/// show every oracle rejecting a deliberately wrong input.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "pipeline/Sweep.h"
#include "rt/Runtime.h"
#include "support/Json.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Collects oracle failures over a run; the run is correct iff empty.
class OracleLog {
public:
  /// Records \p Failure when non-empty (printed to stderr once).
  void note(const std::string &Failure);
  bool ok() const { return Failures == 0; }
  uint64_t failures() const { return Failures; }

private:
  uint64_t Failures = 0;
};

/// Per-variant tally of a corpus pattern over every seed swept.
struct VariantTally {
  std::string Pattern;
  bool Racy = true;
  uint64_t Seeds = 0;
  uint64_t SeedsWithRaces = 0;
  uint64_t SeedsWithLeaks = 0;
  uint64_t SeedsWithPanics = 0;
  uint64_t SeedsDeadlocked = 0;
};

/// corpus-sweep: a fixed variant never reports, leaks, panics or
/// deadlocks; a racy variant is flagged on at least one seed.
std::string checkCorpusVariant(const VariantTally &T);

/// corpus-sweep: replaying a captured trace offline yields exactly the
/// online run's sorted fingerprints.
std::string checkReplayParity(const std::string &What,
                              const std::vector<uint64_t> &Online,
                              const std::vector<uint64_t> &Offline);

/// grs-generated and daemon-jobs: the generator's ground truth. A racy
/// program is flagged on every seed, a benign one on none, and no seed
/// panics, deadlocks or leaks.
std::string checkGroundTruth(const std::string &What, bool Racy,
                             const grs::pipeline::SweepResult &R);

/// worker-pool: the values processed sum to n(n+1)/2.
std::string checkClosedFormSum(uint64_t N, int64_t Got);

/// worker-pool: the race-free program finishes cleanly with no report.
std::string checkRaceFree(const std::string &What, const grs::rt::RunResult &R);

/// worker-pool: the racy twin is flagged on this seed (its update is
/// unordered on every schedule) and otherwise finishes.
std::string checkRacyRun(const std::string &What, const grs::rt::RunResult &R);

/// worker-pool: peak live shadow cells stay under a bound that does not
/// depend on how many items the program processes.
std::string checkShadowBound(uint64_t PeakCells, uint64_t Bound);

/// daemon-jobs: what a job's result.json must say.
struct JobExpectation {
  std::string What;
  bool Grs = false;
  /// grs jobs: the generator's label, times NumSeeds.
  uint64_t ExpectSeedsWithRaces = 0;
  /// pattern jobs: fingerprints of an in-process sweep of the same
  /// pattern, variant and seed range through the corpus runner.
  std::set<uint64_t> ExpectFps;
  uint64_t NumSeeds = 0;
};
std::string checkJobResult(const JobExpectation &E,
                           const grs::support::Json &Result);

/// Fingerprint set of a sweep's findings.
std::set<uint64_t> findingFps(const grs::pipeline::SweepResult &R);

/// Runs every oracle on a deliberately wrong input (each must reject it)
/// and on a right one (each must accept it). \returns 0 when all behave.
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
