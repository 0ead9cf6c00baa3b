//===- perfbench/src/Oracles.cpp - Correctness oracles --------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <cstdio>

using namespace perfbench;
using namespace grs;

void OracleLog::note(const std::string &Failure) {
  if (Failure.empty())
    return;
  // Print the first few; a systematic fault repeats on every job.
  if (Failures < 20)
    std::fprintf(stderr, "ORACLE FAILED: %s\n", Failure.c_str());
  ++Failures;
}

namespace {

std::string u(uint64_t V) { return std::to_string(V); }

} // namespace

std::string perfbench::checkCorpusVariant(const VariantTally &T) {
  std::string What = T.Pattern + (T.Racy ? " racy" : " fixed");
  if (T.Seeds == 0)
    return What + ": no seed was run";
  if (T.Racy)
    return T.SeedsWithRaces == 0
               ? What + ": never flagged over " + u(T.Seeds) + " seeds"
               : "";
  if (T.SeedsWithRaces || T.SeedsWithLeaks || T.SeedsWithPanics ||
      T.SeedsDeadlocked)
    return What + ": " + u(T.SeedsWithRaces) + " racy, " +
           u(T.SeedsWithLeaks) + " leaking, " + u(T.SeedsWithPanics) +
           " panicking, " + u(T.SeedsDeadlocked) + " deadlocked of " +
           u(T.Seeds) + " seeds";
  return "";
}

std::string perfbench::checkReplayParity(const std::string &What,
                                         const std::vector<uint64_t> &Online,
                                         const std::vector<uint64_t> &Offline) {
  if (Online == Offline)
    return "";
  return What + ": offline replay gave " + u(Offline.size()) +
         " fingerprints, the online run " + u(Online.size()) +
         (Online.size() == Offline.size() ? " (different values)" : "");
}

std::string perfbench::checkGroundTruth(const std::string &What, bool Racy,
                                        const pipeline::SweepResult &R) {
  if (R.SeedsRun == 0)
    return What + ": no seed was run";
  if (R.SeedsWithPanics || R.SeedsDeadlocked || R.SeedsWithLeaks)
    return What + ": " + u(R.SeedsWithPanics) + " panicking, " +
           u(R.SeedsDeadlocked) + " deadlocked, " + u(R.SeedsWithLeaks) +
           " leaking seeds";
  if (Racy && R.SeedsWithRaces != R.SeedsRun)
    return What + ": racy by construction but flagged on " +
           u(R.SeedsWithRaces) + " of " + u(R.SeedsRun) + " seeds";
  if (!Racy && R.SeedsWithRaces != 0)
    return What + ": benign by construction but flagged on " +
           u(R.SeedsWithRaces) + " of " + u(R.SeedsRun) + " seeds";
  return "";
}

std::string perfbench::checkClosedFormSum(uint64_t N, int64_t Got) {
  int64_t Want = static_cast<int64_t>(N * (N + 1) / 2);
  return Got == Want ? ""
                     : "sum of 1.." + u(N) + " is " + std::to_string(Want) +
                           ", the program computed " + std::to_string(Got);
}

std::string perfbench::checkRaceFree(const std::string &What,
                                     const rt::RunResult &R) {
  if (R.clean())
    return "";
  return What + ": expected a clean run, got " + u(R.RaceCount) +
         " reports, main finished " + (R.MainFinished ? "yes" : "no") +
         ", " + u(R.LeakedGoroutines.size()) + " leaks, " +
         u(R.Panics.size()) + " panics" +
         (R.Deadlocked ? ", deadlock" : "") +
         (R.StepLimitHit ? ", step limit" : "");
}

std::string perfbench::checkRacyRun(const std::string &What,
                                    const rt::RunResult &R) {
  if (!R.MainFinished || R.Deadlocked || R.StepLimitHit ||
      !R.LeakedGoroutines.empty() || !R.Panics.empty())
    return What + ": the racy twin did not finish cleanly";
  return R.RaceCount > 0 ? "" : What + ": the unordered update was not flagged";
}

std::string perfbench::checkShadowBound(uint64_t PeakCells, uint64_t Bound) {
  return PeakCells <= Bound ? ""
                            : "peak live shadow cells " + u(PeakCells) +
                                  " exceed the length-independent bound " +
                                  u(Bound);
}

std::set<uint64_t> perfbench::findingFps(const pipeline::SweepResult &R) {
  std::set<uint64_t> S;
  for (const auto &F : R.Findings)
    S.insert(F.first);
  return S;
}

std::string perfbench::checkJobResult(const JobExpectation &E,
                                      const support::Json &Result) {
  std::string State = Result.get("state").asString("");
  if (State != "done")
    return E.What + ": job state is \"" + State + "\", not \"done\"";
  if (Result.get("seeds_run").asU64() != E.NumSeeds)
    return E.What + ": ran " + u(Result.get("seeds_run").asU64()) +
           " seeds of " + u(E.NumSeeds);
  if (Result.get("quarantined").size() != 0)
    return E.What + ": quarantined slots";
  if (E.Grs) {
    uint64_t Got = Result.get("seeds_with_races").asU64();
    return Got == E.ExpectSeedsWithRaces
               ? ""
               : E.What + ": seeds_with_races " + u(Got) + ", ground truth " +
                     u(E.ExpectSeedsWithRaces);
  }
  std::set<uint64_t> Got;
  for (const support::Json &F : Result.get("findings").items())
    Got.insert(F.get("fp").asU64());
  return Got == E.ExpectFps
             ? ""
             : E.What + ": " + u(Got.size()) +
                   " fingerprints differ from the in-process sweep's " +
                   u(E.ExpectFps.size());
}
