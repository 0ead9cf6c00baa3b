//===- perfbench/src/SelfTest.cpp - Every oracle can fail -----------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
// Feeds each oracle a deliberately wrong input, which it must reject, and
// the matching right input, which it must accept. The inputs are real
// program outputs wherever one exists (a racy variant's sweep presented
// as the fixed one, a benign program labelled racy, a run without shadow
// GC), so the self-test also shows the oracles see real failures.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Programs.h"

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "pipeline/Fingerprint.h"
#include "trace/Offline.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace grs;

namespace {

int Bad = 0;

/// \p Right must pass and \p Wrong must fail.
void expect(const char *Oracle, const char *WrongInput,
            const std::string &Right, const std::string &Wrong) {
  bool Ok = Right.empty() && !Wrong.empty();
  std::printf("self-test %-22s rejects %-52s %s\n", Oracle, WrongInput,
              Ok ? "ok" : "FAILED");
  if (!Right.empty())
    std::printf("  right input was rejected: %s\n", Right.c_str());
  if (Wrong.empty())
    std::printf("  wrong input was accepted\n");
  else
    std::printf("  -> %s\n", Wrong.c_str());
  Bad += !Ok;
}

VariantTally tally(const corpus::Pattern &P, bool RunRacy, bool LabelRacy) {
  pipeline::SweepResult R = sweepRunner(rt::RunOptions(), 1, 16,
                                        RunRacy ? P.RunRacy : P.RunFixed);
  VariantTally T;
  T.Pattern = P.Id;
  T.Racy = LabelRacy;
  T.Seeds = R.SeedsRun;
  T.SeedsWithRaces = R.SeedsWithRaces;
  T.SeedsWithLeaks = R.SeedsWithLeaks;
  T.SeedsWithPanics = R.SeedsWithPanics;
  T.SeedsDeadlocked = R.SeedsDeadlocked;
  return T;
}

struct Capture {
  std::vector<uint64_t> Online;
  std::vector<uint64_t> Offline;
};

Capture captureAndReplay(const corpus::Pattern &P) {
  Capture C;
  trace::TraceSink Sink;
  rt::RunOptions O;
  O.Trace = &Sink;
  O.OnReport = [&C](const race::Detector &D, const race::RaceReport &R) {
    C.Online.push_back(pipeline::raceFingerprint(D.interner(), R));
  };
  P.RunRacy(O);
  std::sort(C.Online.begin(), C.Online.end());
  trace::OfflineDetector Offline;
  Offline.replayBytes(Sink.bytes());
  C.Offline = Offline.fingerprints();
  return C;
}

support::Json resultDoc(const char *State, uint64_t Seeds,
                        uint64_t SeedsWithRaces,
                        const std::set<uint64_t> &Fps) {
  support::Json V = support::Json::object();
  V.set("state", support::Json::string(State));
  V.set("seeds_run", support::Json::unsignedInt(Seeds));
  V.set("seeds_with_races", support::Json::unsignedInt(SeedsWithRaces));
  support::Json Findings = support::Json::array();
  for (uint64_t Fp : Fps) {
    support::Json F = support::Json::object();
    F.set("fp", support::Json::unsignedInt(Fp));
    Findings.push(std::move(F));
  }
  V.set("findings", std::move(Findings));
  V.set("quarantined", support::Json::array());
  return V;
}

} // namespace

int perfbench::runSelfTest() {
  const corpus::Pattern &A = *corpus::findPattern("loop-index-capture");
  const corpus::Pattern &B = *corpus::findPattern("partial-locking");

  expect("corpus fixed-variant", "a racy variant's sweep labelled fixed",
         checkCorpusVariant(tally(A, false, false)),
         checkCorpusVariant(tally(A, true, false)));
  expect("corpus racy-variant", "a fixed variant's sweep labelled racy",
         checkCorpusVariant(tally(A, true, true)),
         checkCorpusVariant(tally(A, false, true)));
  Capture CA = captureAndReplay(A), CB = captureAndReplay(B);
  expect("corpus replay-parity", "another pattern's replayed trace",
         checkReplayParity("A", CA.Online, CA.Offline),
         checkReplayParity("A", CA.Online, CB.Offline));

  // The first benign and the first racy generated program.
  std::vector<GrsProgram> Progs = generatePrograms(1, 16);
  auto Benign = std::find_if(Progs.begin(), Progs.end(),
                             [](const GrsProgram &P) { return !P.Racy; });
  auto Racy = std::find_if(Progs.begin(), Progs.end(),
                           [](const GrsProgram &P) { return P.Racy; });
  pipeline::SweepOptions SO;
  SO.NumSeeds = 8;
  pipeline::SweepResult BenignSweep = pipeline::sweep(SO, lang::body(Benign->Prog));
  pipeline::SweepResult RacySweep = pipeline::sweep(SO, lang::body(Racy->Prog));
  expect("grs ground-truth", "a benign program labelled racy",
         checkGroundTruth("benign", false, BenignSweep),
         checkGroundTruth("benign", true, BenignSweep));
  expect("grs ground-truth", "a racy program labelled benign",
         checkGroundTruth("racy", true, RacySweep),
         checkGroundTruth("racy", false, RacySweep));

  rt::RunOptions O;
  WorkerPoolOutcome Free = runWorkerPool(O, false);
  WorkerPoolOutcome Twin = runWorkerPool(O, true);
  expect("worker-pool sum", "the computed sum plus one",
         checkClosedFormSum(WorkerPoolItems, Free.GuardedSum),
         checkClosedFormSum(WorkerPoolItems, Free.GuardedSum + 1));
  expect("worker-pool race-free", "the racy twin's run",
         checkRaceFree("w", Free.Run), checkRaceFree("w", Twin.Run));
  expect("worker-pool racy-twin", "the race-free program's run",
         checkRacyRun("w", Twin.Run), checkRacyRun("w", Free.Run));
  rt::RunOptions NoGc;
  NoGc.Detector.Gc = race::GcMode::Off;
  expect("worker-pool shadow", "a run with shadow GC switched off",
         checkShadowBound(Free.PeakShadowCells, workerPoolShadowBound()),
         checkShadowBound(runWorkerPool(NoGc, false).PeakShadowCells,
                          workerPoolShadowBound()));

  JobExpectation GrsJob;
  GrsJob.What = "grs job";
  GrsJob.Grs = true;
  GrsJob.NumSeeds = 8;
  GrsJob.ExpectSeedsWithRaces = RacySweep.SeedsRun; // racy: every seed
  expect("daemon grs-job", "a benign program's result for a racy job",
         checkJobResult(GrsJob, resultDoc("done", 8, RacySweep.SeedsWithRaces,
                                          findingFps(RacySweep))),
         checkJobResult(GrsJob,
                        resultDoc("done", 8, BenignSweep.SeedsWithRaces, {})));
  expect("daemon job-state", "a failed job",
         checkJobResult(GrsJob, resultDoc("done", 8, RacySweep.SeedsWithRaces,
                                          findingFps(RacySweep))),
         checkJobResult(GrsJob, resultDoc("failed", 8,
                                          RacySweep.SeedsWithRaces, {})));
  JobExpectation PatJob;
  PatJob.What = "pattern job";
  PatJob.NumSeeds = 16;
  PatJob.ExpectFps =
      findingFps(sweepRunner(rt::RunOptions(), 1, 16, A.RunRacy));
  std::set<uint64_t> OtherFps =
      findingFps(sweepRunner(rt::RunOptions(), 1, 16, B.RunRacy));
  expect("daemon pattern-job", "another pattern's fingerprints",
         checkJobResult(PatJob, resultDoc("done", 16, 16, PatJob.ExpectFps)),
         checkJobResult(PatJob, resultDoc("done", 16, 16, OtherFps)));

  std::printf("self-test: %s\n", Bad ? "FAILED" : "every oracle rejected its "
                                                  "wrong input");
  return Bad ? 1 : 0;
}
