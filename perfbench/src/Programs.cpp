//===- perfbench/src/Programs.cpp - Workload inputs -----------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "lang/Generator.h"
#include "rt/Channel.h"
#include "rt/Instr.h"
#include "rt/Sync.h"
#include "support/Json.h"

using namespace perfbench;
using namespace grs;

uint64_t perfbench::scheduleBase(uint64_t Seed) {
  // splitmix64, kept to 40 bits so seeds stay readable in job specs.
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  return 1 + (Z & ((1ULL << 40) - 1));
}

pipeline::SweepResult perfbench::sweepRunner(const rt::RunOptions &Base,
                                             uint64_t FirstSeed,
                                             uint64_t NumSeeds,
                                             const sweep::Runner &Run) {
  pipeline::SweepResult Result;
  for (uint64_t I = 0; I < NumSeeds; ++I) {
    rt::RunOptions Opts = Base;
    Opts.Seed = FirstSeed + I;
    Opts.OnReport = [&Result](const race::Detector &D,
                              const race::RaceReport &Report) {
      auto &Finding =
          Result.Findings[pipeline::raceFingerprint(D.interner(), Report)];
      ++Finding.Occurrences;
      if (Finding.SampleReport.empty())
        Finding.SampleReport = race::reportToString(D.interner(), Report);
    };
    rt::RunResult R = Run(Opts);
    ++Result.SeedsRun;
    Result.SeedsWithRaces += R.RaceCount > 0;
    Result.SeedsWithLeaks += !R.LeakedGoroutines.empty();
    Result.SeedsWithPanics += !R.Panics.empty();
    Result.SeedsDeadlocked += R.Deadlocked;
    Result.TotalReports += R.RaceCount;
  }
  return Result;
}

std::vector<GrsProgram> perfbench::generatePrograms(uint64_t First,
                                                    unsigned Count) {
  std::vector<GrsProgram> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    lang::GeneratedProgram G = lang::generateProgram(First + I);
    GrsProgram P;
    P.ProgramSeed = G.ProgramSeed;
    P.Racy = G.Racy;
    P.Source = std::move(G.Source);
    if (G.Parsed.ok())
      P.Prog = G.Parsed.Prog;
    Out.push_back(std::move(P));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// worker-pool
//===----------------------------------------------------------------------===//

namespace {

constexpr int PoolWorkers = 3;

void workerPoolMain(uint64_t Items, bool Racy, int64_t &GuardedOut,
                    int64_t &CollectedOut) {
  using ItemPtr = std::shared_ptr<rt::Shared<int64_t>>;
  rt::Chan<ItemPtr> Work(8, "work");
  rt::Chan<int64_t> Results(0, "results");
  rt::Mutex Mu("sum.mu");
  rt::Shared<int64_t> Sum("sum", 0);
  rt::Shared<int64_t> Tally("tally", 0);
  rt::WaitGroup Wg("workers");

  rt::go("producer", [&] {
    for (uint64_t I = 1; I <= Items; ++I) {
      auto Item = std::make_shared<rt::Shared<int64_t>>("item");
      Item->store(static_cast<int64_t>(I));
      Work.send(std::move(Item));
    }
    Work.close();
  });
  Wg.add(PoolWorkers);
  for (int W = 0; W < PoolWorkers; ++W)
    rt::go("worker", [&] {
      for (;;) {
        auto [Item, Ok] = Work.recv();
        if (!Ok)
          break;
        int64_t V = Item->load();
        Mu.lock();
        Sum = Sum + V;
        Mu.unlock();
        Results.send(V);
      }
      if (Racy)
        Tally = Tally + 1; // after the last release any other worker sees
      Wg.done();
    });
  // Main collects exactly one result per item, then waits for the
  // workers: no goroutine sits parked for the whole run.
  int64_t Collected = 0;
  for (uint64_t I = 0; I < Items; ++I)
    Collected += Results.recv().first;
  Wg.wait();
  GuardedOut = Sum.raw();
  CollectedOut = Collected;
}

} // namespace

WorkerPoolOutcome perfbench::runWorkerPool(const rt::RunOptions &Opts,
                                           bool Racy, uint64_t Items) {
  WorkerPoolOutcome Out;
  rt::Runtime RT(Opts);
  Out.Run = RT.run([&] {
    workerPoolMain(Items, Racy, Out.GuardedSum, Out.CollectedSum);
  });
  Out.PeakShadowCells = RT.det().footprint().PeakShadowCells;
  return Out;
}

sweep::Runner perfbench::workerPoolRunner(bool Racy, uint64_t Items) {
  return [Racy, Items](const rt::RunOptions &Opts) {
    return runWorkerPool(Opts, Racy, Items).Run;
  };
}

uint64_t perfbench::workerPoolShadowBound() {
  return race::DetectorOptions().GcIntervalEvents + 256;
}

//===----------------------------------------------------------------------===//
// daemon-jobs
//===----------------------------------------------------------------------===//

namespace {

std::string jobSpec(support::Json Body, uint64_t FirstSeed,
                    uint64_t NumSeeds) {
  support::Json V = support::Json::object();
  V.set("body", std::move(Body));
  V.set("first_seed", support::Json::unsignedInt(FirstSeed));
  V.set("num_seeds", support::Json::unsignedInt(NumSeeds));
  V.set("executor", support::Json::string("pool"));
  return support::renderJson(V);
}

} // namespace

std::string perfbench::patternJobSpec(const std::string &Pattern, bool Fixed,
                                      uint64_t FirstSeed, uint64_t NumSeeds) {
  support::Json Body = support::Json::object();
  Body.set("kind", support::Json::string("pattern"));
  Body.set("pattern", support::Json::string(Pattern));
  Body.set("variant", support::Json::string(Fixed ? "fixed" : "racy"));
  return jobSpec(std::move(Body), FirstSeed, NumSeeds);
}

std::string perfbench::grsJobSpec(const std::string &Source,
                                  uint64_t FirstSeed, uint64_t NumSeeds) {
  support::Json Body = support::Json::object();
  Body.set("kind", support::Json::string("grs"));
  Body.set("source", support::Json::string(Source));
  return jobSpec(std::move(Body), FirstSeed, NumSeeds);
}
