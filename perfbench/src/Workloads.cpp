//===- perfbench/src/Workloads.cpp - The benchmark workloads --------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Harness.h"
#include "Http.h"
#include "Programs.h"

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "pipeline/Fingerprint.h"
#include "svc/Service.h"
#include "trace/Offline.h"
#include "trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>

#include <unistd.h>

using namespace perfbench;
using namespace grs;

namespace {

double msSince(Clock::time_point T0) { return secondsSince(T0) * 1e3; }

//===----------------------------------------------------------------------===//
// corpus-sweep
//===----------------------------------------------------------------------===//

/// Every corpus pattern, racy and fixed, each a job of SeedsPerJob seeds;
/// a round runs all of them on two worker threads pulling jobs in turn.
class CorpusSweep final : public Workload {
public:
  static constexpr uint64_t SeedsPerJob = 16;
  static constexpr unsigned Threads = 2;
  static constexpr int WarmupRounds = 12;

  CorpusSweep(uint64_t Seed, OracleLog &Log)
      : Base(scheduleBase(Seed)), Log(Log) {}

  bool setup() override {
    for (const corpus::Pattern &P : corpus::allPatterns())
      for (bool Racy : {true, false}) {
        Jobs.push_back({&P, Racy});
        VariantTally T;
        T.Pattern = P.Id;
        T.Racy = Racy;
        Tallies.push_back(T);
      }
    for (int I = 0; I < WarmupRounds; ++I)
      round();
    return true;
  }

  RoundStats round() override {
    uint64_t FirstSeed = Base + NextRound++ * SeedsPerJob;
    std::vector<double> JobMs(Jobs.size());
    std::atomic<size_t> Next{0};
    auto Worker = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
        const Job &J = Jobs[I];
        SpanScope Span("corpus.job");
        Clock::time_point T0 = Clock::now();
        pipeline::SweepResult R =
            sweepRunner(rt::RunOptions(), FirstSeed, SeedsPerJob,
                        J.Racy ? J.P->RunRacy : J.P->RunFixed);
        JobMs[I] = msSince(T0);
        VariantTally &T = Tallies[I]; // one writer per job and round
        T.Seeds += R.SeedsRun;
        T.SeedsWithRaces += R.SeedsWithRaces;
        T.SeedsWithLeaks += R.SeedsWithLeaks;
        T.SeedsWithPanics += R.SeedsWithPanics;
        T.SeedsDeadlocked += R.SeedsDeadlocked;
      }
    };
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < Threads; ++W)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
    RoundStats S;
    S.Jobs = Jobs.size();
    S.Runs = Jobs.size() * SeedsPerJob;
    S.JobMs = std::move(JobMs);
    return S;
  }

  TeardownOps finish() override {
    for (const VariantTally &T : Tallies)
      Log.note(checkCorpusVariant(T));
    // A sample of seeds, captured and replayed offline, must reproduce
    // the online verdicts exactly.
    for (const Job &J : Jobs) {
      if (!J.Racy)
        continue;
      for (uint64_t Seed = Base; Seed < Base + 2; ++Seed) {
        trace::TraceSink Sink;
        std::vector<uint64_t> Online;
        rt::RunOptions Opts;
        Opts.Seed = Seed;
        Opts.Trace = &Sink;
        Opts.OnReport = [&Online](const race::Detector &D,
                                  const race::RaceReport &Report) {
          Online.push_back(pipeline::raceFingerprint(D.interner(), Report));
        };
        J.P->RunRacy(Opts);
        std::sort(Online.begin(), Online.end());
        trace::OfflineDetector Offline;
        if (!Offline.replayBytes(Sink.bytes())) {
          Log.note(J.P->Id + ": captured trace does not replay: " +
                   Offline.error());
          continue;
        }
        Log.note(checkReplayParity(J.P->Id + " seed " + std::to_string(Seed),
                                   Online, Offline.fingerprints()));
      }
    }
    return {};
  }

  std::vector<sweep::Runner> samplePrograms() const override {
    std::vector<sweep::Runner> Out;
    for (size_t I = 0; I < Jobs.size(); I += 4)
      Out.push_back(Jobs[I].Racy ? Jobs[I].P->RunRacy : Jobs[I].P->RunFixed);
    return Out;
  }

private:
  struct Job {
    const corpus::Pattern *P;
    bool Racy;
  };
  uint64_t Base;
  OracleLog &Log;
  std::vector<Job> Jobs;
  std::vector<VariantTally> Tallies;
  uint64_t NextRound = 0;
};

//===----------------------------------------------------------------------===//
// grs-generated
//===----------------------------------------------------------------------===//

/// Generated programs with known ground truth, each a job of SeedsPerJob
/// seeds through the interpreter; a round sweeps every program serially.
class GrsGenerated final : public Workload {
public:
  static constexpr unsigned Programs = 192;
  static constexpr uint64_t SeedsPerJob = 4;
  static constexpr int WarmupRounds = 4;

  GrsGenerated(uint64_t Seed, OracleLog &Log)
      : Base(scheduleBase(Seed)), Log(Log) {}

  bool setup() override {
    Progs = generatePrograms(FirstProgramSeed, Programs);
    for (const GrsProgram &P : Progs)
      if (!P.Prog)
        Log.note("generated program " + std::to_string(P.ProgramSeed) +
                 " does not parse");
    for (int I = 0; I < WarmupRounds; ++I)
      round();
    return true;
  }

  RoundStats round() override {
    uint64_t FirstSeed = Base + NextRound++ * SeedsPerJob;
    RoundStats S;
    for (const GrsProgram &P : Progs) {
      if (!P.Prog)
        continue;
      SpanScope Span("grs.job");
      pipeline::SweepOptions Opts;
      Opts.FirstSeed = FirstSeed;
      Opts.NumSeeds = SeedsPerJob;
      Clock::time_point T0 = Clock::now();
      pipeline::SweepResult R = pipeline::sweep(Opts, lang::body(P.Prog));
      S.JobMs.push_back(msSince(T0));
      Log.note(checkGroundTruth("program " + std::to_string(P.ProgramSeed),
                                P.Racy, R));
      S.Runs += R.SeedsRun;
    }
    S.Jobs = Progs.size();
    return S;
  }

  TeardownOps finish() override { return {}; }

  std::vector<sweep::Runner> samplePrograms() const override {
    std::vector<sweep::Runner> Out;
    for (size_t I = 0; I < Progs.size(); I += 12)
      if (Progs[I].Prog)
        Out.push_back(lang::runner(Progs[I].Prog));
    return Out;
  }

private:
  uint64_t Base;
  OracleLog &Log;
  std::vector<GrsProgram> Progs;
  uint64_t NextRound = 0;
};

//===----------------------------------------------------------------------===//
// worker-pool
//===----------------------------------------------------------------------===//

/// The race-free worker pool and its racy twin, one run of each per round.
class WorkerPool final : public Workload {
public:
  static constexpr int WarmupRounds = 6;

  WorkerPool(uint64_t Seed, OracleLog &Log)
      : Base(scheduleBase(Seed)), Log(Log) {}

  bool setup() override {
    for (int I = 0; I < WarmupRounds; ++I)
      round();
    return true;
  }

  RoundStats round() override {
    RoundStats S;
    for (bool Racy : {false, true}) {
      SpanScope Span("workerpool.job");
      rt::RunOptions Opts;
      Opts.Seed = Base + NextSeed++;
      Clock::time_point T0 = Clock::now();
      WorkerPoolOutcome W = runWorkerPool(Opts, Racy);
      S.JobMs.push_back(msSince(T0));
      std::string What = std::string(Racy ? "racy twin" : "worker pool") +
                         " seed " + std::to_string(Opts.Seed);
      Log.note(checkClosedFormSum(WorkerPoolItems, W.GuardedSum));
      Log.note(checkClosedFormSum(WorkerPoolItems, W.CollectedSum));
      Log.note(Racy ? checkRacyRun(What, W.Run) : checkRaceFree(What, W.Run));
      Log.note(checkShadowBound(W.PeakShadowCells, workerPoolShadowBound()));
      ++S.Runs;
    }
    S.Jobs = 2;
    return S;
  }

  TeardownOps finish() override { return {}; }

  std::vector<sweep::Runner> samplePrograms() const override {
    return {workerPoolRunner(false, WorkerPoolItems),
            workerPoolRunner(true, WorkerPoolItems)};
  }

private:
  uint64_t Base;
  OracleLog &Log;
  uint64_t NextSeed = 0;
};

//===----------------------------------------------------------------------===//
// daemon-jobs
//===----------------------------------------------------------------------===//

/// One client in a closed loop against an in-process sweep service with
/// two pool workers: POST a job, wait for it to become terminal, GET its
/// result.json, check it, send the next. A round is a fixed mix of
/// generated-grs and corpus-pattern jobs.
class DaemonJobs final : public Workload {
public:
  static constexpr uint64_t SeedsPerJob = 24;
  static constexpr unsigned GrsJobs = 4;
  static constexpr unsigned PatternJobs = 4;
  static constexpr unsigned PoolWorkers = 2;
  static constexpr uint64_t JobTimeoutMillis = 60'000;
  static constexpr uint64_t StopTimeoutMillis = 20'000;
  static constexpr int WarmupRounds = 1;

  DaemonJobs(uint64_t Seed, const std::string &WorkDir, OracleLog &Log)
      : Base(scheduleBase(Seed)), Log(Log),
        StateDir(WorkDir + "/daemon-" + std::to_string(::getpid())) {}

  ~DaemonJobs() override {
    if (Service && !Stopped)
      stopService();
    removeStateDir();
  }

  bool setup() override {
    buildMix();
    svc::ServiceOptions O;
    O.StateDir = StateDir;
    O.PoolWorkers = PoolWorkers;
    Service = std::make_unique<svc::SweepService>(O);
    std::string Error;
    if (!Service->start(Error)) {
      std::fprintf(stderr, "sweep service did not start: %s\n",
                   Error.c_str());
      return false;
    }
    for (int I = 0; I < WarmupRounds; ++I)
      round();
    return true;
  }

  RoundStats round() override {
    RoundStats S;
    for (const MixEntry &M : Mix) {
      ++S.Jobs;
      double Ms = 0;
      std::string Result;
      if (!runJob(M.Spec, Ms, Result)) {
        ++S.FailedJobs;
        continue;
      }
      support::Json V;
      std::string Error;
      if (!support::parseJson(Result, V, Error)) {
        Log.note(M.Expect.What + ": result.json does not parse: " + Error);
        continue;
      }
      Log.note(checkJobResult(M.Expect, V));
      S.JobMs.push_back(Ms);
      S.Runs += V.get("seeds_run").asU64();
    }
    return S;
  }

  TeardownOps finish() override {
    TeardownOps Ops;
    Ops.Attempted = 1;
    Ops.Failed = stopService() ? 0 : 1;
    removeStateDir();
    return Ops;
  }

  std::vector<sweep::Runner> samplePrograms() const override {
    std::vector<sweep::Runner> Out;
    for (const GrsProgram &P : Grs)
      if (P.Prog)
        Out.push_back(lang::runner(P.Prog));
    for (const MixEntry &M : Mix)
      if (M.Pattern)
        Out.push_back(M.Fixed ? M.Pattern->RunFixed : M.Pattern->RunRacy);
    return Out;
  }

  uint16_t servicePort() const override {
    return Service ? Service->port() : 0;
  }

private:
  struct MixEntry {
    std::string Spec;
    JobExpectation Expect;
    const corpus::Pattern *Pattern = nullptr;
    bool Fixed = false;
  };

  /// GrsJobs generated programs (the first racy and benign ones of the
  /// fixed program set) and PatternJobs corpus patterns (every seventh,
  /// alternately racy and fixed), each over its own SeedsPerJob seeds. The
  /// pattern jobs' expected fingerprints come from an in-process sweep
  /// through the corpus runner with the options the spec resolves to.
  void buildMix() {
    std::vector<GrsProgram> Candidates = generatePrograms(FirstProgramSeed, 64);
    for (bool WantRacy : {true, false})
      for (const GrsProgram &P : Candidates)
        if (P.Prog && P.Racy == WantRacy &&
            std::count_if(Grs.begin(), Grs.end(), [&](const GrsProgram &Q) {
              return Q.Racy == WantRacy;
            }) < GrsJobs / 2)
          Grs.push_back(P);
    for (size_t I = 0; I < Grs.size(); ++I) {
      MixEntry M;
      uint64_t First = Base + I * SeedsPerJob;
      M.Spec = grsJobSpec(Grs[I].Source, First, SeedsPerJob);
      M.Expect.What = "grs job (program " +
                      std::to_string(Grs[I].ProgramSeed) + ")";
      M.Expect.Grs = true;
      M.Expect.NumSeeds = SeedsPerJob;
      M.Expect.ExpectSeedsWithRaces = Grs[I].Racy ? SeedsPerJob : 0;
      Mix.push_back(std::move(M));
    }
    const std::vector<corpus::Pattern> &All = corpus::allPatterns();
    for (unsigned I = 0; I < PatternJobs; ++I) {
      MixEntry M;
      M.Pattern = &All[(1 + I * 7) % All.size()];
      M.Fixed = I % 2 == 1;
      uint64_t First = Base + (GrsJobs + I) * SeedsPerJob;
      M.Spec = patternJobSpec(M.Pattern->Id, M.Fixed, First, SeedsPerJob);
      M.Expect.What = "pattern job (" + M.Pattern->Id +
                      (M.Fixed ? " fixed)" : " racy)");
      M.Expect.NumSeeds = SeedsPerJob;
      M.Expect.ExpectFps = findingFps(
          sweepRunner(rt::RunOptions(), First, SeedsPerJob,
                      M.Fixed ? M.Pattern->RunFixed : M.Pattern->RunRacy));
      Mix.push_back(std::move(M));
    }
  }

  /// POST /jobs -> 202, wait until terminal, GET /jobs/<id>/result.
  /// \p Ms spans the POST write to holding result.json.
  bool runJob(const std::string &Spec, double &Ms, std::string &Result) {
    SpanScope Job("svc.job");
    Clock::time_point T0 = Clock::now();
    HttpReply Admit;
    {
      SpanScope Span("svc.admit");
      Admit = httpRequest(Service->port(), "POST", "/jobs", Spec);
    }
    support::Json V;
    std::string Error;
    if (Admit.Status != 202 || !support::parseJson(Admit.Body, V, Error)) {
      std::fprintf(stderr, "job not admitted: HTTP %d %s\n", Admit.Status,
                   Admit.Body.c_str());
      return false;
    }
    std::string Id = V.get("id").asString("");
    {
      // Completion is observed through the service's own wait, so the
      // client makes no polling requests.
      SpanScope Span("svc.exec");
      if (!Service->waitTerminal(Id, JobTimeoutMillis)) {
        std::fprintf(stderr, "job %s not terminal after %llu ms\n",
                     Id.c_str(),
                     static_cast<unsigned long long>(JobTimeoutMillis));
        return false;
      }
    }
    HttpReply Got;
    {
      SpanScope Span("svc.result_fetch");
      Got = httpRequest(Service->port(), "GET", "/jobs/" + Id + "/result");
    }
    Ms = msSince(T0);
    if (Got.Status != 200) {
      std::fprintf(stderr, "job %s result: HTTP %d\n", Id.c_str(),
                   Got.Status);
      return false;
    }
    Result = std::move(Got.Body);
    return true;
  }

  /// Graceful stop, bounded: \returns false when stop() did not return
  /// within StopTimeoutMillis (the stopping thread is then abandoned).
  bool stopService() {
    Stopped = true;
    auto Done = std::make_shared<std::promise<void>>();
    std::future<void> F = Done->get_future();
    std::thread Stopper([Svc = Service.get(), Done] {
      Svc->stop();
      Done->set_value();
    });
    if (F.wait_for(std::chrono::milliseconds(StopTimeoutMillis)) ==
        std::future_status::ready) {
      Stopper.join();
      Service.reset();
      return true;
    }
    std::fprintf(stderr, "sweep service stop() did not return in %llu ms\n",
                 static_cast<unsigned long long>(StopTimeoutMillis));
    Stopper.detach(); // blocked in the service; the process ends instead
    return false;
  }

  void removeStateDir() {
    std::error_code Ec;
    std::filesystem::remove_all(StateDir, Ec);
  }

  uint64_t Base;
  OracleLog &Log;
  std::string StateDir;
  std::vector<GrsProgram> Grs;
  std::vector<MixEntry> Mix;
  std::unique_ptr<svc::SweepService> Service;
  bool Stopped = false;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "corpus-sweep", "grs-generated", "worker-pool", "daemon-jobs"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed,
                                                  const std::string &WorkDir,
                                                  OracleLog &Log) {
  if (Name == "corpus-sweep")
    return std::make_unique<CorpusSweep>(Seed, Log);
  if (Name == "grs-generated")
    return std::make_unique<GrsGenerated>(Seed, Log);
  if (Name == "worker-pool")
    return std::make_unique<WorkerPool>(Seed, Log);
  if (Name == "daemon-jobs")
    return std::make_unique<DaemonJobs>(Seed, WorkDir, Log);
  return nullptr;
}
