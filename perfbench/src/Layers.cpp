//===- perfbench/src/Layers.cpp - Per-layer probes ------------------------===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Http.h"
#include "Programs.h"

#include "corpus/Patterns.h"
#include "lang/Interp.h"
#include "lang/Parser.h"
#include "lang/Ports.h"
#include "obs/Metrics.h"
#include "rt/Channel.h"
#include "svc/Job.h"
#include "svc/Store.h"
#include "sweep/Checkpoint.h"
#include "sweep/Pool.h"
#include "sweep/Resilient.h"
#include "trace/Offline.h"
#include "trace/Trace.h"

#include <cstdio>
#include <filesystem>

using namespace perfbench;
using namespace grs;

namespace {

/// Times \p Fn \p Reps times, each under a span named \p Span, and
/// \returns the median duration in microseconds.
template <typename FnT>
double medianUs(const char *Span, int Reps, FnT &&Fn) {
  std::vector<double> Us;
  for (int I = 0; I < Reps; ++I) {
    SpanScope S(Span);
    Clock::time_point T0 = Clock::now();
    Fn();
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(std::move(Us));
}

rt::RunOptions quietRun(uint64_t Seed) {
  rt::RunOptions O;
  O.Seed = Seed;
  O.PreemptProbability = 0; // switches only where the program blocks
  return O;
}

//===----------------------------------------------------------------------===//
// rt
//===----------------------------------------------------------------------===//

constexpr int Spawns = 32;

void spawnEmpties() {
  rt::Runtime RT(quietRun(1));
  RT.run([] {
    int Done = 0;
    for (int I = 0; I < Spawns; ++I)
      rt::go("empty", [&Done] { ++Done; });
    while (Done < Spawns)
      rt::gosched();
  });
}

void probeRuntime(MetricSet &Out) {
  double Empty = medianUs("rt.run_setup", 41, [] {
    rt::Runtime RT(quietRun(1));
    RT.run([] {});
  });
  Out.set("rt.run_setup_us", Empty, "us");

  // Spawn, run and exit of empty goroutines, minus the empty run.
  double Spawning = medianUs("rt.spawn", 41, spawnEmpties);
  Out.set("rt.spawn_ns", (Spawning - Empty) * 1e3 / Spawns, "ns");
  // The same while glibc trims the heap top on every free (its behaviour
  // whenever freed stacks end up at the top of the heap): each run then
  // page-faults its goroutine stacks in again.
  setHeapTrimming(true);
  double Trimmed = medianUs("rt.spawn_trimmed_heap", 41, spawnEmpties);
  setHeapTrimming(false);
  Out.set("rt.spawn_trimmed_heap_ns", (Trimmed - Empty) * 1e3 / Spawns, "ns");

  constexpr int Handoffs = 4000;
  double Switching = medianUs("rt.switch", 15, [] {
    rt::Runtime RT(quietRun(1));
    RT.run([] {
      rt::Chan<int> C(0, "handoff");
      rt::go("receiver", [&C] {
        for (int I = 0; I < Handoffs; ++I)
          C.recv();
      });
      for (int I = 0; I < Handoffs; ++I)
        C.send(I);
    });
  });
  Out.set("rt.switch_ns", (Switching - Empty) * 1e3 / Handoffs, "ns");

  constexpr int Cap = 64, Laps = 100;
  double Buffered = medianUs("rt.chan_op", 15, [] {
    rt::Runtime RT(quietRun(1));
    RT.run([] {
      rt::Chan<int> C(Cap, "buffered");
      for (int L = 0; L < Laps; ++L) {
        for (int I = 0; I < Cap; ++I)
          C.send(I);
        for (int I = 0; I < Cap; ++I)
          C.recv();
      }
    });
  });
  Out.set("rt.chan_op_ns", (Buffered - Empty) * 1e3 / (Cap * Laps), "ns");

  // The same short corpus run with the service's default watchdog and
  // without, alternated so both sides see the same host phases. A watched
  // run costs either little or a whole monitor poll, depending on whether
  // the monitor thread started sleeping before the run ended, so the
  // difference is taken between means, not medians.
  const corpus::Pattern *P = corpus::findPattern("err-variable-capture");
  double Plain = 0, Watched = 0;
  constexpr int Pairs = 40;
  for (int I = 0; I < Pairs; ++I)
    for (bool Watch : {false, true}) {
      rt::RunOptions O;
      O.Seed = 1 + I;
      O.WatchdogMillis = Watch ? 2000 : 0;
      SpanScope S(Watch ? "rt.watched_run" : "rt.unwatched_run");
      Clock::time_point T0 = Clock::now();
      P->RunRacy(O);
      (Watch ? Watched : Plain) += secondsSince(T0) * 1e6;
    }
  Out.set("rt.watchdog_run_us", (Watched - Plain) / Pairs, "us");
}

//===----------------------------------------------------------------------===//
// race
//===----------------------------------------------------------------------===//

void probeDetector(const std::vector<sweep::Runner> &Programs,
                   MetricSet &Out) {
  constexpr uint64_t Seeds = 3;
  // Detector on minus off, alternated per program and seed.
  double OnUs = 0, OffUs = 0;
  uint64_t Runs = 0;
  for (const sweep::Runner &Run : Programs)
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed)
      for (bool Detect : {true, false}) {
        rt::RunOptions O;
        O.Seed = Seed;
        O.DetectRaces = Detect;
        SpanScope S(Detect ? "race.detector_on_run" : "race.detector_off_run");
        Clock::time_point T0 = Clock::now();
        Run(O);
        (Detect ? OnUs : OffUs) += secondsSince(T0) * 1e6;
        Runs += Detect;
      }
  Out.set("race.self_us_per_run", (OnUs - OffUs) / static_cast<double>(Runs),
          "us");

  // Offline replay of traces captured from the same programs.
  std::vector<trace::Trace> Traces;
  obs::Registry Reg;
  for (const sweep::Runner &Run : Programs) {
    trace::TraceSink Sink;
    rt::RunOptions O;
    O.Trace = &Sink;
    O.Metrics = &Reg;
    Run(O);
    Traces.push_back(trace::decodeOrDie(Sink.bytes()));
  }
  uint64_t Events = 0;
  double ReplayUs = 0;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (const trace::Trace &T : Traces) {
      trace::OfflineDetector Offline;
      SpanScope S("race.replay");
      Clock::time_point T0 = Clock::now();
      Offline.replay(T);
      ReplayUs += secondsSince(T0) * 1e6;
      Events += Offline.eventsReplayed();
    }
  Out.set("race.replay_ns_per_event",
          ReplayUs * 1e3 / static_cast<double>(Events ? Events : 1), "ns");
  const obs::Gauge *Peak = Reg.findGauge("grs_detector_shadow_cells_peak");
  Out.set("race.shadow_cells_peak", Peak ? Peak->value() : 0, "count");
}

//===----------------------------------------------------------------------===//
// lang
//===----------------------------------------------------------------------===//

void probeLang(MetricSet &Out) {
  std::vector<GrsProgram> Progs = generatePrograms(FirstProgramSeed, 64);
  double Bytes = 0;
  for (const GrsProgram &P : Progs)
    Bytes += static_cast<double>(P.Source.size());
  double ParseUs = medianUs("lang.parse", 9, [&] {
    for (const GrsProgram &P : Progs)
      lang::parseProgram(P.Source);
  });
  Out.set("lang.parse_us_per_kb", ParseUs / (Bytes / 1024.0), "us");

  // Each .grs corpus port against its hand-written C++ twin, same seeds.
  constexpr uint64_t Seeds = 16;
  double InterpUs = 0, CompiledUs = 0;
  uint64_t Runs = 0;
  for (const lang::LangPort &Port : lang::langPorts()) {
    const corpus::Pattern *Twin = corpus::findPattern(Port.TwinId);
    std::string Path = lang::findTestdataPath(Port.File);
    if (!Twin || Path.empty())
      continue;
    lang::ParseResult Parsed = lang::loadProgramFile(Path);
    if (!Parsed.ok())
      continue;
    sweep::Runner Interp = lang::runner(Parsed.Prog);
    for (bool Compiled : {false, true}) {
      SpanScope S(Compiled ? "lang.compiled_sweep" : "lang.interp_sweep");
      Clock::time_point T0 = Clock::now();
      sweepRunner(rt::RunOptions(), 1, Seeds,
                  Compiled ? Twin->RunRacy : Interp);
      (Compiled ? CompiledUs : InterpUs) += secondsSince(T0) * 1e6;
    }
    Runs += Seeds;
  }
  if (Runs == 0)
    std::fprintf(stderr, "no .grs port with a C++ twin found under "
                         "testdata/; lang.*_us_per_run read 0\n");
  double PerRun = Runs ? 1.0 / static_cast<double>(Runs) : 0.0;
  Out.set("lang.interp_us_per_run", InterpUs * PerRun, "us");
  Out.set("lang.compiled_us_per_run", CompiledUs * PerRun, "us");
}

//===----------------------------------------------------------------------===//
// sweep
//===----------------------------------------------------------------------===//

void probeSweep(const std::string &WorkDir, MetricSet &Out) {
  constexpr uint64_t Slots = 64;
  sweep::ResilientOptions Base;
  Base.FirstSeed = 1;
  Base.NumSeeds = Slots;
  Base.Threads = 2;
  Base.Body = corpus::findPattern("loop-index-capture")->RunRacy;
  double Inproc = medianUs("sweep.resilient", 5,
                           [&] { sweep::resilient(Base); });
  sweep::PoolOptions PO;
  PO.Base = Base;
  double Pooled = medianUs("sweep.pooled", 5, [&] { sweep::pooled(PO); });
  Out.set("sweep.inproc_slot_us", Inproc / Slots, "us");
  Out.set("sweep.pool_slot_us", Pooled / Slots, "us");

  std::string Path = WorkDir + "/probe-journal.ckpt";
  sweep::CheckpointWriter W;
  sweep::CheckpointMeta Meta;
  Meta.NumSeeds = 1000;
  constexpr int Appends = 500;
  double AppendUs = 0;
  if (W.create(Path, Meta)) {
    sweep::SlotRecord R;
    R.RaceCount = 1;
    R.Reports.push_back({0x1234, 1, std::string(200, 'r')});
    SpanScope S("sweep.journal_append");
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < Appends; ++I) {
      R.Slot = R.Seed = static_cast<uint64_t>(I);
      W.append(R);
    }
    AppendUs = secondsSince(T0) * 1e6 / Appends;
    W.close();
  }
  std::filesystem::remove(Path);
  Out.set("sweep.journal_append_us", AppendUs, "us");
}

//===----------------------------------------------------------------------===//
// svc, obs, support
//===----------------------------------------------------------------------===//

void probeStoreAndJson(const std::string &WorkDir, MetricSet &Out) {
  GrsProgram P = generatePrograms(FirstProgramSeed, 1).front();
  std::string Spec = grsJobSpec(P.Source, 1, 24);

  svc::JobStore Store(WorkDir + "/probe-store");
  std::string Error;
  double WriteUs = 0;
  if (Store.init(Error)) {
    std::string Target = Store.root() + "/probe.json";
    WriteUs = medianUs("svc.store_write", 31, [&] {
      Store.writeAtomic(Target, Spec, Error);
    });
  }
  std::filesystem::remove_all(Store.root());
  Out.set("svc.store_write_us", WriteUs, "us");

  double ParseUs = medianUs("support.json_parse", 9, [&] {
    for (int I = 0; I < 200; ++I) {
      support::Json V;
      svc::JobSpec Parsed;
      support::parseJson(Spec, V, Error);
      svc::JobSpec::parse(V, Parsed, Error);
    }
  });
  Out.set("support.json_parse_us", ParseUs / 200, "us");
}

double medianSpanUs(const char *Name) {
  std::vector<double> D = tracer().durationsUs(Name);
  return D.empty() ? 0 : median(std::move(D));
}

void probeService(const Workload &W, uint64_t Seed, const std::string &WorkDir,
                  OracleLog &Log, MetricSet &Out) {
  // Without a service of its own, the workload borrows a short-lived
  // daemon-jobs run: untraced set-up, then two traced rounds.
  std::unique_ptr<Workload> Probe;
  uint16_t Port = W.servicePort();
  if (!Port) {
    Probe = makeWorkload("daemon-jobs", Seed, WorkDir, Log);
    tracer().setEnabled(false);
    bool Up = Probe->setup();
    tracer().setEnabled(true);
    if (Up) {
      Probe->round();
      Probe->round();
      Port = Probe->servicePort();
    }
  }
  double Rtt = 0;
  if (Port)
    Rtt = medianUs("obs.healthz", 51,
                   [&] { httpRequest(Port, "GET", "/healthz"); });
  if (Probe && Probe->finish().Failed != 0) {
    Log.note("the probe service did not stop");
    (void)Probe.release(); // a thread is stuck in its stop(); never join it
  }
  Out.set("obs.http_rtt_us", Rtt, "us");
  Out.set("svc.admit_us", medianSpanUs("svc.admit"), "us");
  Out.set("svc.exec_ms", medianSpanUs("svc.exec") / 1e3, "ms");
  Out.set("svc.result_fetch_us", medianSpanUs("svc.result_fetch"), "us");
}

} // namespace

void perfbench::measureLayers(const Workload &W, uint64_t Seed,
                              const std::string &WorkDir, OracleLog &Log,
                              MetricSet &Out) {
  probeRuntime(Out);
  probeDetector(W.samplePrograms(), Out);
  probeLang(Out);
  probeSweep(WorkDir, Out);
  probeStoreAndJson(WorkDir, Out);
  probeService(W, Seed, WorkDir, Log, Out);
}
