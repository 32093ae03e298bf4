//===- micro_ag.cpp - Async Graph construction micro benchmarks ----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro benchmarks of the AG data structures themselves:
// node/edge insertion rates, registration-to-execution mapping through the
// pending lists and the context validator, and graph queries. These
// isolate the builder's costs from the runtime's.
//
// The builder-budget leg replays one recorded AcmeAir trace (2000
// requests, 8 clients) on one thread and reports ns/record for three layer
// stacks — decode only (BuildGraph=false: the shadow stack and tick
// accounting still run), decode plus graph apply, and decode plus apply
// plus the detector suite — each with retirement off and on. Differences
// between adjacent stacks are the per-layer costs of the builder thread.
//
//===----------------------------------------------------------------------===//

#include "ag/Builder.h"
#include "ag/Graph.h"
#include "ag/Validator.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "viz/Dot.h"
#include "viz/JsonDump.h"

#include "GBenchMain.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>

using namespace asyncg;
using namespace asyncg::ag;

namespace {

void benchGraphNodeInsertion(benchmark::State &State) {
  for (auto _ : State) {
    AsyncGraph G;
    AgTick T;
    T.Index = 1;
    for (int I = 0; I < 1024; ++I) {
      AgNode N;
      N.Kind = NodeKind::CR;
      N.Sched = static_cast<jsrt::ScheduleId>(I + 1);
      N.Api = jsrt::ApiKind::NextTick;
      G.addNode(std::move(N), T);
    }
    G.appendTick(std::move(T));
    benchmark::DoNotOptimize(G.nodeCount());
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(benchGraphNodeInsertion);

void benchGraphEdges(benchmark::State &State) {
  for (auto _ : State) {
    AsyncGraph G;
    AgTick T;
    T.Index = 1;
    for (int I = 0; I < 512; ++I) {
      AgNode N;
      N.Kind = I % 2 ? NodeKind::CE : NodeKind::CR;
      G.addNode(std::move(N), T);
    }
    G.appendTick(std::move(T));
    for (int I = 0; I + 1 < 512; I += 2) {
      G.addEdge(static_cast<NodeId>(I + 1), static_cast<NodeId>(I),
                EdgeKind::Binding);
      G.addEdge(static_cast<NodeId>(I), static_cast<NodeId>(I + 1),
                EdgeKind::Causal);
    }
    benchmark::DoNotOptimize(G.edges().size());
  }
  State.SetItemsProcessed(State.iterations() * 512);
}
BENCHMARK(benchGraphEdges);

void benchValidator(benchmark::State &State) {
  PendingReg Reg;
  Reg.Sched = 7;
  Reg.Api = jsrt::ApiKind::EmitterOn;
  Reg.BoundObj = 42;
  Reg.Event = "data";

  jsrt::DispatchInfo D;
  D.Sched = 7;
  D.Trigger.K = jsrt::TriggerInfo::Kind::Emitter;
  D.Trigger.Obj = 42;
  D.Trigger.Event = "data";

  for (auto _ : State) {
    bool V = ContextValidator::isValid(Reg, D, jsrt::PhaseKind::Io);
    bool C = ContextValidator::contextMatches(Reg, D, jsrt::PhaseKind::Io);
    benchmark::DoNotOptimize(V);
    benchmark::DoNotOptimize(C);
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(benchValidator);

/// Builds a representative graph via the real builder from synthetic
/// instrumentation events (no runtime), measuring builder throughput.
void benchBuilderSyntheticTicks(benchmark::State &State) {
  for (auto _ : State) {
    AsyncGBuilder B;
    jsrt::CallArgs NoArgs;
    jsrt::Completion Ok;
    for (uint64_t I = 0; I < 256; ++I) {
      // One registration followed by the matching execution tick.
      auto Fn = std::make_shared<jsrt::FunctionData>();
      Fn->Id = I + 1;
      Fn->Name = "cb";
      jsrt::Function F(Fn);

      instr::ApiCallEvent Reg;
      Reg.Api = jsrt::ApiKind::SetImmediate;
      Reg.Sched = I + 1;
      Reg.Callbacks = {F};
      Reg.TargetPhase = jsrt::PhaseKind::Check;
      B.onApiCall(Reg);

      jsrt::DispatchInfo D;
      D.Phase = jsrt::PhaseKind::Check;
      D.TopLevel = true;
      D.Sched = I + 1;
      D.Api = jsrt::ApiKind::SetImmediate;
      B.onFunctionEnter(instr::FunctionEnterEvent{F, NoArgs, D});
      B.onFunctionExit(instr::FunctionExitEvent{F, Ok, D});
    }
    B.onLoopEnd(instr::LoopEndEvent{256, false});
    benchmark::DoNotOptimize(B.graph().nodeCount());
  }
  State.SetItemsProcessed(State.iterations() * 256);
}
BENCHMARK(benchBuilderSyntheticTicks);

void benchSerializeDot(benchmark::State &State) {
  AsyncGBuilder B;
  jsrt::CallArgs NoArgs;
  jsrt::Completion Ok;
  for (uint64_t I = 0; I < 512; ++I) {
    auto Fn = std::make_shared<jsrt::FunctionData>();
    Fn->Id = I + 1;
    jsrt::Function F(Fn);
    instr::ApiCallEvent Reg;
    Reg.Api = jsrt::ApiKind::NextTick;
    Reg.Sched = I + 1;
    Reg.Callbacks = {F};
    Reg.TargetPhase = jsrt::PhaseKind::NextTick;
    B.onApiCall(Reg);
    jsrt::DispatchInfo D;
    D.Phase = jsrt::PhaseKind::NextTick;
    D.TopLevel = true;
    D.Sched = I + 1;
    D.Api = jsrt::ApiKind::NextTick;
    B.onFunctionEnter(instr::FunctionEnterEvent{F, NoArgs, D});
    B.onFunctionExit(instr::FunctionExitEvent{F, Ok, D});
  }
  for (auto _ : State) {
    std::string Dot = viz::toDot(B.graph());
    std::string Json = viz::toJson(B.graph());
    benchmark::DoNotOptimize(Dot.size());
    benchmark::DoNotOptimize(Json.size());
  }
}
BENCHMARK(benchSerializeDot);

/// The AcmeAir trace the builder-budget leg replays, recorded on first use
/// under $TMPDIR (default /tmp) and removed at exit.
struct BudgetTrace {
  std::string Path;
  uint64_t Records = 0;

  BudgetTrace() {
    const char *Tmp = std::getenv("TMPDIR");
    Path = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/micro_ag_budget_" +
           std::to_string(::getpid()) + ".agtrace";
    jsrt::Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 2000;
    WCfg.Clients = 8;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    instr::TraceRecorder Rec;
    if (!Rec.open(Path))
      return;
    RT.hooks().attach(&Rec);
    jsrt::Function Main = RT.makeBuiltin(
        "main", [&](jsrt::Runtime &, const jsrt::CallArgs &) {
          App.start(JSLOC);
          Driver.start();
          return jsrt::Completion::normal();
        });
    RT.main(Main);
    if (Rec.finalize())
      Records = Rec.recordCount();
  }
  ~BudgetTrace() { std::remove(Path.c_str()); }

  static const BudgetTrace &get() {
    static const BudgetTrace T;
    return T;
  }
};

enum class Layers { Decode, Apply, Detect };

void benchBuilderBudget(benchmark::State &State, Layers L, bool Retire) {
  const BudgetTrace &Trace = BudgetTrace::get();
  if (Trace.Records == 0) {
    State.SkipWithError("could not record the AcmeAir trace");
    return;
  }
  BuilderConfig Cfg;
  Cfg.BuildGraph = L != Layers::Decode;
  Cfg.Retire = Retire;
  for (auto _ : State) {
    AsyncGBuilder B(Cfg);
    detect::DetectorSuite Detectors;
    if (L == Layers::Detect)
      Detectors.attachTo(B);
    std::string Err;
    if (!instr::replayTrace(Trace.Path, B, &Err)) {
      State.SkipWithError(Err.c_str());
      return;
    }
    benchmark::DoNotOptimize(B.graph().nodeCount());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Trace.Records));
  // Seconds per 10^9 records, inverted from a rate: ns per record (the
  // replay is single-threaded, so CPU time is the wall time it takes).
  State.counters["ns_per_record"] = benchmark::Counter(
      static_cast<double>(Trace.Records) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(benchBuilderBudget, decode_retire_off, Layers::Decode, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchBuilderBudget, decode_retire_on, Layers::Decode, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchBuilderBudget, apply_retire_off, Layers::Apply, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchBuilderBudget, apply_retire_on, Layers::Apply, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchBuilderBudget, detect_retire_off, Layers::Detect,
                  false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(benchBuilderBudget, detect_retire_on, Layers::Detect, true)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  return asyncg::benchjson::gbenchMain(argc, argv, "micro_ag");
}
