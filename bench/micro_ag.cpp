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
//===----------------------------------------------------------------------===//

#include "ag/Builder.h"
#include "ag/Graph.h"
#include "ag/Validator.h"
#include "viz/Dot.h"
#include "viz/JsonDump.h"

#include "GBenchMain.h"

#include <benchmark/benchmark.h>

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

} // namespace

int main(int argc, char **argv) {
  return asyncg::benchjson::gbenchMain(argc, argv, "micro_ag");
}
