//===- StressTest.cpp - large-scale correctness smoke tests --------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/AsyncPipeline.h"
#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "detect/Detectors.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

using namespace asyncg;
using namespace asyncg::ag;
using namespace asyncg::jsrt;
using namespace asyncg::testhelpers;

namespace {

TEST(Stress, DeepPromiseChain) {
  Runtime RT;
  AsyncGBuilder B;
  RT.hooks().attach(&B);
  double Final = 0;
  constexpr int Depth = 5000;
  runMain(RT, [&](Runtime &R) {
    PromiseRef P = R.promiseResolvedWith(JSLOC, Value::number(0));
    for (int I = 0; I < Depth; ++I)
      P = R.promiseThen(JSLOC, P,
                        R.makeBuiltin("inc",
                                      [](Runtime &, const CallArgs &A) {
                                        return Completion::normal(
                                            Value::number(
                                                A.arg(0).asNumber() + 1));
                                      }));
    R.promiseThen(JSLOC, P,
                  R.makeBuiltin("final", [&Final](Runtime &,
                                                  const CallArgs &A) {
                    Final = A.arg(0).asNumber();
                    return Completion::normal();
                  }));
  });
  EXPECT_EQ(Final, Depth);
  // One CE per reaction plus registrations and OBs.
  EXPECT_GT(B.graph().nodeCount(), static_cast<size_t>(2 * Depth));
}

TEST(Stress, ManyTimersFireInDeadlineOrder) {
  Runtime RT;
  std::vector<double> Fired;
  constexpr int N = 5000;
  runMain(RT, [&](Runtime &R) {
    for (int I = 0; I < N; ++I) {
      double Ms = static_cast<double>((I * 7919) % 5000 + 1);
      R.setTimeout(JSLOC,
                   R.makeBuiltin("t",
                                 [&Fired, Ms](Runtime &, const CallArgs &) {
                                   Fired.push_back(Ms);
                                   return Completion::normal();
                                 }),
                   Ms);
    }
  });
  ASSERT_EQ(Fired.size(), static_cast<size_t>(N));
  EXPECT_TRUE(std::is_sorted(Fired.begin(), Fired.end()));
}

TEST(Stress, WideEmitterFanout) {
  Runtime RT;
  int Invocations = 0;
  runMain(RT, [&](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLOC);
    for (int I = 0; I < 1000; ++I)
      R.emitterOn(JSLOC, E, "tick",
                  R.makeBuiltin("l" + std::to_string(I),
                                [&Invocations](Runtime &, const CallArgs &) {
                                  ++Invocations;
                                  return Completion::normal();
                                }));
    for (int I = 0; I < 20; ++I)
      R.emitterEmit(JSLOC, E, "tick");
  });
  EXPECT_EQ(Invocations, 20000);
}

TEST(Stress, AcmeAirGraphInvariantsAtScale) {
  Runtime RT;
  acmeair::AppConfig ACfg;
  acmeair::AcmeAirApp App(RT, ACfg);
  acmeair::WorkloadConfig WCfg;
  WCfg.TotalRequests = 600;
  WCfg.Clients = 8;
  acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);

  AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  RT.hooks().attach(&Builder);

  runMain(RT, [&](Runtime &) {
    App.start(JSLOC);
    Driver.start();
  });
  ASSERT_EQ(Driver.errors(), 0u);

  const AsyncGraph &G = Builder.graph();
  ASSERT_GT(G.nodeCount(), 10000u);

  // The property-test invariants must survive a realistic server run.
  uint32_t PrevTick = 0;
  for (const AgTick &T : G.ticks()) {
    EXPECT_GT(T.Index, PrevTick);
    PrevTick = T.Index;
    EXPECT_FALSE(T.empty());
  }
  for (const AgEdge &E : G.edges()) {
    EXPECT_LT(E.From, G.nodeCount());
    EXPECT_LT(E.To, G.nodeCount());
    if (E.Kind == EdgeKind::Causal) {
      EXPECT_LE(G.node(E.From).Tick, G.node(E.To).Tick);
    }
    if (E.Kind == EdgeKind::Binding) {
      EXPECT_EQ(G.node(E.From).Kind, NodeKind::CE);
      EXPECT_EQ(G.node(E.To).Kind, NodeKind::CR);
    }
  }
  // Every request handler execution is a CE bound to the router CR.
  NodeId RouterCr = InvalidNode;
  for (const AgNode &N : G.nodes())
    if (N.Kind == NodeKind::CR && N.Api == ApiKind::HttpCreateServer)
      RouterCr = N.Id;
  ASSERT_NE(RouterCr, InvalidNode);
  EXPECT_EQ(G.node(RouterCr).ExecCount, 600u);
}

/// The off-thread pipeline under a realistic server workload: the graph the
/// builder thread constructs from ring records must match the inline-built
/// graph byte-for-byte.
TEST(Stress, AcmeAirAsyncPipelineMatchesSync) {
  auto RunServer = [](instr::AnalysisBase &Analysis) {
    Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 300;
    WCfg.Clients = 8;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Analysis);
    runMain(RT, [&](Runtime &) {
      App.start(JSLOC);
      Driver.start();
    });
    ASSERT_EQ(Driver.errors(), 0u);
  };

  AsyncGBuilder Sync;
  RunServer(Sync);

  AsyncGBuilder OffThread;
  {
    ag::AsyncPipeline Pipeline(OffThread);
    RunServer(Pipeline);
    Pipeline.stop();
    EXPECT_GT(Pipeline.pushedRecords(), 10000u);
    EXPECT_EQ(Pipeline.pushedRecords(), Pipeline.consumedRecords());
    EXPECT_EQ(Pipeline.droppedEvents(), 0u);
  }

  EXPECT_EQ(viz::toDot(OffThread.graph()), viz::toDot(Sync.graph()));
}

} // namespace
