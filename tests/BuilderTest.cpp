//===- BuilderTest.cpp - Async Graph construction tests (Algorithms 1-3) ------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/Builder.h"
#include "ag/Templates.h"
#include "ag/Validator.h"

#include <gtest/gtest.h>

using namespace asyncg;
using namespace asyncg::ag;
using namespace asyncg::jsrt;
using namespace asyncg::testhelpers;

namespace {

/// Runs \p Body under a fresh builder and returns it.
std::unique_ptr<AsyncGBuilder> build(std::function<void(Runtime &)> Body,
                                     BuilderConfig Cfg = BuilderConfig()) {
  auto B = std::make_unique<AsyncGBuilder>(Cfg);
  Runtime RT;
  RT.hooks().attach(B.get());
  runMain(RT, std::move(Body));
  return B;
}

/// First node of the given kind, or nullptr.
const AgNode *firstNode(const AsyncGraph &G, NodeKind K,
                        ApiKind Api = ApiKind::None) {
  for (const AgNode &N : G.nodes())
    if (N.Kind == K && (Api == ApiKind::None || N.Api == Api))
      return &N;
  return nullptr;
}

size_t countNodes(const AsyncGraph &G, NodeKind K) {
  size_t C = 0;
  for (const AgNode &N : G.nodes())
    C += N.Kind == K;
  return C;
}

TEST(Builder, TicksStartAtTopLevelDispatchOnly) {
  auto B = build([](Runtime &R) {
    // A nested plain call must not open a tick (Algorithm 1: the shadow
    // stack is non-empty).
    Function Inner = R.makeBuiltin("inner", [](Runtime &, const CallArgs &) {
      return Completion::normal();
    });
    R.call(Inner);
    R.nextTick(JSLOC, R.makeBuiltin("t", [](Runtime &, const CallArgs &) {
      return Completion::normal();
    }));
  });
  const AsyncGraph &G = B->graph();
  ASSERT_EQ(G.ticks().size(), 2u);
  EXPECT_EQ(G.ticks()[0].Phase, PhaseKind::Main);
  EXPECT_EQ(G.ticks()[0].Index, 1u);
  EXPECT_EQ(G.ticks()[1].Phase, PhaseKind::NextTick);
}

TEST(Builder, EmptyTicksAreNotCommitted) {
  // A callback that performs no tracked activity still executes, but with
  // BuildGraph the CE roots the tick — so instead check the nopromise
  // filter: promise-only micro ticks vanish entirely.
  BuilderConfig Cfg;
  Cfg.TrackPromises = false;
  auto B = build(
      [](Runtime &R) {
        PromiseRef P = R.promiseResolvedWith(JSLOC, Value::number(1));
        R.promiseThen(JSLOC, P,
                      R.makeBuiltin("r", [](Runtime &, const CallArgs &) {
                        return Completion::normal();
                      }));
      },
      Cfg);
  for (const AgTick &T : B->graph().ticks())
    EXPECT_NE(T.Phase, PhaseKind::PromiseMicro);
}

TEST(Builder, CeBindsToCrWithBothEdges) {
  auto B = build([](Runtime &R) {
    R.setTimeout(JSLOC,
                 R.makeFunction("cb", JSLINE("t.js", 2),
                                [](Runtime &, const CallArgs &) {
                                  return Completion::normal();
                                }),
                 5);
  });
  const AsyncGraph &G = B->graph();
  const AgNode *Cr = firstNode(G, NodeKind::CR, ApiKind::SetTimeout);
  ASSERT_NE(Cr, nullptr);
  EXPECT_EQ(Cr->ExecCount, 1u);
  auto Execs = G.executionsOf(Cr->Sched);
  ASSERT_EQ(Execs.size(), 1u);
  const AgNode &Ce = G.node(Execs.front());
  EXPECT_EQ(Ce.Kind, NodeKind::CE);
  EXPECT_GT(Ce.Tick, Cr->Tick);

  // Dashed binding edge CE -> CR and causal edge CR -> CE.
  bool Binding = false, Causal = false;
  for (uint32_t E : G.outEdges(Ce.Id))
    Binding |= G.edge(E).Kind == EdgeKind::Binding && G.edge(E).To == Cr->Id;
  for (uint32_t E : G.inEdges(Ce.Id))
    Causal |= G.edge(E).Kind == EdgeKind::Causal && G.edge(E).From == Cr->Id;
  EXPECT_TRUE(Binding);
  EXPECT_TRUE(Causal);
}

TEST(Builder, EmitProducesCtWithCausalEdgesToListeners) {
  auto B = build([](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLINE("t.js", 1));
    R.emitterOn(JSLINE("t.js", 2), E, "x",
                R.makeFunction("l1", JSLINE("t.js", 2),
                               [](Runtime &, const CallArgs &) {
                                 return Completion::normal();
                               }));
    R.emitterOn(JSLINE("t.js", 3), E, "x",
                R.makeFunction("l2", JSLINE("t.js", 3),
                               [](Runtime &, const CallArgs &) {
                                 return Completion::normal();
                               }));
    R.emitterEmit(JSLINE("t.js", 4), E, "x");
  });
  const AsyncGraph &G = B->graph();
  const AgNode *Ct = firstNode(G, NodeKind::CT, ApiKind::EmitterEmit);
  ASSERT_NE(Ct, nullptr);
  EXPECT_TRUE(Ct->HadEffect);
  EXPECT_EQ(Ct->Event, "x");

  // Two CE nodes, both caused by the CT (star -> circle).
  size_t CausedCes = 0;
  for (uint32_t E : G.outEdges(Ct->Id)) {
    const AgEdge &Edge = G.edge(E);
    if (Edge.Kind == EdgeKind::Causal &&
        G.node(Edge.To).Kind == NodeKind::CE)
      ++CausedCes;
  }
  EXPECT_EQ(CausedCes, 2u);

  // Everything happened in the main tick (emit is synchronous).
  for (const AgNode &N : G.nodes())
    EXPECT_EQ(N.Tick, 1u);
}

TEST(Builder, HappensInEdgesFromEnclosingCe) {
  auto B = build([](Runtime &R) {
    R.nextTick(JSLOC,
               R.makeFunction("outer", JSLINE("t.js", 1),
                              [](Runtime &R2, const CallArgs &) {
                                R2.setImmediate(
                                    JSLINE("t.js", 2),
                                    R2.makeBuiltin("inner",
                                                   [](Runtime &,
                                                      const CallArgs &) {
                                                     return Completion::
                                                         normal();
                                                   }));
                                return Completion::normal();
                              }));
  });
  const AsyncGraph &G = B->graph();
  const AgNode *OuterCe = firstNode(G, NodeKind::CE, ApiKind::NextTick);
  const AgNode *ImmCr = firstNode(G, NodeKind::CR, ApiKind::SetImmediate);
  ASSERT_NE(OuterCe, nullptr);
  ASSERT_NE(ImmCr, nullptr);
  bool HappensIn = false;
  for (uint32_t E : G.outEdges(OuterCe->Id)) {
    const AgEdge &Edge = G.edge(E);
    HappensIn |=
        Edge.Kind == EdgeKind::HappensIn && Edge.To == ImmCr->Id;
  }
  EXPECT_TRUE(HappensIn);
  EXPECT_EQ(ImmCr->Tick, OuterCe->Tick);
}

TEST(Builder, PromiseChainRelationEdges) {
  auto B = build([](Runtime &R) {
    PromiseRef P = R.promiseResolvedWith(JSLINE("t.js", 1), Value::number(0));
    PromiseRef P2 = R.promiseThen(
        JSLINE("t.js", 2), P,
        R.makeBuiltin("a", [](Runtime &, const CallArgs &A) {
          return Completion::normal(A.arg(0));
        }));
    R.promiseCatch(JSLINE("t.js", 3), P2,
                   R.makeBuiltin("b", [](Runtime &, const CallArgs &) {
                     return Completion::normal();
                   }));
  });
  const AsyncGraph &G = B->graph();
  ASSERT_EQ(countNodes(G, NodeKind::OB), 3u);
  NodeId Root = InvalidNode;
  for (const AgNode &N : G.nodes())
    if (N.Kind == NodeKind::OB && G.parentPromise(N.Id) == InvalidNode)
      Root = N.Id;
  ASSERT_NE(Root, InvalidNode);
  auto Level1 = G.derivedPromises(Root);
  ASSERT_EQ(Level1.size(), 1u);
  auto Level2 = G.derivedPromises(Level1.front());
  ASSERT_EQ(Level2.size(), 1u);
  EXPECT_TRUE(G.derivedPromises(Level2.front()).empty());
  EXPECT_EQ(G.parentPromise(Level1.front()), Root);

  // "then"-filtered derivation distinguishes the catch step.
  EXPECT_EQ(G.derivedPromises(Root, "then").size(), 1u);
  EXPECT_EQ(G.derivedPromises(Level1.front(), "then").size(), 0u);
}

TEST(Builder, LinkEdgeWhenReactionReturnsPromise) {
  auto B = build([](Runtime &R) {
    PromiseRef P = R.promiseResolvedWith(JSLOC, Value::number(0));
    R.promiseThen(JSLOC, P,
                  R.makeBuiltin("makesPromise",
                                [](Runtime &R2, const CallArgs &) {
                                  PromiseRef Inner = R2.promiseResolvedWith(
                                      JSLOC, Value::number(1));
                                  return Completion::normal(
                                      Value::promise(Inner));
                                }));
  });
  const AsyncGraph &G = B->graph();
  bool SawLink = false;
  for (const AgEdge &E : G.edges())
    SawLink |= E.Kind == EdgeKind::Relation && E.Label == "link";
  EXPECT_TRUE(SawLink);
}

TEST(Builder, CombinatorRelationEdges) {
  auto B = build([](Runtime &R) {
    PromiseRef A = R.promiseResolvedWith(JSLOC, Value::number(1));
    PromiseRef Bp = R.promiseResolvedWith(JSLOC, Value::number(2));
    R.promiseAll(JSLOC, {A, Bp});
  });
  const AsyncGraph &G = B->graph();
  size_t AllEdges = 0;
  for (const AgEdge &E : G.edges())
    AllEdges += E.Kind == EdgeKind::Relation && E.Label == "Promise.all";
  EXPECT_EQ(AllEdges, 2u);
}

TEST(Builder, ListenerRegistrationRelationEdge) {
  auto B = build([](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLINE("t.js", 1), "Bus");
    R.emitterOn(JSLINE("t.js", 2), E, "msg",
                R.makeBuiltin("l", [](Runtime &, const CallArgs &) {
                  return Completion::normal();
                }));
  });
  const AsyncGraph &G = B->graph();
  const AgNode *Ob = firstNode(G, NodeKind::OB);
  const AgNode *Cr = firstNode(G, NodeKind::CR, ApiKind::EmitterOn);
  ASSERT_NE(Ob, nullptr);
  ASSERT_NE(Cr, nullptr);
  bool Edge = false;
  for (uint32_t EI : G.outEdges(Ob->Id)) {
    const AgEdge &E = G.edge(EI);
    Edge |= E.Kind == EdgeKind::Relation && E.To == Cr->Id &&
            E.Label == "msg";
  }
  EXPECT_TRUE(Edge);
}

TEST(Builder, RemovedListenersAreMarked) {
  auto B = build([](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLOC);
    Function L = R.makeBuiltin("l", [](Runtime &, const CallArgs &) {
      return Completion::normal();
    });
    R.emitterOn(JSLINE("t.js", 2), E, "x", L);
    R.emitterRemoveListener(JSLINE("t.js", 3), E, "x", L);
  });
  const AgNode *Cr =
      firstNode(B->graph(), NodeKind::CR, ApiKind::EmitterOn);
  ASSERT_NE(Cr, nullptr);
  EXPECT_TRUE(Cr->Removed);
}

TEST(Builder, DeadEmitCtFlagged) {
  auto B = build([](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLOC);
    R.emitterEmit(JSLINE("t.js", 5), E, "ghost");
  });
  const AgNode *Ct =
      firstNode(B->graph(), NodeKind::CT, ApiKind::EmitterEmit);
  ASSERT_NE(Ct, nullptr);
  EXPECT_FALSE(Ct->HadEffect);
}

TEST(Builder, NopromiseModeSkipsPromiseNodes) {
  BuilderConfig Cfg;
  Cfg.TrackPromises = false;
  auto B = build(
      [](Runtime &R) {
        PromiseRef P = R.promiseResolvedWith(JSLOC, Value::number(1));
        R.promiseThen(JSLOC, P,
                      R.makeBuiltin("r", [](Runtime &, const CallArgs &) {
                        return Completion::normal();
                      }));
        R.nextTick(JSLOC, R.makeBuiltin("t", [](Runtime &, const CallArgs &) {
          return Completion::normal();
        }));
      },
      Cfg);
  const AsyncGraph &G = B->graph();
  EXPECT_EQ(countNodes(G, NodeKind::OB), 0u);
  for (const AgNode &N : G.nodes())
    EXPECT_FALSE(isPromiseApi(N.Api)) << nodeLabel(N);
  // nextTick still tracked.
  EXPECT_NE(firstNode(G, NodeKind::CR, ApiKind::NextTick), nullptr);
}

TEST(Builder, BuildGraphOffOnlyCountsTicks) {
  BuilderConfig Cfg;
  Cfg.BuildGraph = false;
  auto B = build(
      [](Runtime &R) {
        R.nextTick(JSLOC, R.makeBuiltin("t", [](Runtime &, const CallArgs &) {
          return Completion::normal();
        }));
      },
      Cfg);
  EXPECT_EQ(B->graph().nodeCount(), 0u);
  EXPECT_EQ(B->ticksOpened(), 2u);
}

TEST(Builder, InternalIoDispatcherRootsItsTick) {
  auto B = build([](Runtime &R) {
    R.kernel().submit(10, [&R] {
      R.dispatchInternal("(test io)", [](Runtime &) {});
    });
  });
  const AsyncGraph &G = B->graph();
  ASSERT_EQ(G.ticks().size(), 2u);
  EXPECT_EQ(G.ticks()[1].Phase, PhaseKind::Io);
  const AgNode &Root = G.node(G.tickNodes(G.ticks()[1]).front());
  EXPECT_EQ(Root.Kind, NodeKind::CE);
  EXPECT_TRUE(Root.Internal);
}

TEST(Builder, AwaitAppearsAsRegistrationAndResumption) {
  // Table II: AsyncG supports async/await — awaits are CRs bound to the
  // awaited promise, and resumptions are CEs in promise ticks.
  AsyncGBuilder B;
  Runtime RT;
  RT.hooks().attach(&B);
  runMain(RT, [](Runtime &R) {
    PromiseRef P = R.promiseBare(JSLINE("aw.js", 1));
    R.promiseAwait(JSLINE("aw.js", 2), P, "myAsyncFn",
                   [](Runtime &, Value, bool) {});
    R.setTimeout(JSLINE("aw.js", 3),
                 R.makeBuiltin("resolver",
                               [P](Runtime &R2, const CallArgs &) {
                                 R2.resolvePromise(JSLINE("aw.js", 3), P,
                                                   Value::number(1));
                                 return Completion::normal();
                               }),
                 1);
  });
  const AsyncGraph &G = B.graph();
  const AgNode *Cr = firstNode(G, NodeKind::CR, ApiKind::Await);
  ASSERT_NE(Cr, nullptr);
  EXPECT_TRUE(Cr->HasRejectHandler); // await forwards rejections
  EXPECT_NE(Cr->Obj, 0u);
  auto Execs = G.executionsOf(Cr->Sched);
  ASSERT_EQ(Execs.size(), 1u);
  const AgNode &Ce = G.node(Execs.front());
  EXPECT_NE(nodeLabel(Ce).find("myAsyncFn (resumed)"), std::string::npos);
  // The resumption runs in a promise micro-tick.
  for (const AgTick &T : G.ticks()) {
    if (T.Index == Ce.Tick) {
      EXPECT_EQ(T.Phase, PhaseKind::PromiseMicro);
    }
  }
}

TEST(Builder, MainTickHoldsMainCe) {
  auto B = build([](Runtime &) {});
  const AsyncGraph &G = B->graph();
  ASSERT_EQ(G.ticks().size(), 1u);
  EXPECT_EQ(G.ticks()[0].name(), "t1: main");
  EXPECT_EQ(G.node(G.tickNodes(G.ticks()[0]).front()).Kind, NodeKind::CE);
}

//===----------------------------------------------------------------------===//
// Context validator unit tests (Algorithm 3, contextual path)
//===----------------------------------------------------------------------===//

TEST(Validator, SelfSchedulingMatchesByPhase) {
  PendingReg Reg;
  Reg.Api = ApiKind::NextTick;
  Reg.TargetPhase = PhaseKind::NextTick;
  DispatchInfo D; // no Sched: force the contextual path
  EXPECT_TRUE(
      ContextValidator::isValid(Reg, D, PhaseKind::NextTick));
  EXPECT_FALSE(ContextValidator::isValid(Reg, D, PhaseKind::Timers));
}

TEST(Validator, EmitterListenerNeedsMatchingTrigger) {
  PendingReg Reg;
  Reg.Api = ApiKind::EmitterOn;
  Reg.BoundObj = 5;
  Reg.Event = "data";
  DispatchInfo D;
  D.Trigger.K = TriggerInfo::Kind::Emitter;
  D.Trigger.Obj = 5;
  D.Trigger.Event = "data";
  EXPECT_TRUE(ContextValidator::contextMatches(Reg, D, PhaseKind::Io));
  D.Trigger.Event = "end";
  EXPECT_FALSE(ContextValidator::contextMatches(Reg, D, PhaseKind::Io));
  D.Trigger.Event = "data";
  D.Trigger.Obj = 6;
  EXPECT_FALSE(ContextValidator::contextMatches(Reg, D, PhaseKind::Io));
}

TEST(Validator, PromiseReactionNeedsPromiseTriggerInMicroTick) {
  PendingReg Reg;
  Reg.Api = ApiKind::PromiseThen;
  Reg.TargetPhase = PhaseKind::PromiseMicro;
  Reg.BoundObj = 9;
  DispatchInfo D;
  D.Trigger.K = TriggerInfo::Kind::Promise;
  D.Trigger.Obj = 9;
  EXPECT_TRUE(
      ContextValidator::contextMatches(Reg, D, PhaseKind::PromiseMicro));
  EXPECT_FALSE(
      ContextValidator::contextMatches(Reg, D, PhaseKind::NextTick));
  D.Trigger.Obj = 10;
  EXPECT_FALSE(
      ContextValidator::contextMatches(Reg, D, PhaseKind::PromiseMicro));
}

TEST(Validator, SchedIdIsAuthoritativeWhenPresent) {
  PendingReg Reg;
  Reg.Sched = 3;
  Reg.Api = ApiKind::SetTimeout;
  Reg.TargetPhase = PhaseKind::Timers;
  DispatchInfo D;
  D.Sched = 3;
  EXPECT_TRUE(ContextValidator::isValid(Reg, D, PhaseKind::Timers));
  D.Sched = 4;
  EXPECT_FALSE(ContextValidator::isValid(Reg, D, PhaseKind::Timers));
}

TEST(Builder, ContextualMappingWithoutSchedHints) {
  // Algorithm 3 without registration-id hints: synthetic events where the
  // dispatch carries Sched=0 force the purely contextual validator path.
  // The same callback function is registered on two different emitters;
  // the trigger context must select the right CR.
  AsyncGBuilder B;
  jsrt::CallArgs NoArgs;
  jsrt::Completion Ok;

  auto Fn = std::make_shared<jsrt::FunctionData>();
  Fn->Id = 77;
  Fn->Name = "sharedListener";
  jsrt::Function F(Fn);

  auto registerOn = [&](ObjectId Obj, ScheduleId Sched) {
    instr::ObjectCreateEvent OE;
    OE.Obj = Obj;
    OE.Name = "EventEmitter";
    B.onObjectCreate(OE);
    instr::ApiCallEvent Reg;
    Reg.Api = ApiKind::EmitterOn;
    Reg.Sched = Sched;
    Reg.Callbacks = {F};
    Reg.Once = false;
    Reg.BoundObj = Obj;
    Reg.EventName = "data";
    B.onApiCall(Reg);
  };
  registerOn(100, 1);
  registerOn(200, 2);

  // Emission on emitter 200: the execution context names the emitter and
  // event, but no registration id.
  instr::ApiCallEvent Emit;
  Emit.Api = ApiKind::EmitterEmit;
  Emit.BoundObj = 200;
  Emit.EventName = "data";
  Emit.Trigger = 9;
  Emit.TriggerHadEffect = true;
  B.onApiCall(Emit);

  jsrt::DispatchInfo D;
  D.Phase = PhaseKind::Io;
  D.TopLevel = true;
  D.Sched = 0; // contextual matching only
  D.Api = ApiKind::EmitterOn;
  D.Trigger.K = jsrt::TriggerInfo::Kind::Emitter;
  D.Trigger.Id = 9;
  D.Trigger.Obj = 200;
  D.Trigger.Event = "data";
  B.onFunctionEnter(instr::FunctionEnterEvent{F, NoArgs, D});
  B.onFunctionExit(instr::FunctionExitEvent{F, Ok, D});
  B.onLoopEnd(instr::LoopEndEvent{1, false});

  const AsyncGraph &G = B.graph();
  NodeId Cr1 = G.registrationNode(1);
  NodeId Cr2 = G.registrationNode(2);
  ASSERT_NE(Cr1, InvalidNode);
  ASSERT_NE(Cr2, InvalidNode);
  // The CE bound to the emitter-200 registration, not the emitter-100 one.
  EXPECT_EQ(G.node(Cr1).ExecCount, 0u);
  EXPECT_EQ(G.node(Cr2).ExecCount, 1u);
  auto Execs = G.executionsOf(2);
  ASSERT_EQ(Execs.size(), 1u);
  EXPECT_EQ(G.node(Execs.front()).Obj, 200u);
}

TEST(Templates, ClassificationMatchesApiFamilies) {
  EXPECT_EQ(getAsyncTemplate(ApiKind::NextTick).Kind,
            TemplateKind::Registration);
  EXPECT_EQ(getAsyncTemplate(ApiKind::FsReadFile).Kind,
            TemplateKind::Registration);
  EXPECT_TRUE(getAsyncTemplate(ApiKind::FsReadFile).External);
  EXPECT_FALSE(getAsyncTemplate(ApiKind::NextTick).External);
  EXPECT_EQ(getAsyncTemplate(ApiKind::EmitterEmit).Kind,
            TemplateKind::Trigger);
  EXPECT_EQ(getAsyncTemplate(ApiKind::PromiseAll).Kind,
            TemplateKind::Combinator);
  EXPECT_EQ(getAsyncTemplate(ApiKind::EmitterRemoveListener).Kind,
            TemplateKind::Misc);
}

} // namespace
