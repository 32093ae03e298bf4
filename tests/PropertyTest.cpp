//===- PropertyTest.cpp - property-based tests over random programs ------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random asynchronous programs (mixes of nextTick, timers,
/// immediates, promises, and emitters, nested to random depth) and checks
/// structural invariants of the runtime and the Async Graph over many
/// seeds:
///
///  I1. The loop terminates and every once-scheduled callback ran exactly
///      once.
///  I2. Every CE node has exactly one binding edge, pointing to a CR.
///  I3. Committed ticks have strictly increasing indices and are
///      non-empty.
///  I4. Causal edges never point backwards in time (source tick <= CE
///      tick).
///  I5. Micro-task priority: within the trace, a nextTick callback
///      scheduled in tick T runs before any promise reaction scheduled in
///      the same tick T.
///  I6. The builder is deterministic: node/edge/tick counts are identical
///      across two runs with the same seed.
///  I7. Every warning is anchored to a node that exists (or to none).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/Builder.h"
#include "detect/Detectors.h"
#include "sim/Random.h"

#include <gtest/gtest.h>

#include <memory>

using namespace asyncg;
using namespace asyncg::ag;
using namespace asyncg::jsrt;
using namespace asyncg::testhelpers;

namespace {

/// Trace entry: (sched-tick, phase, action id).
struct TraceEntry {
  uint64_t ScheduledInTick;
  PhaseKind Phase;
  int Action;
};

/// Random-program driver state shared by all generated callbacks.
struct GenState {
  sim::Random Rng;
  int Budget; // remaining actions to schedule
  std::vector<TraceEntry> Trace;
  std::vector<EmitterRef> Emitters;
  std::vector<PromiseRef> Pending;
  int Scheduled = 0;
  int Executed = 0;

  explicit GenState(uint64_t Seed, int Budget)
      : Rng(Seed), Budget(Budget) {}
};

void scheduleRandom(Runtime &R, const std::shared_ptr<GenState> &S,
                    int Depth);

/// A callback that records execution and maybe schedules more work.
Function genCallback(Runtime &R, const std::shared_ptr<GenState> &S,
                     int Depth, int Action) {
  uint64_t Now = R.tickCount();
  return R.makeFunction(
      "gen" + std::to_string(Action), JSLINE("gen.js", Action % 97 + 1),
      [S, Depth, Action, Now](Runtime &R2, const CallArgs &) {
        ++S->Executed;
        S->Trace.push_back(TraceEntry{Now, R2.currentPhase(), Action});
        if (Depth < 4 && S->Budget > 0)
          scheduleRandom(R2, S, Depth + 1);
        return Completion::normal();
      });
}

void scheduleRandom(Runtime &R, const std::shared_ptr<GenState> &S,
                    int Depth) {
  int Ops = static_cast<int>(S->Rng.nextInt(1, 3));
  for (int I = 0; I < Ops && S->Budget > 0; ++I) {
    --S->Budget;
    int Action = S->Scheduled++;
    switch (S->Rng.nextInt(0, 7)) {
    case 0:
      R.nextTick(JSLINE("gen.js", 1), genCallback(R, S, Depth, Action));
      break;
    case 7:
      R.queueMicrotask(JSLINE("gen.js", 14),
                       genCallback(R, S, Depth, Action));
      break;
    case 1:
      R.setTimeout(JSLINE("gen.js", 2), genCallback(R, S, Depth, Action),
                   static_cast<double>(S->Rng.nextInt(0, 20)));
      break;
    case 2:
      R.setImmediate(JSLINE("gen.js", 3), genCallback(R, S, Depth, Action));
      break;
    case 3: { // promise then-chain
      PromiseRef P = R.promiseResolvedWith(
          JSLINE("gen.js", 4), Value::number(static_cast<double>(Action)));
      PromiseRef D =
          R.promiseThen(JSLINE("gen.js", 5), P,
                        genCallback(R, S, Depth, Action));
      R.promiseCatch(JSLINE("gen.js", 6), D,
                     R.makeBuiltin("c", [](Runtime &, const CallArgs &) {
                       return Completion::normal();
                     }));
      break;
    }
    case 4: { // emitter listener + deferred emit
      EmitterRef E = R.emitterCreate(JSLINE("gen.js", 7));
      S->Emitters.push_back(E);
      R.emitterOn(JSLINE("gen.js", 8), E, "evt",
                  genCallback(R, S, Depth, Action));
      R.setImmediate(JSLINE("gen.js", 9),
                     R.makeBuiltin("emitLater",
                                   [E](Runtime &R3, const CallArgs &) {
                                     R3.emitterEmit(JSLINE("gen.js", 9), E,
                                                    "evt");
                                     return Completion::normal();
                                   }));
      break;
    }
    case 5: { // deferred promise resolution (either outcome runs the cb)
      PromiseRef P = R.promiseBare(JSLINE("gen.js", 10));
      S->Pending.push_back(P);
      Function Cb = genCallback(R, S, Depth, Action);
      R.promiseThen(JSLINE("gen.js", 11), P, Cb, Cb);
      R.setTimeout(JSLINE("gen.js", 12),
                   R.makeBuiltin("resolveLater",
                                 [P, S](Runtime &R3, const CallArgs &) {
                                   if (S->Rng.nextBool())
                                     R3.resolvePromise(JSLINE("gen.js", 12),
                                                       P, Value::number(1));
                                   else
                                     R3.rejectPromise(JSLINE("gen.js", 12),
                                                      P, Value::str("e"));
                                   return Completion::normal();
                                 }),
                   static_cast<double>(S->Rng.nextInt(1, 10)));
      break;
    }
    default: // close-phase callback
      R.scheduleCloseCallback(JSLINE("gen.js", 13),
                              genCallback(R, S, Depth, Action), {},
                              /*Internal=*/false);
      break;
    }
  }
}

struct RunResult {
  std::shared_ptr<GenState> S;
  size_t Nodes = 0;
  size_t Edges = 0;
  size_t Ticks = 0;
  std::unique_ptr<AsyncGBuilder> Builder;
};

RunResult runSeed(uint64_t Seed) {
  RunResult Out;
  Out.S = std::make_shared<GenState>(Seed, 40);
  Out.Builder = std::make_unique<AsyncGBuilder>();
  Runtime RT;
  RT.hooks().attach(Out.Builder.get());
  auto S = Out.S;
  runMain(RT, [S](Runtime &R) { scheduleRandom(R, S, 0); });
  Out.Nodes = Out.Builder->graph().nodeCount();
  Out.Edges = Out.Builder->graph().edges().size();
  Out.Ticks = Out.Builder->graph().ticks().size();
  return Out;
}

class RandomPrograms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPrograms, InvariantsHold) {
  RunResult R = runSeed(GetParam());
  const AsyncGraph &G = R.Builder->graph();

  // I1: termination (we got here) and full execution coverage: every
  // promise was eventually settled and every generated callback either ran
  // or was an emitter listener whose deferred emit covered it.
  EXPECT_EQ(R.S->Executed, R.S->Scheduled);

  // I2: every CE has exactly one binding edge pointing to a CR (internal
  // root CEs have none).
  for (const AgNode &N : G.nodes()) {
    if (N.Kind != NodeKind::CE)
      continue;
    size_t Bindings = 0;
    for (uint32_t E : G.outEdges(N.Id)) {
      if (G.edge(E).Kind == EdgeKind::Binding) {
        ++Bindings;
        EXPECT_EQ(G.node(G.edge(E).To).Kind, NodeKind::CR);
      }
    }
    if (N.Sched != 0)
      EXPECT_EQ(Bindings, 1u) << nodeLabel(N);
    else
      EXPECT_EQ(Bindings, 0u) << nodeLabel(N);
  }

  // I3: ticks strictly increasing and non-empty.
  uint32_t PrevIdx = 0;
  for (const AgTick &T : G.ticks()) {
    EXPECT_GT(T.Index, PrevIdx);
    PrevIdx = T.Index;
    EXPECT_FALSE(T.empty());
  }

  // I4: causal edges flow forward in time.
  for (const AgEdge &E : G.edges()) {
    if (E.Kind != EdgeKind::Causal)
      continue;
    EXPECT_LE(G.node(E.From).Tick, G.node(E.To).Tick);
  }

  // I7: warnings anchor to real nodes.
  for (const Warning &W : G.warnings()) {
    if (W.Node != InvalidNode) {
      EXPECT_LT(W.Node, G.nodeCount());
    }
  }
}

TEST_P(RandomPrograms, BuilderIsDeterministic) {
  RunResult A = runSeed(GetParam());
  RunResult B = runSeed(GetParam());
  EXPECT_EQ(A.Nodes, B.Nodes);
  EXPECT_EQ(A.Edges, B.Edges);
  EXPECT_EQ(A.Ticks, B.Ticks);
  EXPECT_EQ(A.S->Executed, B.S->Executed);
  ASSERT_EQ(A.S->Trace.size(), B.S->Trace.size());
  for (size_t I = 0; I < A.S->Trace.size(); ++I) {
    EXPECT_EQ(A.S->Trace[I].Action, B.S->Trace[I].Action);
    EXPECT_EQ(A.S->Trace[I].Phase, B.S->Trace[I].Phase);
  }
}

TEST_P(RandomPrograms, MicrotaskPriorityObserved) {
  // Run with detectors too: exercises the online analyses on random input
  // without crashing or violating dedup invariants.
  Runtime RT;
  AsyncGBuilder Builder;
  detect::DetectorSuite Suite;
  Suite.attachTo(Builder);
  RT.hooks().attach(&Builder);
  auto S = std::make_shared<GenState>(GetParam() ^ 0x5a5a, 30);
  runMain(RT, [S](Runtime &R) { scheduleRandom(R, S, 0); });
  EXPECT_EQ(S->Executed, S->Scheduled);

  // I5: for actions scheduled in the same tick, nexttick-phase entries
  // precede promise-phase entries in the trace.
  for (size_t I = 0; I < S->Trace.size(); ++I) {
    for (size_t J = I + 1; J < S->Trace.size(); ++J) {
      if (S->Trace[I].ScheduledInTick != S->Trace[J].ScheduledInTick)
        continue;
      if (S->Trace[I].Phase == PhaseKind::PromiseMicro &&
          S->Trace[J].Phase == PhaseKind::NextTick) {
        // A promise reaction ran before a nextTick from the same tick:
        // only legal if the nextTick was scheduled later (by that very
        // promise reaction); both were scheduled in the same tick per the
        // filter above, so this must not happen for direct scheduling.
        // Because our generator schedules both directly, flag it.
        ADD_FAILURE() << "promise reaction overtook nextTick from tick "
                      << S->Trace[I].ScheduledInTick;
      }
    }
  }
}

TEST_P(RandomPrograms, InstrumentationIsTransparent) {
  // §III challenge: "The implementation should be transparent to the
  // application so that it causes no side-effects". The same seed must
  // produce the identical execution trace with and without AsyncG (and
  // all detectors) attached.
  auto Observed = std::make_shared<GenState>(GetParam(), 40);
  {
    Runtime RT;
    AsyncGBuilder Builder;
    detect::DetectorSuite Suite;
    Suite.attachTo(Builder);
    RT.hooks().attach(&Builder);
    runMain(RT, [Observed](Runtime &R) { scheduleRandom(R, Observed, 0); });
  }
  auto Plain = std::make_shared<GenState>(GetParam(), 40);
  {
    Runtime RT;
    runMain(RT, [Plain](Runtime &R) { scheduleRandom(R, Plain, 0); });
  }
  ASSERT_EQ(Observed->Trace.size(), Plain->Trace.size());
  for (size_t I = 0; I < Plain->Trace.size(); ++I) {
    EXPECT_EQ(Observed->Trace[I].Action, Plain->Trace[I].Action) << I;
    EXPECT_EQ(Observed->Trace[I].Phase, Plain->Trace[I].Phase) << I;
    EXPECT_EQ(Observed->Trace[I].ScheduledInTick,
              Plain->Trace[I].ScheduledInTick)
        << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233, 377, 610, 987));

} // namespace
