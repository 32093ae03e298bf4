//===- DetectorDispatchTest.cpp - dispatch table and decode-path parity ------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The DetectorSuite routes each graph event through a table built from the
// detectors' subscriptions. These tests pin that routing to the reference
// semantics: the suite must report exactly what the same detectors report
// when each is attached to the builder directly (every event delivered).
// They also pin the event paths against each other — inline hooks, the
// async pipeline and a recorded trace's replay must produce the same
// warning text — and the global symbol table's growth under retirement.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/AsyncPipeline.h"
#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace asyncg::cases;

namespace {

/// Every warning in report order, with everything a report prints.
std::vector<std::string> warningTexts(const ag::AsyncGraph &G) {
  std::vector<std::string> Out;
  for (const ag::Warning &W : G.warnings())
    Out.push_back(std::string(ag::bugCategoryName(W.Category)) + ": " +
                  W.Message.str() + " @ " + W.Loc.str() + " t" +
                  std::to_string(W.Tick));
  return Out;
}

/// How the detectors are attached to the builder.
enum class Attach { Suite, Members };

void attach(detect::DetectorSuite &S, ag::AsyncGBuilder &B, Attach How) {
  if (How == Attach::Suite) {
    S.attachTo(B);
    return;
  }
  for (ag::GraphObserver *D : S.detectors())
    B.addObserver(D);
}

std::vector<std::string> runCaseAttached(const CaseDef &Def, bool Fixed,
                                         Attach How) {
  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  attach(Detectors, Builder, How);
  runCaseWith(Def, Fixed, Builder);
  return warningTexts(Builder.graph());
}

/// Runs AcmeAir for \p Requests with \p Analysis attached; returns the
/// number of completed requests.
uint64_t runAcmeAir(uint64_t Requests, instr::AnalysisBase &Analysis) {
  Runtime RT;
  acmeair::AppConfig ACfg;
  acmeair::AcmeAirApp App(RT, ACfg);
  acmeair::WorkloadConfig WCfg;
  WCfg.TotalRequests = Requests;
  WCfg.Clients = 4;
  acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
  RT.hooks().attach(&Analysis);
  Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
    App.start(JSLOC);
    Driver.start();
    return Completion::normal();
  });
  RT.main(Main);
  return Driver.completed();
}

std::vector<std::string> runAcmeAirAttached(Attach How, bool Retire) {
  ag::BuilderConfig BCfg;
  BCfg.Retire = Retire;
  ag::AsyncGBuilder Builder(BCfg);
  detect::DetectorSuite Detectors;
  attach(Detectors, Builder, How);
  EXPECT_EQ(runAcmeAir(300, Builder), 300u);
  return warningTexts(Builder.graph());
}

} // namespace

//===----------------------------------------------------------------------===//
// Dispatch table == direct attachment
//===----------------------------------------------------------------------===//

TEST(DetectorDispatch, TableOneSuiteMatchesDirectAttachment) {
  size_t Compared = 0;
  for (const CaseDef &Def : allCases())
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      std::vector<std::string> Suite =
          runCaseAttached(Def, Fixed, Attach::Suite);
      EXPECT_EQ(Suite, runCaseAttached(Def, Fixed, Attach::Members))
          << Def.Name << (Fixed ? " (fixed)" : "");
      Compared += Suite.size();
    }
  EXPECT_GT(Compared, 15u);
}

TEST(DetectorDispatch, AcmeAirSuiteMatchesDirectAttachment) {
  for (bool Retire : {false, true}) {
    std::vector<std::string> Suite = runAcmeAirAttached(Attach::Suite, Retire);
    EXPECT_FALSE(Suite.empty());
    EXPECT_EQ(Suite, runAcmeAirAttached(Attach::Members, Retire))
        << (Retire ? "retire" : "full graph");
  }
}

TEST(DetectorDispatch, DisableRemovesDetectorFromEveryHook) {
  detect::DetectorSuite Probe;
  std::vector<ag::GraphObserver *> All = Probe.detectors();
  ASSERT_EQ(All.size(), 10u);
  for (size_t I = 0; I != All.size(); ++I) {
    detect::DetectorSuite S;
    ag::GraphObserver *D = S.detectors()[I];
    EXPECT_TRUE(S.dispatchesTo(D)) << D->observerName();
    S.disable(D);
    EXPECT_FALSE(S.dispatchesTo(D)) << D->observerName();
    EXPECT_EQ(S.detectors().size(), All.size() - 1);
    // The rebuilt table keeps routing to everyone else.
    for (ag::GraphObserver *Other : S.detectors())
      EXPECT_TRUE(S.dispatchesTo(Other))
          << Other->observerName() << " after disabling "
          << D->observerName();
  }

  // And behaviorally: a disabled detector reports nothing.
  ag::AsyncGBuilder Builder;
  detect::DetectorSuite S;
  S.disable(&S.Duplicate);
  S.attachTo(Builder);
  runCaseWith(findCase("SO-45881685"), /*Fixed=*/false, Builder);
  EXPECT_FALSE(Builder.graph().hasWarning(ag::BugCategory::DuplicateListener));
}

//===----------------------------------------------------------------------===//
// Inline == async pipeline == replay
//===----------------------------------------------------------------------===//

TEST(DecodePathParity, TableOneWarningTextInlineAsyncAndReplay) {
  std::string Path = testhelpers::testTempPath("dispatch_parity.agtrace");
  for (const CaseDef &Def : allCases())
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      std::string Name = Def.Name + (Fixed ? " (fixed)" : "");
      std::vector<std::string> Inline =
          runCaseAttached(Def, Fixed, Attach::Suite);

      std::vector<std::string> Async;
      {
        ag::AsyncGBuilder Builder;
        detect::DetectorSuite Detectors;
        Detectors.attachTo(Builder);
        ag::AsyncPipeline Pipeline(Builder);
        runCaseWith(Def, Fixed, Pipeline);
        Pipeline.stop();
        Async = warningTexts(Builder.graph());
      }
      EXPECT_EQ(Inline, Async) << Name;

      {
        instr::TraceRecorder Rec;
        ASSERT_TRUE(Rec.open(Path));
        runCaseWith(Def, Fixed, Rec);
        ASSERT_TRUE(Rec.finalize());
      }
      ag::AsyncGBuilder Builder;
      detect::DetectorSuite Detectors;
      Detectors.attachTo(Builder);
      std::string Err;
      ASSERT_TRUE(instr::replayTrace(Path, Builder, &Err)) << Err;
      EXPECT_EQ(Inline, warningTexts(Builder.graph())) << Name;
    }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Global symbol table growth
//===----------------------------------------------------------------------===//

TEST(SymbolGrowth, BoundedByProgramNotByRequestsUnderRetire) {
  // Symbols name program text (files, functions, events, messages), so a
  // run of 2N requests must intern no more than a constant beyond a run of
  // N. Per-object names (a label like "L26: P1234") would add one symbol
  // per object and grow without bound under --serve.
  auto Run = [](uint64_t Requests) {
    ag::BuilderConfig BCfg;
    BCfg.Retire = true;
    ag::AsyncGBuilder Builder(BCfg);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Builder);
    EXPECT_EQ(runAcmeAir(Requests, Builder), Requests);
    return symtab().size();
  };
  size_t AfterN = Run(200);
  size_t After2N = Run(400);
  EXPECT_LE(After2N, AfterN + 8);
}
