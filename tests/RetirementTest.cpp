//===- RetirementTest.cpp - tick-epoch retirement tests -----------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Bounded-memory steady state: retirement must reclaim quiesced regions
// without changing what the automatic (§VI-A) detector suite reports.
// Covers warning parity across the Table-I cases and an AcmeAir run,
// .agtrace replay parity, storage reclamation, and live-ID stability.
//
// The §VI-B manual post-analyses (AgQueries) are intentionally NOT part of
// the parity contract: they inspect whatever is retained, which under
// --retire is the retain window (see DESIGN.md §5d).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"
#include "viz/JsonDump.h"
#include "viz/TextReport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace asyncg::cases;

namespace {

/// (category, message, file:line) — node ids are excluded on purpose:
/// retirement recycles them.
using WarningKey = std::tuple<std::string, std::string, std::string>;

std::vector<WarningKey> warningKeys(const ag::AsyncGraph &G) {
  std::vector<WarningKey> Keys;
  for (const ag::Warning &W : G.warnings())
    Keys.emplace_back(ag::bugCategoryName(W.Category), W.Message.str(),
                      W.Loc.str());
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

struct CaseRun {
  std::vector<WarningKey> Warnings;
  size_t FootprintBytes = 0;
  size_t LiveNodes = 0;
  uint64_t RetiredTicks = 0;
  std::string Text, Dot, Json;
};

CaseRun runCase(const CaseDef &Def, bool Fixed, bool Retire,
                uint32_t Window = 8) {
  Runtime RT(Def.Config);
  ag::BuilderConfig BCfg;
  BCfg.Retire = Retire;
  BCfg.RetainWindow = Window;
  ag::AsyncGBuilder Builder(BCfg);
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  RT.hooks().attach(&Builder);
  Def.Run(RT, Fixed);

  CaseRun R;
  R.Warnings = warningKeys(Builder.graph());
  R.FootprintBytes = Builder.memoryFootprint();
  R.LiveNodes = Builder.graph().nodeCount();
  R.RetiredTicks = Builder.graph().retired().Ticks;
  // Rendering must tolerate freelisted slots and tombstoned ticks.
  R.Text = viz::toText(Builder.graph());
  R.Dot = viz::toDot(Builder.graph());
  R.Json = viz::toJson(Builder.graph());
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Warning parity: Table I
//===----------------------------------------------------------------------===//

TEST(RetirementParity, TableOneCasesIdenticalWarnings) {
  for (const CaseDef &Def : allCases()) {
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      CaseRun Off = runCase(Def, Fixed, /*Retire=*/false);
      CaseRun On = runCase(Def, Fixed, /*Retire=*/true);
      EXPECT_EQ(Off.Warnings, On.Warnings)
          << Def.Name << (Fixed ? " (fixed)" : " (buggy)");
    }
  }
}

TEST(RetirementParity, TightWindowKeepsDetectorWarnings) {
  // Window 1 is the most aggressive setting: only the newest committed
  // tick survives. The incremental detectors must still agree.
  for (const CaseDef &Def : allCases()) {
    for (bool Fixed : {false, true}) {
      if (Fixed && !Def.HasFix)
        continue;
      CaseRun Off = runCase(Def, Fixed, /*Retire=*/false);
      CaseRun On = runCase(Def, Fixed, /*Retire=*/true, /*Window=*/1);
      // The §VI-B post-analyses are window-scoped (see file header); at
      // window 1 two cases lose manual-query warnings. Compare only the
      // automatic detector categories here.
      auto IsManual = [](const WarningKey &K) {
        const std::string &Cat = std::get<0>(K);
        return Cat == "Broken Promise Chain" || Cat == "Expect Sync Callback";
      };
      std::vector<WarningKey> OffAuto, OnAuto;
      for (const WarningKey &K : Off.Warnings)
        if (!IsManual(K))
          OffAuto.push_back(K);
      for (const WarningKey &K : On.Warnings)
        if (!IsManual(K))
          OnAuto.push_back(K);
      EXPECT_EQ(OffAuto, OnAuto)
          << Def.Name << (Fixed ? " (fixed)" : " (buggy)");
    }
  }
}

//===----------------------------------------------------------------------===//
// Warning parity + reclamation: AcmeAir
//===----------------------------------------------------------------------===//

TEST(RetirementAcmeAir, ParityAndFootprintReduction) {
  auto Run = [](bool Retire) {
    Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 300;
    WCfg.Clients = 4;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);

    ag::BuilderConfig BCfg;
    BCfg.Retire = Retire;
    ag::AsyncGBuilder Builder(BCfg);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Builder);
    RT.hooks().attach(&Builder);

    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    EXPECT_EQ(Driver.completed(), WCfg.TotalRequests);
    return std::make_tuple(warningKeys(Builder.graph()),
                           Builder.memoryFootprint(),
                           Builder.graph().retired().Ticks);
  };

  auto [WOff, FootOff, RetOff] = Run(false);
  auto [WOn, FootOn, RetOn] = Run(true);
  EXPECT_EQ(WOff, WOn);
  EXPECT_EQ(RetOff, 0u);
  EXPECT_GT(RetOn, 0u);
  // 300 keep-alive requests: the retained window must be a small fraction
  // of the full graph.
  EXPECT_LT(FootOn * 4, FootOff);
}

//===----------------------------------------------------------------------===//
// Replay parity
//===----------------------------------------------------------------------===//

TEST(RetirementReplay, RecordedTraceAgreesAcrossModes) {
  // Record a case once, then rebuild the graph from the identical event
  // stream with and without retirement.
  const CaseDef *Def = nullptr;
  for (const CaseDef &D : allCases())
    if (D.Name == "SO-17894000")
      Def = &D;
  ASSERT_NE(Def, nullptr);

  std::string Path = testhelpers::testTempPath("retirement_replay.agtrace");
  {
    Runtime RT(Def->Config);
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path));
    RT.hooks().attach(&Rec);
    Def->Run(RT, /*Fixed=*/true);
    ASSERT_TRUE(Rec.finalize());
  }

  auto Replay = [&](bool Retire, uint32_t Window) {
    ag::BuilderConfig BCfg;
    BCfg.Retire = Retire;
    BCfg.RetainWindow = Window;
    ag::AsyncGBuilder Builder(BCfg);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Builder);
    std::string Err;
    EXPECT_TRUE(instr::replayTrace(Path, Builder, &Err)) << Err;
    return warningKeys(Builder.graph());
  };

  std::vector<WarningKey> Off = Replay(false, 8);
  EXPECT_EQ(Off, Replay(true, 8));
  EXPECT_EQ(Off, Replay(true, 1));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Reclamation mechanics
//===----------------------------------------------------------------------===//

TEST(RetirementMechanics, ReclaimsStorageAndKeepsLiveIdsStable) {
  // Find a case with enough ticks to retire something at window 1.
  const CaseDef *Def = nullptr;
  for (const CaseDef &D : allCases())
    if (D.Name == "SO-17894000")
      Def = &D;
  ASSERT_NE(Def, nullptr);

  CaseRun Off = runCase(*Def, /*Fixed=*/false, /*Retire=*/false);
  CaseRun On = runCase(*Def, /*Fixed=*/false, /*Retire=*/true, /*Window=*/1);

  EXPECT_GT(On.RetiredTicks, 0u);
  EXPECT_LT(On.LiveNodes, Off.LiveNodes);
  // No footprint assertion here: on a ten-tick case the retirement
  // accounting maps outweigh the reclaimed bytes; the AcmeAir test above
  // covers the at-scale reduction.

  // The renderers must have skipped every reclaimed slot: no "(dead)"
  // artifacts, and the retired banner is present.
  EXPECT_NE(On.Text.find("retired tick"), std::string::npos);
  EXPECT_EQ(On.Json.find("4294967295"), std::string::npos); // InvalidNode
  EXPECT_FALSE(On.Dot.empty());

  // Warnings anchored to retired nodes must have dropped their node
  // reference rather than dangle.
  // (Validated structurally: every warning's node, when set, is live.)
}

TEST(RetirementMechanics, WarningNodesAreLiveOrDetached) {
  for (const CaseDef &Def : allCases()) {
    Runtime RT(Def.Config);
    ag::BuilderConfig BCfg;
    BCfg.Retire = true;
    BCfg.RetainWindow = 1;
    ag::AsyncGBuilder Builder(BCfg);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Builder);
    RT.hooks().attach(&Builder);
    Def.Run(RT, /*Fixed=*/false);

    const ag::AsyncGraph &G = Builder.graph();
    for (const ag::Warning &W : G.warnings()) {
      if (W.Node == ag::InvalidNode)
        continue;
      ASSERT_LT(W.Node, G.nodes().size()) << Def.Name;
      EXPECT_EQ(G.nodes()[W.Node].Id, W.Node)
          << Def.Name << ": warning anchored to a reclaimed node";
    }
  }
}

//===----------------------------------------------------------------------===//
// Retirement order and the retain window
//===----------------------------------------------------------------------===//

namespace {

/// Drives a builder with hand-made events: one top-level callback per
/// tick, so every tick commits one internal CE node and pins nothing
/// unless the body creates an object.
class TickDriver {
public:
  explicit TickDriver(ag::AsyncGBuilder &B) : B(B) {}

  template <typename BodyFn> void tick(BodyFn &&Body) {
    auto Data = std::make_shared<FunctionData>();
    Data->Id = ++NextFn;
    Data->Name = "cb";
    Function F(std::move(Data));
    DispatchInfo D;
    D.Phase = PhaseKind::Io;
    D.TopLevel = true;
    B.onFunctionEnter(instr::FunctionEnterEvent{F, NoArgs, D});
    Body();
    B.onFunctionExit(instr::FunctionExitEvent{F, Ok, D});
  }
  void tick() {
    tick([] {});
  }

  void createEmitter(ObjectId Obj) {
    instr::ObjectCreateEvent E;
    E.Obj = Obj;
    B.onObjectCreate(E);
  }
  void release(ObjectId Obj) {
    B.onObjectRelease(instr::ObjectReleaseEvent{Obj, false});
  }

  /// Indices of the ticks still live in the graph.
  std::vector<uint32_t> liveTicks() const {
    std::vector<uint32_t> Live;
    for (const ag::AgTick &T : B.graph().ticks())
      if (!T.Retired)
        Live.push_back(T.Index);
    return Live;
  }

private:
  ag::AsyncGBuilder &B;
  FunctionId NextFn = 0;
  CallArgs NoArgs;
  Completion Ok;
};

/// Checks, at every retirement, that the region has fallen RetainWindow
/// committed ticks behind the newest committed tick. Commits are read off
/// the graph: every commit appends a tick and is followed by a tick start,
/// a retirement or the loop end before the next commit.
class WindowWatch final : public ag::GraphObserver {
public:
  explicit WindowWatch(uint32_t Window) : Window(Window) {}

  void onTickStart(ag::AsyncGBuilder &B, const ag::AgTick &) override {
    sync(B);
  }
  void onRegionRetire(ag::AsyncGBuilder &B, uint32_t Tick) override {
    sync(B);
    ++Retired;
    auto It = Ordinal.find(Tick);
    ASSERT_NE(It, Ordinal.end()) << "retired an uncommitted tick " << Tick;
    EXPECT_LE(It->second + Window, Committed)
        << "tick " << Tick << " retired inside the retain window";
  }
  void onEnd(ag::AsyncGBuilder &B) override { sync(B); }

  uint64_t Retired = 0;

private:
  void sync(ag::AsyncGBuilder &B) {
    const auto &Ticks = B.graph().ticks();
    if (Ticks.empty() || Ticks.back().Index == Newest)
      return;
    Newest = Ticks.back().Index;
    Ordinal[Newest] = ++Committed;
  }

  uint32_t Window;
  uint32_t Newest = 0;
  uint64_t Committed = 0;
  std::map<uint32_t, uint64_t> Ordinal;
};

} // namespace

TEST(RetirementOrder, LateUnpinnedRegionRetiresAtNextScan) {
  // Tick 1 creates an emitter, which pins its region; ticks 2..6 quiesce
  // at commit and retire behind a window of 2. When the emitter is
  // released, tick 1 is far outside the window although newer quiesced
  // regions (5, 6) still wait: the very next scan must retire it.
  for (bool AtCommit : {true, false}) {
    ag::BuilderConfig Cfg;
    Cfg.Retire = true;
    Cfg.RetainWindow = 2;
    ag::AsyncGBuilder B(Cfg);
    TickDriver Drive(B);
    Drive.tick([&] { Drive.createEmitter(7); });
    for (int I = 0; I != 5; ++I)
      Drive.tick();
    EXPECT_EQ(Drive.liveTicks(), (std::vector<uint32_t>{1, 5, 6}));

    if (AtCommit) {
      // Released inside tick 7: the scan at its commit retires 1 and 5.
      Drive.tick([&] { Drive.release(7); });
      EXPECT_EQ(Drive.liveTicks(), (std::vector<uint32_t>{6, 7}));
    } else {
      // Released between ticks: the batch-boundary scan retires 1 alone.
      Drive.release(7);
      EXPECT_EQ(Drive.liveTicks(), (std::vector<uint32_t>{1, 5, 6}));
      B.onBatchBoundary();
      EXPECT_EQ(Drive.liveTicks(), (std::vector<uint32_t>{5, 6}));
    }
    EXPECT_EQ(B.graph().objectNode(7), ag::InvalidNode);
  }
}

TEST(RetirementOrder, NoRegionInsideRetainWindowRetires) {
  for (uint32_t Window : {1u, 2u, 8u}) {
    for (const CaseDef &Def : allCases()) {
      Runtime RT(Def.Config);
      ag::BuilderConfig BCfg;
      BCfg.Retire = true;
      BCfg.RetainWindow = Window;
      ag::AsyncGBuilder Builder(BCfg);
      detect::DetectorSuite Detectors;
      Detectors.attachTo(Builder);
      WindowWatch Watch(Window);
      Builder.addObserver(&Watch);
      RT.hooks().attach(&Builder);
      Def.Run(RT, /*Fixed=*/false);
    }

    Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 200;
    WCfg.Clients = 4;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    ag::BuilderConfig BCfg;
    BCfg.Retire = true;
    BCfg.RetainWindow = Window;
    ag::AsyncGBuilder Builder(BCfg);
    WindowWatch Watch(Window);
    Builder.addObserver(&Watch);
    RT.hooks().attach(&Builder);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    EXPECT_GT(Watch.Retired, 1000u) << "window " << Window;
  }
}

TEST(RetirementAcmeAir, FootprintAndTickPoolFlatFromNTo2N) {
  struct Peak {
    size_t Footprint = 0;
    size_t TickPool = 0;
  };
  // Peaks sampled at every tick start, so a transient high water mark
  // between compactions counts too.
  struct Sampler final : ag::GraphObserver {
    Peak P;
    void onTickStart(ag::AsyncGBuilder &B, const ag::AgTick &) override {
      P.Footprint = std::max(P.Footprint, B.memoryFootprint());
      P.TickPool = std::max(P.TickPool, B.graph().tickPoolSize());
    }
  };
  auto Run = [](uint32_t Requests) {
    Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = Requests;
    WCfg.Clients = 8;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    ag::BuilderConfig BCfg;
    BCfg.Retire = true;
    ag::AsyncGBuilder Builder(BCfg);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Builder);
    Sampler S;
    Builder.addObserver(&S);
    RT.hooks().attach(&Builder);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    EXPECT_EQ(Driver.completed(), Requests);
    return S.P;
  };
  // Steady state by N: twice the requests may move the peaks only by the
  // timing of the next compaction (a few pool entries), never by growth.
  const Peak N = Run(1000), N2 = Run(2000);
  EXPECT_GT(N.TickPool, 0u);
  EXPECT_LE(N2.Footprint, N.Footprint + N.Footprint / 10);
  EXPECT_LE(N2.TickPool, N.TickPool + N.TickPool / 10);
}
