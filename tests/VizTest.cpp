//===- VizTest.cpp - DOT/JSON/text serialization tests -------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/Builder.h"
#include "detect/Detectors.h"
#include "viz/Dot.h"
#include "viz/Html.h"
#include "viz/JsonDump.h"
#include "viz/TextReport.h"

#include <gtest/gtest.h>

using namespace asyncg;
using namespace asyncg::ag;
using namespace asyncg::jsrt;
using namespace asyncg::testhelpers;

namespace {

/// Builder plus the detector suite it observes (kept together so the
/// observer pointer stays valid for the builder's lifetime).
struct Sample {
  AsyncGBuilder Builder;
  detect::DetectorSuite Suite;
  const AsyncGraph &graph() { return Builder.graph(); }
};

/// Builds the small mixed graph used by all serialization tests.
std::unique_ptr<Sample> sampleGraph() {
  auto B = std::make_unique<Sample>();
  B->Suite.attachTo(B->Builder);
  Runtime RT;
  RT.hooks().attach(&B->Builder);
  runMain(RT, [](Runtime &R) {
    EmitterRef E = R.emitterCreate(JSLINE("s.js", 1));
    R.emitterEmit(JSLINE("s.js", 2), E, "ghost"); // dead emit warning
    R.emitterOn(JSLINE("s.js", 3), E, "msg",
                R.makeFunction("onMsg", JSLINE("s.js", 3),
                               [](Runtime &, const CallArgs &) {
                                 return Completion::normal();
                               }));
    R.emitterEmit(JSLINE("s.js", 4), E, "msg");
    R.nextTick(JSLINE("s.js", 5),
               R.makeFunction("tickCb", JSLINE("s.js", 5),
                              [](Runtime &, const CallArgs &) {
                                return Completion::normal();
                              }));
  });
  return B;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t Count = 0, Pos = 0;
  while ((Pos = Hay.find(Needle, Pos)) != std::string::npos) {
    ++Count;
    Pos += Needle.size();
  }
  return Count;
}

TEST(Dot, ContainsTicksNodesAndShapes) {
  auto B = sampleGraph();
  std::string Dot = viz::toDot(B->graph());
  EXPECT_NE(Dot.find("digraph AsyncGraph"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_t1"), std::string::npos);
  EXPECT_NE(Dot.find("t1: main"), std::string::npos);
  EXPECT_NE(Dot.find("t2: nexttick"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);      // CR
  EXPECT_NE(Dot.find("shape=ellipse"), std::string::npos);  // CE
  EXPECT_NE(Dot.find("shape=diamond"), std::string::npos);  // CT
  EXPECT_NE(Dot.find("shape=triangle"), std::string::npos); // OB
  EXPECT_NE(Dot.find("L2: emit(ghost)"), std::string::npos);
  // The dead emit warning highlights its node.
  EXPECT_NE(Dot.find("(!) L2: emit(ghost)"), std::string::npos);
  EXPECT_NE(Dot.find("color=red"), std::string::npos);
}

TEST(Dot, OptionsFilterInternalAndHappensIn) {
  auto B = sampleGraph();
  viz::DotOptions Opts;
  Opts.IncludeHappensIn = false;
  std::string Dot = viz::toDot(B->graph(), Opts);
  EXPECT_EQ(Dot.find("style=dotted"), std::string::npos);
  std::string Full = viz::toDot(B->graph());
  EXPECT_NE(Full.find("style=dotted"), std::string::npos);
}

TEST(Json, BalancedAndContainsSections) {
  auto B = sampleGraph();
  std::string J = viz::toJson(B->graph());
  EXPECT_EQ(countOccurrences(J, "{"), countOccurrences(J, "}"));
  EXPECT_EQ(countOccurrences(J, "["), countOccurrences(J, "]"));
  EXPECT_NE(J.find("\"ticks\":"), std::string::npos);
  EXPECT_NE(J.find("\"nodes\":"), std::string::npos);
  EXPECT_NE(J.find("\"edges\":"), std::string::npos);
  EXPECT_NE(J.find("\"warnings\":"), std::string::npos);
  EXPECT_NE(J.find("\"stats\":"), std::string::npos);
  EXPECT_NE(J.find("\"Dead Emits\""), std::string::npos);
  EXPECT_NE(J.find("\"kind\":\"CT\""), std::string::npos);
}

TEST(Json, StatsMatchGraph) {
  auto B = sampleGraph();
  const AsyncGraph &G = B->graph();
  std::string J = viz::toJson(G);
  std::string Expect = "\"nodes\":" + std::to_string(G.nodes().size());
  // The stats object repeats the node count.
  EXPECT_NE(J.rfind(Expect), std::string::npos);
}

TEST(Text, TickBlocksAndWarnMarkers) {
  auto B = sampleGraph();
  std::string T = viz::toText(B->graph());
  EXPECT_NE(T.find("t1: main"), std::string::npos);
  EXPECT_NE(T.find("t2: nexttick"), std::string::npos);
  EXPECT_NE(T.find("(!)"), std::string::npos);
  EXPECT_NE(T.find("[] L5: nextTick"), std::string::npos);
  EXPECT_NE(T.find("** L2: emit(ghost)"), std::string::npos);

  viz::TextOptions Opts;
  Opts.MaxTicks = 1;
  std::string Short = viz::toText(B->graph(), Opts);
  EXPECT_NE(Short.find("more ticks"), std::string::npos);
  EXPECT_EQ(Short.find("t2:"), std::string::npos);
}

TEST(Text, WarningsReport) {
  auto B = sampleGraph();
  std::string W = viz::warningsReport(B->graph());
  EXPECT_NE(W.find("warning[Dead Emits] @ s.js:2"), std::string::npos);

  AsyncGraph Empty;
  EXPECT_EQ(viz::warningsReport(Empty), "no warnings\n");
}

TEST(Viz, WriteFileRoundTrip) {
  std::string Path = testTempPath("viz_test.json");
  EXPECT_TRUE(viz::writeFile(Path, "{\"x\":1}"));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  char Buf[32] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf), F);
  std::fclose(F);
  EXPECT_EQ(std::string(Buf, N), "{\"x\":1}");
  std::remove(Path.c_str());
  EXPECT_FALSE(viz::writeFile("/nonexistent-dir/x/y.json", "data"));
}

TEST(Html, SelfContainedViewer) {
  auto B = sampleGraph();
  std::string H = viz::toHtml(B->graph(), "sample");
  EXPECT_NE(H.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(H.find("const AG = {"), std::string::npos);
  EXPECT_NE(H.find("<title>sample</title>"), std::string::npos);
  // The embedded JSON must not close the script tag early.
  size_t ScriptStart = H.find("<script>");
  size_t ScriptEnd = H.find("</script>");
  ASSERT_NE(ScriptStart, std::string::npos);
  ASSERT_NE(ScriptEnd, std::string::npos);
  std::string Body = H.substr(ScriptStart, ScriptEnd - ScriptStart);
  EXPECT_EQ(Body.find("</"), std::string::npos)
      << "unescaped close tag inside script";
  // Warnings section present.
  EXPECT_NE(H.find("Dead Emits"), std::string::npos);
}

} // namespace
