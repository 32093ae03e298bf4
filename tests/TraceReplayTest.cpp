//===- TraceReplayTest.cpp - .agtrace record/replay round-trips --------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec's correctness contract: a graph rebuilt from a recorded
/// `.agtrace` trace — or built off-thread through the async pipeline — must
/// be byte-identical (as DOT) to the graph the builder produces inline.
/// Runs the check over every Table-I case, buggy and fixed variants. Also
/// covers trace-file validation (bad magic, wrong version).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/AsyncPipeline.h"
#include "cases/Case.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

using namespace asyncg;
using namespace asyncg::cases;

namespace {

std::string tempTracePath(const std::string &Tag) {
  return testhelpers::testTempPath("agtrace_" + Tag + ".agtrace");
}

/// Builds the reference graph inline (builder attached directly).
std::string syncDot(const CaseDef &Def, bool Fixed) {
  ag::AsyncGBuilder Builder;
  runCaseWith(Def, Fixed, Builder);
  return viz::toDot(Builder.graph());
}

class TraceRoundTrip : public ::testing::TestWithParam<size_t> {};

std::string caseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(TraceRoundTrip, ReplayedGraphMatchesSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (bool Fixed : {false, true}) {
    if (Fixed && !Def.HasFix)
      continue;
    SCOPED_TRACE(Fixed ? "fixed" : "buggy");

    std::string Path = tempTracePath(Def.Name + (Fixed ? "_f" : "_b"));
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path));
    runCaseWith(Def, Fixed, Rec);
    ASSERT_TRUE(Rec.finalize());
    EXPECT_GT(Rec.recordCount(), 0u);

    ag::AsyncGBuilder Replayed;
    std::string Err;
    ASSERT_TRUE(instr::replayTrace(Path, Replayed, &Err)) << Err;
    EXPECT_EQ(viz::toDot(Replayed.graph()), syncDot(Def, Fixed));
    std::remove(Path.c_str());
  }
}

TEST_P(TraceRoundTrip, AsyncPipelineGraphMatchesSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (bool Fixed : {false, true}) {
    if (Fixed && !Def.HasFix)
      continue;
    SCOPED_TRACE(Fixed ? "fixed" : "buggy");

    ag::AsyncGBuilder OffThread;
    {
      ag::AsyncPipeline Pipeline(OffThread);
      runCaseWith(Def, Fixed, Pipeline);
      Pipeline.stop();
      EXPECT_EQ(Pipeline.droppedEvents(), 0u);
    }
    EXPECT_EQ(viz::toDot(OffThread.graph()), syncDot(Def, Fixed));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, TraceRoundTrip,
                         ::testing::Range<size_t>(0, allCases().size()),
                         caseName);

//===----------------------------------------------------------------------===//
// Trace-file validation
//===----------------------------------------------------------------------===//

TEST(TraceFile, RejectsBadMagic) {
  std::string Path = tempTracePath("badmagic");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  const char Junk[64] = "definitely not a trace";
  std::fwrite(Junk, 1, sizeof(Junk), F);
  std::fclose(F);

  ag::AsyncGBuilder B;
  std::string Err;
  EXPECT_FALSE(instr::replayTrace(Path, B, &Err));
  EXPECT_NE(Err.find("bad magic"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

TEST(TraceFile, RejectsWrongVersion) {
  std::string Path = tempTracePath("badversion");
  // Start from a valid (empty) trace, then corrupt the version field.
  {
    trace::TraceFileWriter W;
    ASSERT_TRUE(W.open(Path));
    ASSERT_TRUE(W.finalize());
  }
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(F, nullptr);
  uint32_t Bogus = trace::TraceVersion + 41;
  std::fseek(F, offsetof(trace::TraceFileHeader, Version), SEEK_SET);
  std::fwrite(&Bogus, sizeof(Bogus), 1, F);
  std::fclose(F);

  ag::AsyncGBuilder B;
  std::string Err;
  EXPECT_FALSE(instr::replayTrace(Path, B, &Err));
  EXPECT_NE(Err.find("unsupported trace version"), std::string::npos) << Err;
  std::remove(Path.c_str());
}

TEST(TraceFile, RejectsMissingFile) {
  ag::AsyncGBuilder B;
  std::string Err;
  EXPECT_FALSE(
      instr::replayTrace(tempTracePath("nonexistent_nope"), B, &Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
