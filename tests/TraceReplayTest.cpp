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
/// covers trace-file validation (bad magic, wrong version — through
/// replayTrace, the ingest hub and agtrace_inspect).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/AsyncPipeline.h"
#include "ag/IngestHub.h"
#include "cases/Case.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>

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
  // Only v4 is read. An image in the retired raw-row layout (header,
  // 32-byte rows, symbol section), whatever its version field says, must
  // fail cleanly everywhere a trace is opened.
  const CaseDef &Def = allCases()[0];
  std::string Good = tempTracePath("goodversion");
  {
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Good));
    runCaseWith(Def, /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());
  }
  // The record stream of the same run, as the raw rows a v1..v3 writer
  // would have laid down (the encoder is deterministic per run).
  std::vector<trace::TraceRecord> Rows;
  {
    trace::TraceMmapReader Map;
    std::string Err;
    ASSERT_TRUE(Map.open(Good, &Err)) << Err;
    std::vector<trace::TraceFrameRef> Frames;
    ASSERT_TRUE(trace::scanV4Frames(Map.recordData(), Map.recordByteSize(),
                                    Map.header().RecordCount, Frames, &Err));
    for (const trace::TraceFrameRef &F : Frames) {
      size_t Consumed = 0;
      ASSERT_TRUE(trace::decodeV4Frame(
          Map.recordData() + F.Offset, F.Bytes, Consumed,
          [&](const trace::TraceRecord &R) { Rows.push_back(R); }, &Err));
    }
  }
  ASSERT_FALSE(Rows.empty());
  std::remove(Good.c_str());

  for (uint32_t Version : {1u, 2u, 3u, trace::TraceVersion + 41}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string Path = tempTracePath("v" + std::to_string(Version));
    {
      trace::TraceFileHeader H = {};
      std::memcpy(H.Magic, trace::TraceMagic, sizeof(H.Magic));
      H.Version = Version;
      H.RecordCount = Rows.size();
      H.SymtabOffset = sizeof(H) + Rows.size() * sizeof(trace::TraceRecord);
      uint64_t NoSymbols = 0;
      std::FILE *F = std::fopen(Path.c_str(), "wb");
      ASSERT_NE(F, nullptr);
      ASSERT_EQ(std::fwrite(&H, sizeof(H), 1, F), 1u);
      ASSERT_EQ(std::fwrite(Rows.data(), sizeof(trace::TraceRecord),
                            Rows.size(), F),
                Rows.size());
      ASSERT_EQ(std::fwrite(&NoSymbols, sizeof(NoSymbols), 1, F), 1u);
      std::fclose(F);
    }

    ag::AsyncGBuilder B;
    std::string Err;
    EXPECT_FALSE(instr::replayTrace(Path, B, &Err));
    EXPECT_NE(Err.find("unsupported trace version"), std::string::npos)
        << Err;

    for (unsigned Jobs : {1u, 2u}) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      ag::IngestOptions Opts;
      Opts.Jobs = Jobs;
      ag::IngestHub Hub(Opts);
      Hub.addFile(Path);
      std::string HubErr;
      EXPECT_FALSE(Hub.run(&HubErr));
      EXPECT_NE(HubErr.find("unsupported trace version"), std::string::npos)
          << HubErr;
    }

    // The inspector rejects it with its error status (1), not a crash.
    std::string Cmd = std::string(ASYNCG_AGTRACE_INSPECT) + " '" + Path +
                      "' > /dev/null 2>&1";
    int Status = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Status;
    EXPECT_EQ(WEXITSTATUS(Status), 1);
    std::remove(Path.c_str());
  }
}

TEST(TraceFile, RejectsMissingFile) {
  ag::AsyncGBuilder B;
  std::string Err;
  EXPECT_FALSE(
      instr::replayTrace(tempTracePath("nonexistent_nope"), B, &Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
