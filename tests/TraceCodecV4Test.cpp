//===- TraceCodecV4Test.cpp - v4 columnar codec parity + robustness ----------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The v4 columnar codec's contracts, beyond the default-version round
/// trips in TraceReplayTest.cpp:
///
///  - cross-version parity: the same deterministic run recorded as v2, v3,
///    and v4 must replay to byte-identical DOT through every version and
///    transport (v4 through both buffered stdio and zero-copy mmap), over
///    the Table-I cases and an AcmeAir workload;
///  - sharded round-trip: per-shard v4 traces of a cluster run, replayed
///    offline and joined by ShardedGraph, must reproduce the harness's
///    merged graph byte-for-byte;
///  - robustness: truncated and bit-flipped real traces must never crash,
///    hang, or read out of bounds. Since the v4 writer interleaves symbol
///    checkpoints and flushes per frame, a damaged file with an intact
///    header magic recovers its clean frame-aligned prefix — byte-identical
///    through both the Stdio and Mmap transports — instead of failing; only
///    images cut inside the 8-byte magic still fail, with a clean error.
///    The bench smoke --check leg runs this suite under sanitizers, which
///    is what turns "no out-of-bounds read" into an enforced property.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/ShardedGraph.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace asyncg;
using namespace asyncg::cases;

namespace {

std::string tempPath(const std::string &Tag) {
  return testhelpers::testTempPath("agtrace_v4_" + Tag + ".agtrace");
}

std::vector<uint8_t> slurpBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Bytes.resize(static_cast<size_t>(Size));
  EXPECT_EQ(std::fread(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
  return Bytes;
}

void spitBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  std::fclose(F);
}

std::string replayDot(const std::string &Path,
                      instr::ReplayTransport Transport) {
  ag::AsyncGBuilder Builder;
  std::string Err;
  EXPECT_TRUE(instr::replayTrace(Path, Builder, &Err, Transport))
      << Path << ": " << Err;
  return viz::toDot(Builder.graph());
}

/// Codec-level sink for corrupt-input tests: replaying garbage into the
/// full graph builder would exercise the builder's event validation, not
/// the decoder's memory safety, which is what these tests pin down.
struct NullSink final : instr::AnalysisBase {
  const char *analysisName() const override { return "null-sink"; }
};

//===----------------------------------------------------------------------===//
// Cross-version parity: Table-I cases
//===----------------------------------------------------------------------===//

class CrossVersionParity : public ::testing::TestWithParam<size_t> {};

std::string caseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(CrossVersionParity, EveryVersionReplaysToSyncDot) {
  const CaseDef &Def = allCases()[GetParam()];
  for (bool Fixed : {false, true}) {
    if (Fixed && !Def.HasFix)
      continue;
    SCOPED_TRACE(Fixed ? "fixed" : "buggy");

    // Case runs are deterministic (TraceReplayTest relies on the same
    // property), so each version records its own run of the same case.
    std::string Want;
    {
      ag::AsyncGBuilder Inline;
      runCaseWith(Def, Fixed, Inline);
      Want = viz::toDot(Inline.graph());
    }

    uint64_t Counts[3] = {0, 0, 0};
    for (uint32_t Version : {2u, 3u, 4u}) {
      SCOPED_TRACE("v" + std::to_string(Version));
      std::string Path = tempPath(Def.Name + (Fixed ? "_f" : "_b") + "_v" +
                                  std::to_string(Version));
      instr::TraceRecorder Rec;
      ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, Version));
      runCaseWith(Def, Fixed, Rec);
      ASSERT_TRUE(Rec.finalize());
      Counts[Version - 2] = Rec.recordCount();

      EXPECT_EQ(replayDot(Path, instr::ReplayTransport::Stdio), Want);
      if (Version == 4) {
        EXPECT_EQ(replayDot(Path, instr::ReplayTransport::Mmap), Want);
      }
      std::remove(Path.c_str());
    }
    // Same events in, same record stream length out of every encoding.
    EXPECT_EQ(Counts[0], Counts[1]);
    EXPECT_EQ(Counts[1], Counts[2]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, CrossVersionParity,
                         ::testing::Range<size_t>(0, allCases().size()),
                         caseName);

//===----------------------------------------------------------------------===//
// Cross-version parity: AcmeAir workload
//===----------------------------------------------------------------------===//

TEST(CrossVersionParityAcmeAir, V3AndV4ReplayIdentically) {
  std::string P3 = tempPath("acmeair_v3"), P4 = tempPath("acmeair_v4");
  instr::TraceRecorder R3, R4;
  ASSERT_TRUE(R3.open(P3, /*Shard=*/0, /*Version=*/3));
  ASSERT_TRUE(R4.open(P4, /*Shard=*/0, /*Version=*/4));
  {
    // One run, both recorders attached: the two files encode the identical
    // event stream, so any replay divergence is the codec's fault alone.
    jsrt::Runtime RT;
    acmeair::AppConfig ACfg;
    acmeair::AcmeAirApp App(RT, ACfg);
    acmeair::WorkloadConfig WCfg;
    WCfg.TotalRequests = 300;
    WCfg.Clients = 4;
    acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&R3);
    RT.hooks().attach(&R4);
    jsrt::Function Main = RT.makeBuiltin(
        "main", [&](jsrt::Runtime &, const jsrt::CallArgs &) {
          App.start(JSLOC);
          Driver.start();
          return jsrt::Completion::normal();
        });
    RT.main(Main);
    ASSERT_EQ(Driver.completed(), WCfg.TotalRequests);
    ASSERT_EQ(Driver.errors(), 0u);
  }
  ASSERT_TRUE(R3.finalize());
  ASSERT_TRUE(R4.finalize());
  ASSERT_EQ(R3.recordCount(), R4.recordCount());
  ASSERT_GT(R4.recordCount(), 1000u);
  // The headline compression must hold on a real workload, not just on
  // hand-picked cases.
  EXPECT_GE(static_cast<double>(R3.recordBytes()),
            4.0 * static_cast<double>(R4.recordBytes()));

  std::string D3 = replayDot(P3, instr::ReplayTransport::Stdio);
  ASSERT_FALSE(D3.empty());
  EXPECT_EQ(replayDot(P4, instr::ReplayTransport::Stdio), D3);
  EXPECT_EQ(replayDot(P4, instr::ReplayTransport::Mmap), D3);
  std::remove(P3.c_str());
  std::remove(P4.c_str());
}

//===----------------------------------------------------------------------===//
// Sharded round-trip
//===----------------------------------------------------------------------===//

TEST(ShardedRoundTrip, V4ShardTracesRebuildMergedGraph) {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 2;
  Cfg.TotalRequests = 200;
  Cfg.TotalClients = 4;
  Cfg.RecordDir = testhelpers::testTempPath("shards");
  ASSERT_EQ(::system(("mkdir -p " + Cfg.RecordDir).c_str()), 0);
  Cfg.TraceVer = 4;
  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();
  ASSERT_EQ(R.TotalCompleted, Cfg.TotalRequests);
  ASSERT_EQ(R.TotalErrors, 0u);
  for (const cluster::ShardResult &S : R.Shards)
    EXPECT_GT(S.RecordedBytes, 0u);
  std::string Want = viz::toDot(H.merged());

  // Offline: replay each shard's v4 trace into its own builder (detectors
  // attached, as the harness had them), then join through the same merge
  // layer the harness used.
  std::vector<std::unique_ptr<ag::AsyncGBuilder>> Builders;
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  std::vector<const ag::AsyncGraph *> Graphs;
  for (uint32_t S = 0; S < Cfg.Loops; ++S) {
    std::string Path =
        Cfg.RecordDir + "/shard" + std::to_string(S) + ".agtrace";
    auto B = std::make_unique<ag::AsyncGBuilder>();
    auto D = std::make_unique<detect::DetectorSuite>();
    D->attachTo(*B);
    std::string Err;
    ASSERT_TRUE(
        instr::replayTrace(Path, *B, &Err, instr::ReplayTransport::Mmap))
        << Path << ": " << Err;
    Builders.push_back(std::move(B));
    Suites.push_back(std::move(D));
  }
  for (const auto &B : Builders)
    Graphs.push_back(&B->graph());
  ag::ShardedGraph Merged;
  ag::MergeStats Stats = Merged.build(Graphs);
  EXPECT_EQ(Stats.Shards, Cfg.Loops);
  EXPECT_EQ(Stats.UnresolvedHandoffs, 0u);
  EXPECT_EQ(viz::toDot(Merged.merged()), Want);

  for (uint32_t S = 0; S < Cfg.Loops; ++S)
    std::remove(
        (Cfg.RecordDir + "/shard" + std::to_string(S) + ".agtrace").c_str());
  std::remove(Cfg.RecordDir.c_str());
}

//===----------------------------------------------------------------------===//
// Decoder robustness: corrupt inputs fail cleanly, never crash
//===----------------------------------------------------------------------===//

class Robustness : public ::testing::Test {
protected:
  void SetUp() override {
    // A real v4 trace exercising every record kind: several Table-I case
    // runs appended into one file (one run alone is under 200 bytes when
    // the test process starts cold — too small for the cut/flip sweeps).
    // Replay correctness of the concatenation is irrelevant here; the
    // decoder only has to survive it.
    Path = tempPath("robust");
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, /*Version=*/4));
    for (size_t C = 0; C < allCases().size() && C < 6; ++C)
      runCaseWith(allCases()[C], /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());
    Original = slurpBytes(Path);
    ASSERT_GT(Original.size(), 512u);
  }
  void TearDown() override { std::remove(Path.c_str()); }

  /// Replays \p Bytes through both transports. The hard requirement is
  /// memory-safe, terminating behavior with a non-empty error whenever a
  /// replay reports failure. Returns how many of the two transports
  /// failed.
  int replayMutated(const std::vector<uint8_t> &Bytes) {
    std::string MutPath = Path + ".mut";
    spitBytes(MutPath, Bytes);
    int Failures = 0;
    for (auto T :
         {instr::ReplayTransport::Stdio, instr::ReplayTransport::Mmap}) {
      NullSink Sink;
      std::string Err;
      if (!instr::replayTrace(MutPath, Sink, &Err, T)) {
        EXPECT_FALSE(Err.empty());
        ++Failures;
      }
    }
    std::remove(MutPath.c_str());
    return Failures;
  }

  std::string Path;
  std::vector<uint8_t> Original;
};

TEST_F(Robustness, TruncationsRecoverCleanPrefix) {
  const size_t N = Original.size();
  // Cuts landing in the header, the record section, and the symbol
  // section. A cut inside the 8-byte magic is unrecoverable and must fail
  // on both transports; everything else recovers a (possibly empty) clean
  // frame prefix, and the two transports must agree on it byte for byte.
  std::vector<size_t> Cuts = {0,     1,     7,         16,     32,
                              63,    64,    N / 4,     N / 2,  3 * N / 4,
                              N - 64, N - 17, N - 1};
  for (size_t Cut : Cuts) {
    if (Cut >= N)
      continue;
    SCOPED_TRACE("truncated to " + std::to_string(Cut) + " of " +
                 std::to_string(N) + " bytes");
    std::vector<uint8_t> T(Original.begin(),
                           Original.begin() + static_cast<long>(Cut));
    if (Cut < sizeof(trace::TraceMagic)) {
      EXPECT_EQ(replayMutated(T), 2);
      continue;
    }
    std::string MutPath = Path + ".mut";
    spitBytes(MutPath, T);
    instr::ReplayStats Stats[2];
    int I = 0;
    for (auto Tr :
         {instr::ReplayTransport::Stdio, instr::ReplayTransport::Mmap}) {
      NullSink Sink;
      std::string Err;
      EXPECT_TRUE(instr::replayTrace(MutPath, Sink, &Err, Tr, &Stats[I]))
          << Err;
      EXPECT_TRUE(Stats[I].Recovered);
      ++I;
    }
    // Transport parity: the recovered prefix is a property of the bytes,
    // not of how they were read.
    EXPECT_EQ(Stats[0].Records, Stats[1].Records);
    EXPECT_EQ(Stats[0].RecordBytes, Stats[1].RecordBytes);
    EXPECT_EQ(Stats[0].DroppedTailBytes, Stats[1].DroppedTailBytes);
    std::remove(MutPath.c_str());
  }
}

TEST_F(Robustness, TornTailRecoversPrefixWithDotParity) {
  // A single deterministic case run, so the recovered prefix replays into
  // a real graph and DOT output is comparable across transports and cuts.
  std::string P = tempPath("torn");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(P, /*Shard=*/0, /*Version=*/4));
  runCaseWith(allCases()[0], /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());
  std::vector<uint8_t> Full = slurpBytes(P);
  std::string Pristine = replayDot(P, instr::ReplayTransport::Stdio);

  trace::TraceFileHeader H;
  std::memcpy(&H, Full.data(), sizeof(H));
  ASSERT_EQ(H.Version, 4u);
  ASSERT_LT(H.SymtabOffset, Full.size());

  auto replayRecoveredDot = [&](const std::vector<uint8_t> &Bytes,
                                instr::ReplayTransport T,
                                instr::ReplayStats &Stats) {
    std::string MutPath = P + ".mut";
    spitBytes(MutPath, Bytes);
    ag::AsyncGBuilder B;
    std::string Err;
    EXPECT_TRUE(instr::replayTrace(MutPath, B, &Err, T, &Stats)) << Err;
    std::remove(MutPath.c_str());
    return viz::toDot(B.graph());
  };

  // Cut exactly at the symbol section: what a crash after the last frame
  // flush (but before finalize) leaves behind. Also zero the header's
  // patched counts to match the placeholder a real torn file carries.
  // Every record survives, so the DOT must equal the pristine replay.
  {
    std::vector<uint8_t> T(Full.begin(),
                           Full.begin() +
                               static_cast<long>(H.SymtabOffset));
    for (size_t I = 16; I < 32; ++I)
      T[I] = 0;
    for (auto Tr :
         {instr::ReplayTransport::Stdio, instr::ReplayTransport::Mmap}) {
      instr::ReplayStats Stats;
      EXPECT_EQ(replayRecoveredDot(T, Tr, Stats), Pristine);
      EXPECT_TRUE(Stats.Recovered);
      EXPECT_EQ(Stats.Records, Rec.recordCount());
      EXPECT_EQ(Stats.DroppedTailBytes, 0u);
    }
  }

  // Mid-frame and mid-header cuts: both transports agree byte for byte on
  // the (possibly empty) recovered graph.
  for (size_t Cut : {size_t(16), size_t(32), size_t(32) + 20,
                     static_cast<size_t>(H.SymtabOffset) / 2}) {
    if (Cut >= Full.size())
      continue;
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    std::vector<uint8_t> T(Full.begin(),
                           Full.begin() + static_cast<long>(Cut));
    instr::ReplayStats S0, S1;
    std::string D0 = replayRecoveredDot(T, instr::ReplayTransport::Stdio, S0);
    std::string D1 = replayRecoveredDot(T, instr::ReplayTransport::Mmap, S1);
    EXPECT_EQ(D0, D1);
    EXPECT_EQ(S0.Records, S1.Records);
    EXPECT_TRUE(S0.Recovered);
    EXPECT_TRUE(S1.Recovered);
  }

  // Bit-flipped tail: damage in the record section's last frame loses at
  // most that frame; both transports recover the identical prefix.
  {
    std::vector<uint8_t> M = Full;
    M[H.SymtabOffset - 20] ^= 0x40;
    // Invalidate the symbol section too so the strict open cannot succeed
    // and mask the flip (a flip in a value column decodes as valid data).
    M.resize(H.SymtabOffset);
    instr::ReplayStats S0, S1;
    std::string D0 = replayRecoveredDot(M, instr::ReplayTransport::Stdio, S0);
    std::string D1 = replayRecoveredDot(M, instr::ReplayTransport::Mmap, S1);
    EXPECT_EQ(D0, D1);
    EXPECT_EQ(S0.Records, S1.Records);
    EXPECT_EQ(S0.DroppedTailBytes, S1.DroppedTailBytes);
  }

  std::remove(P.c_str());
}

TEST_F(Robustness, BitFlipsNeverCrash) {
  const size_t N = Original.size();
  // Deterministic sweep: 64 flip positions spread over the whole file,
  // cycling through bit indices — covers the header fields, frame headers,
  // raw and varint columns, and the symbol section. A flip may land in a
  // symbol string or a value column and decode as a different-but-valid
  // trace; everything else must fail with an error. Either way: no crash,
  // no hang, no out-of-bounds access (sanitizer-enforced).
  const size_t Positions = 64;
  for (size_t I = 0; I < Positions; ++I) {
    size_t Off = (I * N) / Positions;
    int Bit = static_cast<int>(I % 8);
    SCOPED_TRACE("flip bit " + std::to_string(Bit) + " at byte " +
                 std::to_string(Off));
    std::vector<uint8_t> M = Original;
    M[Off] ^= static_cast<uint8_t>(1u << Bit);
    replayMutated(M);
  }
}

TEST_F(Robustness, GarbageRecordSectionRecoversEmptyPrefix) {
  // Keep the valid header, stomp the record section with a repeating
  // pattern: no frame magic can survive, so the strict open fails and
  // recovery finds no clean frame — a successful replay of an empty
  // prefix, with the damage reported through the stats.
  std::vector<uint8_t> M = Original;
  size_t End = M.size() > 128 ? M.size() - 64 : M.size();
  for (size_t I = sizeof(trace::TraceFileHeader); I < End; ++I)
    M[I] = static_cast<uint8_t>(0xA5 ^ (I & 0xFF));
  std::string MutPath = Path + ".mut";
  spitBytes(MutPath, M);
  for (auto T :
       {instr::ReplayTransport::Stdio, instr::ReplayTransport::Mmap}) {
    NullSink Sink;
    std::string Err;
    instr::ReplayStats Stats;
    EXPECT_TRUE(instr::replayTrace(MutPath, Sink, &Err, T, &Stats)) << Err;
    EXPECT_TRUE(Stats.Recovered);
    EXPECT_EQ(Stats.Records, 0u);
    EXPECT_GT(Stats.DroppedTailBytes, 0u);
  }
  std::remove(MutPath.c_str());
}

} // namespace
