//===- IngestTest.cpp - parallel ingest hub parity + MpmcQueue ---------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel ingest hub's one non-negotiable contract is byte parity:
/// whatever replayTrace() would have produced — DOT output and warning
/// report — IngestHub must reproduce exactly, at every job count, for
/// every stream condition it claims to handle. These tests pin that down:
///
///  - Table-I cases and an AcmeAir workload, serial vs jobs 1/2/4;
///  - two-shard cluster streams: the hub's streaming merge vs the batch
///    ShardedGraph reference vs the harness's own merged graph;
///  - torn-tail traces: the hub's clean-prefix recovery vs the serial
///    recovered replay, again across job counts;
///  - raw v2/v3 traces: the replayTrace() fallback path, flagged as such.
///
/// Plus unit and two-thread stress coverage for the MpmcQueue the decode
/// pool schedules through. The bench smoke --check leg re-runs this suite
/// under TSan, which is what turns "the pool has no data races" into an
/// enforced property.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/IngestHub.h"
#include "ag/ShardedGraph.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "cases/Case.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "support/MpmcQueue.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace asyncg;
using namespace asyncg::cases;

namespace {

std::string tempPath(const std::string &Tag) {
  return testhelpers::testTempPath("ingest_" + Tag + ".agtrace");
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

/// Serial reference: replayTrace into a fresh builder; DOT + warnings.
void serialReference(const std::string &Path, std::string &Dot,
                     std::string &Warnings, bool Detect = false) {
  ag::AsyncGBuilder Builder;
  std::unique_ptr<detect::DetectorSuite> Suite;
  if (Detect) {
    Suite.reset(new detect::DetectorSuite());
    Suite->attachTo(Builder);
  }
  std::string Err;
  ASSERT_TRUE(instr::replayTrace(Path, Builder, &Err)) << Path << ": " << Err;
  Dot = viz::toDot(Builder.graph());
  Warnings = viz::warningsReport(Builder.graph());
}

/// Hub under test: same trace(s) through IngestHub at \p Jobs.
void hubResult(const std::vector<std::string> &Paths, unsigned Jobs,
               std::string &Dot, std::string &Warnings,
               ag::IngestStats *Stats = nullptr, bool Detect = false) {
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  ag::IngestHub Hub(Opts);
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  for (const std::string &P : Paths) {
    size_t S = Hub.addFile(P);
    if (Detect) {
      Suites.emplace_back(new detect::DetectorSuite());
      Suites.back()->attachTo(Hub.builder(S));
    }
  }
  std::string Err;
  ASSERT_TRUE(Hub.run(&Err)) << Err;
  Dot = viz::toDot(Hub.graph());
  Warnings = viz::warningsReport(Hub.graph());
  if (Stats)
    *Stats = Hub.stats();
}

//===----------------------------------------------------------------------===//
// MpmcQueue
//===----------------------------------------------------------------------===//

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(MpmcQueue<int>(65).capacity(), 128u);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> Q(8);
  int Out = -1;
  EXPECT_FALSE(Q.tryPop(Out));
  for (int I = 0; I != 8; ++I)
    EXPECT_TRUE(Q.tryPush(I));
  EXPECT_FALSE(Q.tryPush(99)) << "queue should be full";
  for (int I = 0; I != 8; ++I) {
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, I);
  }
  EXPECT_FALSE(Q.tryPop(Out));
}

TEST(MpmcQueue, WrapsAroundManyTimes) {
  MpmcQueue<int> Q(4);
  int Out = -1;
  for (int I = 0; I != 1000; ++I) {
    ASSERT_TRUE(Q.tryPush(I));
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, I);
  }
}

TEST(MpmcQueue, MovesValues) {
  MpmcQueue<std::unique_ptr<int>> Q(4);
  ASSERT_TRUE(Q.tryPush(std::make_unique<int>(42)));
  std::unique_ptr<int> Out;
  ASSERT_TRUE(Q.tryPop(Out));
  ASSERT_NE(Out, nullptr);
  EXPECT_EQ(*Out, 42);
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  // 2 producers x 2 consumers over a small ring: every pushed value must
  // come out exactly once. Run under TSan by the bench smoke --check leg.
  constexpr int PerProducer = 20000;
  MpmcQueue<int> Q(64);
  std::atomic<int> Consumed{0};
  std::vector<std::atomic<int>> Seen(2 * PerProducer);
  for (auto &S : Seen)
    S.store(0);

  auto Producer = [&](int Base) {
    for (int I = 0; I != PerProducer; ++I)
      while (!Q.tryPush(Base + I))
        std::this_thread::yield();
  };
  auto Consumer = [&] {
    int V;
    while (Consumed.load(std::memory_order_relaxed) < 2 * PerProducer) {
      if (Q.tryPop(V)) {
        Seen[static_cast<size_t>(V)].fetch_add(1);
        Consumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::thread P0(Producer, 0), P1(Producer, PerProducer);
  std::thread C0(Consumer), C1(Consumer);
  P0.join();
  P1.join();
  C0.join();
  C1.join();
  for (int I = 0; I != 2 * PerProducer; ++I)
    ASSERT_EQ(Seen[static_cast<size_t>(I)].load(), 1) << "value " << I;
}

//===----------------------------------------------------------------------===//
// Table-I case parity across job counts
//===----------------------------------------------------------------------===//

class IngestCaseParity : public ::testing::TestWithParam<size_t> {};

std::string ingestCaseName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string N = allCases()[Info.param].Name;
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

TEST_P(IngestCaseParity, EveryJobCountMatchesSerialReplay) {
  const CaseDef &Def = allCases()[GetParam()];
  std::string Path = tempPath(Def.Name);
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  runCaseWith(Def, /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());

  std::string WantDot, WantWarn;
  serialReference(Path, WantDot, WantWarn);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::IngestStats Stats;
    hubResult({Path}, Jobs, Dot, Warn, &Stats);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    ASSERT_EQ(Stats.Streams.size(), 1u);
    EXPECT_FALSE(Stats.Streams[0].Fallback);
    EXPECT_FALSE(Stats.Streams[0].Recovered);
    EXPECT_EQ(Stats.Records, Stats.Streams[0].Records);
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllCases, IngestCaseParity,
                         ::testing::Range<size_t>(0, allCases().size()),
                         ingestCaseName);

//===----------------------------------------------------------------------===//
// AcmeAir workload parity (with live detectors riding the ordered commit)
//===----------------------------------------------------------------------===//

TEST(IngestAcmeAir, JobSweepMatchesSerialReplay) {
  using namespace asyncg::jsrt;
  using namespace asyncg::acmeair;
  std::string Path = tempPath("acmeair");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  {
    Runtime RT;
    AppConfig ACfg;
    AcmeAirApp App(RT, ACfg);
    WorkloadConfig WCfg;
    WCfg.TotalRequests = 400;
    WCfg.Clients = 4;
    WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Rec);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    ASSERT_TRUE(Rec.finalize());
    ASSERT_EQ(Driver.completed(), 400u);
  }

  std::string WantDot, WantWarn;
  serialReference(Path, WantDot, WantWarn, /*Detect=*/true);
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    hubResult({Path}, Jobs, Dot, Warn, nullptr, /*Detect=*/true);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Multi-stream merge parity
//===----------------------------------------------------------------------===//

TEST(IngestMerge, StreamingMergeMatchesBatchAndHarness) {
  using namespace asyncg::cluster;
  std::string Dir = testhelpers::testTempPath("ingest_shards");
  ASSERT_EQ(::system(("mkdir -p " + Dir).c_str()), 0);
  ClusterConfig CCfg;
  CCfg.Loops = 2;
  CCfg.TotalRequests = 300;
  CCfg.TotalClients = 4;
  CCfg.RecordDir = Dir;
  ClusterHarness Harness(CCfg);
  Harness.run();
  std::string HarnessDot = viz::toDot(Harness.merged());

  std::vector<std::string> Paths = {Dir + "/shard0.agtrace",
                                    Dir + "/shard1.agtrace"};

  // Batch reference: serial replay per shard + ShardedGraph::build, with
  // a detector suite per shard builder exactly as the harness had them.
  std::string WantDot, WantWarn;
  {
    std::vector<std::unique_ptr<ag::AsyncGBuilder>> Builders;
    std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
    std::string Err;
    for (const std::string &P : Paths) {
      Builders.emplace_back(new ag::AsyncGBuilder());
      Suites.emplace_back(new detect::DetectorSuite());
      Suites.back()->attachTo(*Builders.back());
      ASSERT_TRUE(instr::replayTrace(P, *Builders.back(), &Err))
          << P << ": " << Err;
    }
    ag::ShardedGraph Merged;
    std::vector<const ag::AsyncGraph *> Shards;
    for (auto &B : Builders)
      Shards.push_back(&B->graph());
    Merged.build(Shards);
    WantDot = viz::toDot(Merged.merged());
    WantWarn = viz::warningsReport(Merged.merged());
  }
  EXPECT_EQ(WantDot, HarnessDot)
      << "batch replay reference diverged from the harness's own merge";

  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::IngestStats Stats;
    hubResult(Paths, Jobs, Dot, Warn, &Stats, /*Detect=*/true);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    ASSERT_EQ(Stats.Streams.size(), 2u);
    // Round-robin windows: with two live streams every stream must have
    // been scheduled at least once.
    EXPECT_GE(Stats.Windows, 2u);
    // Cross-loop deliveries exist in any 2-loop cluster run, and the
    // live view must agree with itself: resolved <= seen.
    EXPECT_GT(Stats.HandoffsSeen, 0u);
    EXPECT_LE(Stats.HandoffsResolvedLive, Stats.HandoffsSeen);
  }
  for (const std::string &P : Paths)
    std::remove(P.c_str());
  std::remove(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Torn-tail recovery parity
//===----------------------------------------------------------------------===//

TEST(IngestRecovery, TornTailMatchesSerialRecoveredReplay) {
  // Record a real workload, then cut the file mid-frame. The serial
  // replay recovers the clean frame prefix; the hub must produce the
  // exact same graph from the same prefix, at any job count. The
  // Table-I programs vary widely in trace size, so pick the first one
  // whose recording is big enough that a 60% cut still lands inside
  // the record section.
  std::string Path = tempPath("torn");
  std::vector<uint8_t> Image;
  for (const CaseDef &Def : allCases()) {
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path));
    runCaseWith(Def, /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());
    Image = slurpBytes(Path);
    if (Image.size() > 4096)
      break;
  }
  ASSERT_GT(Image.size(), 4096u)
      << "no Table-I case records a trace big enough to tear";

  for (double Frac : {0.9, 0.6}) {
    SCOPED_TRACE("cut at " + std::to_string(Frac));
    std::string Torn = tempPath("torn_cut");
    spitBytes(Torn, std::vector<uint8_t>(
                        Image.begin(),
                        Image.begin() + static_cast<size_t>(
                                            Image.size() * Frac)));

    ag::AsyncGBuilder Serial;
    std::string Err;
    instr::ReplayStats RStats;
    ASSERT_TRUE(instr::replayTrace(Torn, Serial, &Err,
                                   instr::ReplayTransport::Auto, &RStats))
        << Err;
    ASSERT_TRUE(RStats.Recovered);
    std::string WantDot = viz::toDot(Serial.graph());
    std::string WantWarn = viz::warningsReport(Serial.graph());

    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs));
      std::string Dot, Warn;
      ag::IngestStats Stats;
      hubResult({Torn}, Jobs, Dot, Warn, &Stats);
      EXPECT_EQ(Dot, WantDot);
      EXPECT_EQ(Warn, WantWarn);
      ASSERT_EQ(Stats.Streams.size(), 1u);
      EXPECT_TRUE(Stats.Streams[0].Recovered);
      EXPECT_FALSE(Stats.Streams[0].Fallback);
      EXPECT_EQ(Stats.Streams[0].Records, RStats.Records);
      EXPECT_GT(Stats.Streams[0].DroppedTailBytes, 0u);
    }
    std::remove(Torn.c_str());
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Raw-version fallback
//===----------------------------------------------------------------------===//

TEST(IngestFallback, RawTracesGoThroughReplayTrace) {
  const CaseDef &Def = allCases()[0];
  for (uint32_t Version : {2u, 3u}) {
    SCOPED_TRACE("v" + std::to_string(Version));
    std::string Path = tempPath("raw_v" + std::to_string(Version));
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(Path, /*Shard=*/0, Version));
    runCaseWith(Def, /*Fixed=*/false, Rec);
    ASSERT_TRUE(Rec.finalize());

    std::string WantDot, WantWarn;
    serialReference(Path, WantDot, WantWarn);
    std::string Dot, Warn;
    ag::IngestStats Stats;
    hubResult({Path}, 4, Dot, Warn, &Stats);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    ASSERT_EQ(Stats.Streams.size(), 1u);
    EXPECT_TRUE(Stats.Streams[0].Fallback);
    std::remove(Path.c_str());
  }
}

} // namespace
