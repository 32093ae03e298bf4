//===- ClusterTest.cpp - sharded multi-loop cluster mode ---------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cluster mode's correctness contract:
///  - shard-id packing round-trips, and shard 0 is the identity encoding;
///  - a 1-loop cluster run produces a merged graph byte-identical (as DOT)
///    to the classic single-loop build of the same workload;
///  - an N-loop run is deterministic where it promises to be: repeated
///    runs with the same seed yield the identical merged warning set, and
///    that set equals the single-loop one (loop-local bugs neither move
///    nor duplicate under sharding);
///  - cross-loop handoffs surface as "xloop" Causal edges in the merged
///    graph, with no unresolved handoff ids;
///  - the v3 trace format announces the recording shard and stays
///    byte-identical to v2 for shard 0.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Ids.h"
#include "jsrt/Runtime.h"
#include "viz/Dot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace asyncg;
using namespace asyncg::jsrt;

namespace {

TEST(ShardIds, PackingRoundTrips) {
  EXPECT_EQ(shardIdBase(0), 0u);
  EXPECT_EQ(idShard(shardIdBase(3) | 42u), 3u);
  EXPECT_EQ(idLocal(shardIdBase(3) | 42u), 42u);
  EXPECT_EQ(idShard(MaxShardId), 0u); // small local ids carry no shard
  EXPECT_EQ(idShard(shardIdBase(MaxShardId)), MaxShardId);
  EXPECT_EQ(idLocal(shardIdBase(MaxShardId)), 0u);
  // Shard 0 is the identity encoding: packing changes nothing.
  for (uint64_t Id : {uint64_t(0), uint64_t(1), uint64_t(1) << 40}) {
    EXPECT_EQ(shardIdBase(0) | Id, Id);
    EXPECT_EQ(idLocal(Id), Id);
  }
}

TEST(ShardIds, RuntimeMintsPackedIds) {
  RuntimeConfig RC;
  RC.Shard = 5;
  Runtime RT(RC);
  Function F = RT.makeBuiltin(
      "f", [](Runtime &, const CallArgs &) { return Completion::normal(); });
  EXPECT_EQ(idShard(F.id()), 5u);
  EXPECT_GT(idLocal(F.id()), 0u);
}

/// The classic single-loop build of the AcmeAir workload, mirroring what
/// the cluster harness does for its only shard when Loops == 1.
std::string singleLoopDot(uint64_t Requests, int Clients, uint64_t Seed) {
  Runtime RT;
  acmeair::AppConfig ACfg;
  acmeair::AcmeAirApp App(RT, ACfg);
  acmeair::WorkloadConfig WCfg;
  WCfg.Clients = Clients;
  WCfg.TotalRequests = Requests;
  WCfg.Seed = Seed;
  acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);

  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  RT.hooks().attach(&Builder);

  // Same app-start location the cluster harness uses, so the graphs can
  // be compared byte-for-byte (JSLOC would bake in this file's line).
  Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
    App.start(JSLINE("cluster.js", 1));
    Driver.start();
    return Completion::normal();
  });
  RT.main(Main);
  EXPECT_EQ(Driver.completed(), Requests);
  return viz::toDot(Builder.graph());
}

TEST(ClusterMode, OneLoopMergedDotMatchesClassicSingleLoop) {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 1;
  Cfg.TotalRequests = 300;
  Cfg.TotalClients = 8;
  Cfg.Mode = ag::PipelineMode::Synchronous;
  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();
  ASSERT_EQ(R.TotalCompleted, Cfg.TotalRequests);
  ASSERT_EQ(R.TotalErrors, 0u);
  EXPECT_EQ(R.Merge.CrossLoopEdges, 0u);

  std::string Merged = viz::toDot(H.merged());
  std::string Classic =
      singleLoopDot(Cfg.TotalRequests, Cfg.TotalClients, Cfg.Seed);
  // Compare by hand: a full gtest string diff of two multi-megabyte DOT
  // files is unreadable (and slow); the first divergent byte is enough.
  if (Merged != Classic) {
    size_t At = 0;
    while (At < Merged.size() && At < Classic.size() &&
           Merged[At] == Classic[At])
      ++At;
    FAIL() << "merged DOT diverges from classic single-loop DOT at byte "
           << At << " (sizes " << Merged.size() << " vs " << Classic.size()
           << "):\n merged:  ..."
           << Merged.substr(At > 40 ? At - 40 : 0, 120) << "\n classic: ..."
           << Classic.substr(At > 40 ? At - 40 : 0, 120);
  }
}

cluster::ClusterConfig fourLoopConfig() {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 4;
  Cfg.TotalRequests = 400;
  Cfg.TotalClients = 16;
  Cfg.Mode = ag::PipelineMode::Async;
  Cfg.GossipIntervalMs = 1;
  return Cfg;
}

TEST(ClusterMode, MergedWarningsDeterministicAndEqualToSingleLoop) {
  cluster::ClusterConfig Cfg1;
  Cfg1.TotalRequests = 400;
  Cfg1.TotalClients = 16;
  cluster::ClusterHarness H1(Cfg1);
  cluster::ClusterResult R1 = H1.run();
  ASSERT_EQ(R1.TotalCompleted, Cfg1.TotalRequests);
  ASSERT_FALSE(R1.Warnings.empty());

  std::vector<std::string> First;
  for (int Run = 0; Run != 3; ++Run) {
    cluster::ClusterHarness H(fourLoopConfig());
    cluster::ClusterResult R = H.run();
    ASSERT_EQ(R.TotalCompleted, 400u) << "run " << Run;
    ASSERT_EQ(R.TotalErrors, 0u) << "run " << Run;
    if (Run == 0)
      First = R.Warnings;
    else
      EXPECT_EQ(R.Warnings, First) << "run " << Run;
  }
  // Loop-local bugs neither move nor duplicate when the app is sharded.
  EXPECT_EQ(First, R1.Warnings);
}

TEST(ClusterMode, CrossLoopHandoffsBecomeXloopEdges) {
  cluster::ClusterHarness H(fourLoopConfig());
  cluster::ClusterResult R = H.run();
  ASSERT_EQ(R.TotalCompleted, 400u);
  EXPECT_GT(R.Merge.CrossLoopEdges, 0u);
  EXPECT_EQ(R.Merge.UnresolvedHandoffs, 0u);
  EXPECT_EQ(R.Merge.Shards, 4u);

  uint64_t Sent = 0, Received = 0;
  for (const cluster::ShardResult &S : R.Shards) {
    Sent += S.Sent;
    Received += S.Received;
  }
  EXPECT_GT(Sent, 0u);
  // The kernel delivers every message posted before quiesce; the merged
  // graph carries exactly one xloop edge per delivered message.
  EXPECT_EQ(R.Merge.CrossLoopEdges, Received);
  EXPECT_LE(Received, Sent);
}

/// A tiny deterministic workload for trace tests.
void runTinyWorkload(Runtime &RT) {
  Function Main = RT.makeBuiltin("main", [](Runtime &R, const CallArgs &) {
    Function Cb = R.makeFunction(
        "tick", JSLOC,
        [](Runtime &, const CallArgs &) { return Completion::normal(); });
    R.setTimeout(JSLOC, Cb, 1);
    return Completion::normal();
  });
  RT.main(Main);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(TraceV3, ShardInfoRoundTripsAndShardZeroStaysV2) {
  std::string P0 = testhelpers::testTempPath("cluster_s0.agtrace");
  std::string P0x = testhelpers::testTempPath("cluster_s0x.agtrace");
  std::string P3 = testhelpers::testTempPath("cluster_s3.agtrace");

  {
    Runtime RT;
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(P0)); // default shard
    RT.hooks().attach(&Rec);
    runTinyWorkload(RT);
    ASSERT_TRUE(Rec.finalize());
  }
  {
    Runtime RT;
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(P0x, /*Shard=*/0)); // explicit shard 0
    RT.hooks().attach(&Rec);
    runTinyWorkload(RT);
    ASSERT_TRUE(Rec.finalize());
  }
  // Shard 0 writes no ShardInfo record: explicit and default are
  // byte-identical, i.e. exactly the v2 stream.
  EXPECT_EQ(slurp(P0), slurp(P0x));

  {
    RuntimeConfig RC;
    RC.Shard = 3;
    Runtime RT(RC);
    instr::TraceRecorder Rec;
    ASSERT_TRUE(Rec.open(P3, /*Shard=*/3));
    RT.hooks().attach(&Rec);
    runTinyWorkload(RT);
    ASSERT_TRUE(Rec.finalize());
  }

  // Replay the shard-3 trace by hand so the decoder is inspectable.
  trace::TraceFileReader Reader;
  std::string Err;
  ASSERT_TRUE(Reader.open(P3, &Err)) << Err;
  instr::TraceDecoder Decoder;
  Decoder.setSymbolRemap(Reader.symbolRemap());
  ag::AsyncGBuilder Builder;
  trace::TraceRecord Buf[256];
  while (size_t N = Reader.read(Buf, 256))
    Decoder.decode(Buf, N, Builder);
  EXPECT_EQ(Decoder.shard(), 3u);
  EXPECT_EQ(Decoder.badRecords(), 0u);
  EXPECT_GT(Builder.graph().nodes().size(), 0u);

  std::remove(P0.c_str());
  std::remove(P0x.c_str());
  std::remove(P3.c_str());
}

} // namespace
