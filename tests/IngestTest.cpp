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
///  - cluster shard streams (two and three loops, full and retiring
///    builders): the hub's stream workers and move merge vs the batch
///    ShardedGraph reference vs the harness's own merged graph, repeated
///    runs included, plus the merged graph's id indices and build()'s
///    untouched inputs;
///  - torn-tail traces: the hub's clean-prefix recovery vs the serial
///    recovered replay, again across job counts;
///  - record-byte accounting: replayTrace() and the hub report the bytes
///    of the record frames they applied, which for a whole trace is the
///    recorder's own recordBytes(), finalized or torn.
///
/// Plus unit and two-thread stress coverage for the MpmcQueue the decode
/// pool schedules through. The bench smoke --check leg re-runs this suite
/// under TSan, which is what turns "the decode pool and the stream workers
/// have no data races" into an enforced property.
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
#include <cstring>
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
  // fwrite's buffer must not be null even for zero bytes.
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
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
               ag::IngestStats *Stats = nullptr, bool Detect = false,
               ag::MergeStats *Merge = nullptr,
               const ag::BuilderConfig &Config = ag::BuilderConfig()) {
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Builder = Config;
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
  if (Merge)
    *Merge = Hub.mergeStats();
}

/// Serial replay of each path into its own builder (with a detector suite
/// per builder, as the cluster harness has them).
struct ShardReplay {
  std::vector<std::unique_ptr<ag::AsyncGBuilder>> Builders;
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;

  std::vector<const ag::AsyncGraph *> graphs() const {
    std::vector<const ag::AsyncGraph *> Gs;
    for (const auto &B : Builders)
      Gs.push_back(&B->graph());
    return Gs;
  }
};

void replayShards(const std::vector<std::string> &Paths, ShardReplay &R,
                  const ag::BuilderConfig &Config = ag::BuilderConfig()) {
  for (const std::string &P : Paths) {
    R.Builders.emplace_back(new ag::AsyncGBuilder(Config));
    R.Suites.emplace_back(new detect::DetectorSuite());
    R.Suites.back()->attachTo(*R.Builders.back());
    std::string Err;
    ASSERT_TRUE(instr::replayTrace(P, *R.Builders.back(), &Err))
        << P << ": " << Err;
  }
}

/// Batch reference: serial replay per shard + ShardedGraph::build.
void batchMerge(const std::vector<std::string> &Paths, std::string &Dot,
                std::string &Warnings, ag::MergeStats *Merge = nullptr,
                const ag::BuilderConfig &Config = ag::BuilderConfig()) {
  ShardReplay R;
  replayShards(Paths, R, Config);
  ag::ShardedGraph Merged;
  ag::MergeStats MS = Merged.build(R.graphs());
  Dot = viz::toDot(Merged.merged());
  Warnings = viz::warningsReport(Merged.merged());
  if (Merge)
    *Merge = MS;
}

/// Records a \p Loops-loop cluster run into \p Dir; returns the shard
/// trace paths in shard order.
std::vector<std::string> recordCluster(const std::string &Dir, uint32_t Loops,
                                       std::string *HarnessDot = nullptr) {
  EXPECT_EQ(::system(("mkdir -p " + Dir).c_str()), 0);
  cluster::ClusterConfig CCfg;
  CCfg.Loops = Loops;
  CCfg.TotalRequests = 300;
  CCfg.TotalClients = 4;
  CCfg.RecordDir = Dir;
  cluster::ClusterHarness Harness(CCfg);
  Harness.run();
  if (HarnessDot)
    *HarnessDot = viz::toDot(Harness.merged());
  std::vector<std::string> Paths;
  for (uint32_t S = 0; S != Loops; ++S)
    Paths.push_back(Dir + "/shard" + std::to_string(S) + ".agtrace");
  return Paths;
}

void removeCluster(const std::string &Dir,
                   const std::vector<std::string> &Paths) {
  for (const std::string &P : Paths)
    std::remove(P.c_str());
  std::remove(Dir.c_str());
}

void expectSameMergeStats(const ag::MergeStats &A, const ag::MergeStats &B) {
  EXPECT_EQ(A.Shards, B.Shards);
  EXPECT_EQ(A.Ticks, B.Ticks);
  EXPECT_EQ(A.Nodes, B.Nodes);
  EXPECT_EQ(A.Edges, B.Edges);
  EXPECT_EQ(A.Warnings, B.Warnings);
  EXPECT_EQ(A.CrossLoopEdges, B.CrossLoopEdges);
  EXPECT_EQ(A.UnresolvedHandoffs, B.UnresolvedHandoffs);
  EXPECT_EQ(A.SkippedRetiredTicks, B.SkippedRetiredTicks);
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
  std::string Dir = testhelpers::testTempPath("ingest_shards");
  std::string HarnessDot;
  std::vector<std::string> Paths = recordCluster(Dir, 2, &HarnessDot);

  // Batch reference: serial replay per shard + ShardedGraph::build, with
  // a detector suite per shard builder exactly as the harness had them.
  std::string WantDot, WantWarn;
  ag::MergeStats WantMerge;
  batchMerge(Paths, WantDot, WantWarn, &WantMerge);
  EXPECT_EQ(WantDot, HarnessDot)
      << "batch replay reference diverged from the harness's own merge";

  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::IngestStats Stats;
    ag::MergeStats Merge;
    hubResult(Paths, Jobs, Dot, Warn, &Stats, /*Detect=*/true, &Merge);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    ASSERT_EQ(Stats.Streams.size(), 2u);
    // One turn per stream.
    EXPECT_EQ(Stats.Windows, 2u);
    // Cross-loop deliveries exist in any 2-loop cluster run, and the merge
    // joins them to their senders.
    EXPECT_GT(Merge.CrossLoopEdges, 0u);
    expectSameMergeStats(Merge, WantMerge);
  }
  removeCluster(Dir, Paths);
}

TEST(IngestMerge, MoreStreamsThanWorkersMatchSerialReplay) {
  // Three shard streams: at jobs=2 one worker takes two streams, at
  // jobs=4 a worker has nothing to take.
  std::string Dir = testhelpers::testTempPath("ingest_shards3");
  std::string HarnessDot;
  std::vector<std::string> Paths = recordCluster(Dir, 3, &HarnessDot);
  std::string WantDot, WantWarn;
  ag::MergeStats WantMerge;
  batchMerge(Paths, WantDot, WantWarn, &WantMerge);
  EXPECT_EQ(WantDot, HarnessDot);
  EXPECT_EQ(WantMerge.Shards, 3u);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::IngestStats Stats;
    ag::MergeStats Merge;
    hubResult(Paths, Jobs, Dot, Warn, &Stats, /*Detect=*/true, &Merge);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    EXPECT_EQ(Stats.Windows, 3u);
    expectSameMergeStats(Merge, WantMerge);
  }
  removeCluster(Dir, Paths);
}

TEST(IngestMerge, FailingStreamFailsTheRun) {
  // The unreadable stream is reported whichever worker drains it, and
  // the readable one before it still reports its stats.
  std::string Dir = testhelpers::testTempPath("ingest_shards_fail");
  std::vector<std::string> Paths = recordCluster(Dir, 2);
  const std::string Missing = Dir + "/missing.agtrace";
  for (unsigned Jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    ag::IngestOptions Opts;
    Opts.Jobs = Jobs;
    ag::IngestHub Hub(Opts);
    Hub.addFile(Paths[0]);
    Hub.addFile(Missing);
    std::string Err;
    EXPECT_FALSE(Hub.run(&Err));
    EXPECT_EQ(Err.rfind(Missing + ": ", 0), 0u) << Err;
    EXPECT_GT(Hub.stats().Streams[0].Records, 0u);
  }
  removeCluster(Dir, Paths);
}

TEST(IngestMerge, ParallelStreamsAreDeterministic) {
  // Two stream workers intern symbols concurrently; the output must not
  // depend on which thread interned a string first.
  std::string Dir = testhelpers::testTempPath("ingest_shards_det");
  std::vector<std::string> Paths = recordCluster(Dir, 2);
  std::string WantDot, WantWarn;
  batchMerge(Paths, WantDot, WantWarn);
  for (int Rep = 0; Rep != 10; ++Rep) {
    SCOPED_TRACE("rep " + std::to_string(Rep));
    std::string Dot, Warn;
    hubResult(Paths, 2, Dot, Warn, nullptr, /*Detect=*/true);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
  }
  removeCluster(Dir, Paths);
}

/// The union as a node-by-node copy builds it, tick by tick in shard
/// order, skipping retired ticks, then the handoff join: the reference the
/// move merge and its compaction step must reproduce.
ag::AsyncGraph copyMerge(const std::vector<const ag::AsyncGraph *> &Shards) {
  using namespace asyncg::ag;
  AsyncGraph G;
  uint32_t IndexBase = 0;
  for (uint32_t S = 0; S != Shards.size(); ++S) {
    const AsyncGraph &In = *Shards[S];
    std::vector<NodeId> Remap(In.nodes().size(), InvalidNode);
    const uint32_t Base = IndexBase;
    for (const AgTick &T : In.ticks()) {
      if (T.Retired)
        continue;
      AgTick NT;
      NT.Index = Base + T.Index;
      NT.Phase = T.Phase;
      NT.Shard = S;
      for (NodeId Old : In.tickNodes(T))
        Remap[Old] = G.addNode(In.node(Old), NT);
      IndexBase = NT.Index;
      G.appendTick(std::move(NT));
    }
    for (uint32_t E = 0; E != In.edges().size(); ++E) {
      const AgEdge &Ed = In.edge(E);
      if (!In.deadEdge(E) && Remap[Ed.From] != InvalidNode &&
          Remap[Ed.To] != InvalidNode)
        G.addEdge(Remap[Ed.From], Remap[Ed.To], Ed.Kind, Ed.Label);
    }
    for (Warning W : In.warnings()) {
      W.Node = W.Node < Remap.size() ? Remap[W.Node] : InvalidNode;
      if (W.Tick != 0)
        W.Tick += Base;
      G.addWarning(std::move(W));
    }
  }
  const Symbol XLoop("xloop");
  for (NodeId N = 0; N != G.nodes().size(); ++N) {
    const AgNode &Node = G.node(N);
    if (Node.Kind != NodeKind::CE ||
        Node.Api != jsrt::ApiKind::ClusterRecv || Node.Sched == 0)
      continue;
    if (NodeId Ct = G.triggerNode(Node.Sched); Ct != InvalidNode)
      G.addEdge(Ct, N, EdgeKind::Causal, XLoop);
  }
  return G;
}

/// \p Got holds exactly \p Want's storage: ticks, nodes, edges, both
/// adjacency lists of every node, warnings, and every id index.
void expectSameGraph(const ag::AsyncGraph &Got, const ag::AsyncGraph &Want) {
  using namespace asyncg::ag;
  ASSERT_EQ(Got.ticks().size(), Want.ticks().size());
  for (size_t I = 0; I != Want.ticks().size(); ++I) {
    const AgTick &G = Got.ticks()[I], &W = Want.ticks()[I];
    EXPECT_EQ(G.Index, W.Index);
    EXPECT_EQ(G.Shard, W.Shard);
    EXPECT_EQ(G.Phase, W.Phase);
    auto GotNodes = Got.tickNodes(G), WantNodes = Want.tickNodes(W);
    EXPECT_EQ(std::vector<NodeId>(GotNodes.begin(), GotNodes.end()),
              std::vector<NodeId>(WantNodes.begin(), WantNodes.end()))
        << "tick " << W.Index;
  }
  ASSERT_EQ(Got.nodes().size(), Want.nodes().size());
  auto List = [](EdgeRange R) {
    std::vector<uint32_t> V;
    for (uint32_t E : R)
      V.push_back(E);
    return V;
  };
  for (NodeId N = 0; N != Want.nodes().size(); ++N) {
    const AgNode &G = Got.node(N), &W = Want.node(N);
    ASSERT_EQ(G.Id, W.Id);
    EXPECT_EQ(G.Kind, W.Kind);
    EXPECT_EQ(G.Tick, W.Tick) << "node " << N;
    EXPECT_EQ(nodeLabel(G), nodeLabel(W));
    EXPECT_EQ(List(Got.outEdges(N)), List(Want.outEdges(N))) << "node " << N;
    EXPECT_EQ(List(Got.inEdges(N)), List(Want.inEdges(N))) << "node " << N;
    EXPECT_EQ(Got.objectNode(W.Obj), Want.objectNode(W.Obj));
    EXPECT_EQ(Got.registrationNode(W.Sched), Want.registrationNode(W.Sched));
    EXPECT_EQ(Got.triggerNode(W.Trigger), Want.triggerNode(W.Trigger));
    EXPECT_EQ(Got.executionsOf(W.Sched), Want.executionsOf(W.Sched));
  }
  ASSERT_EQ(Got.edges().size(), Want.edges().size());
  for (uint32_t E = 0; E != Want.edges().size(); ++E) {
    const AgEdge &G = Got.edge(E), &W = Want.edge(E);
    EXPECT_EQ(G.From, W.From);
    EXPECT_EQ(G.To, W.To);
    EXPECT_EQ(G.Kind, W.Kind);
    EXPECT_EQ(G.Label, W.Label);
  }
  ASSERT_EQ(Got.warnings().size(), Want.warnings().size());
  for (size_t I = 0; I != Want.warnings().size(); ++I) {
    EXPECT_EQ(Got.warnings()[I].Node, Want.warnings()[I].Node);
    EXPECT_EQ(Got.warnings()[I].Tick, Want.warnings()[I].Tick);
    EXPECT_EQ(Got.warnings()[I].Message, Want.warnings()[I].Message);
  }
}

TEST(IngestMerge, RetiringStreamsMatchSerialBatchMerge) {
  // Retiring builders leave tombstones and recycled slots behind; the
  // merge compacts each stream in tick order before moving it in.
  std::string Dir = testhelpers::testTempPath("ingest_shards_retire");
  std::vector<std::string> Paths = recordCluster(Dir, 2);
  ag::BuilderConfig Config;
  Config.Retire = true;
  std::string CopyDot, CopyWarn;
  {
    ShardReplay R;
    replayShards(Paths, R, Config);
    for (const ag::AsyncGraph *G : R.graphs())
      ASSERT_GT(G->retired().Ticks, 0u) << "nothing retired: the test "
                                           "would not reach compaction";
    ag::AsyncGraph Copy = copyMerge(R.graphs());
    CopyDot = viz::toDot(Copy);
    CopyWarn = viz::warningsReport(Copy);
    ag::ShardedGraph Merged;
    Merged.build(R.graphs());
    expectSameGraph(Merged.merged(), Copy);
  }
  std::string WantDot, WantWarn;
  ag::MergeStats WantMerge;
  batchMerge(Paths, WantDot, WantWarn, &WantMerge, Config);
  EXPECT_EQ(WantDot, CopyDot) << "compaction diverged from a tick-by-tick copy";
  EXPECT_EQ(WantWarn, CopyWarn);
  for (unsigned Jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::MergeStats Merge;
    hubResult(Paths, Jobs, Dot, Warn, nullptr, /*Detect=*/true, &Merge,
              Config);
    EXPECT_EQ(Dot, WantDot);
    EXPECT_EQ(Warn, WantWarn);
    expectSameMergeStats(Merge, WantMerge);
  }
  removeCluster(Dir, Paths);
}

/// Every id index of \p Merged answers as the shards' own indices do,
/// remapped: point indices resolve to the last shard holding the id,
/// execution chains concatenate in shard order.
void expectRemappedQueries(const std::vector<const ag::AsyncGraph *> &Shards,
                           const ag::AsyncGraph &Merged) {
  using namespace asyncg::ag;
  std::vector<NodeId> Base;
  NodeId Next = 0;
  for (const AsyncGraph *G : Shards) {
    Base.push_back(Next);
    Next += static_cast<NodeId>(G->nodes().size());
  }
  ASSERT_EQ(Merged.nodes().size(), Next);
  auto Last = [&](auto Query, uint64_t Id) {
    NodeId Want = InvalidNode;
    for (size_t S = 0; S != Shards.size(); ++S)
      if (NodeId N = Query(*Shards[S], Id); N != InvalidNode)
        Want = N + Base[S];
    return Want;
  };
  size_t Checked = 0;
  for (const AsyncGraph *G : Shards)
    for (const AgNode &N : G->nodes()) {
      ++Checked;
      switch (N.Kind) {
      case NodeKind::OB:
        EXPECT_EQ(Merged.objectNode(N.Obj),
                  Last([](const AsyncGraph &A, uint64_t I) {
                    return A.objectNode(I);
                  }, N.Obj));
        break;
      case NodeKind::CR:
        EXPECT_EQ(Merged.registrationNode(N.Sched),
                  Last([](const AsyncGraph &A, uint64_t I) {
                    return A.registrationNode(I);
                  }, N.Sched));
        break;
      case NodeKind::CT:
        EXPECT_EQ(Merged.triggerNode(N.Trigger),
                  Last([](const AsyncGraph &A, uint64_t I) {
                    return A.triggerNode(I);
                  }, N.Trigger));
        break;
      case NodeKind::CE: {
        std::vector<NodeId> Want;
        for (size_t S = 0; S != Shards.size(); ++S)
          for (NodeId E : Shards[S]->executionsOf(N.Sched))
            Want.push_back(E + Base[S]);
        EXPECT_EQ(Merged.executionsOf(N.Sched), Want);
        break;
      }
      }
    }
  EXPECT_GT(Checked, 0u);
}

TEST(IngestMerge, MergedIndicesMatchRemappedShards) {
  std::string Dir = testhelpers::testTempPath("ingest_shards_idx");
  std::vector<std::string> Paths = recordCluster(Dir, 2);
  ShardReplay R;
  replayShards(Paths, R);
  {
    SCOPED_TRACE("two shards");
    ag::ShardedGraph Merged;
    Merged.build(R.graphs());
    expectRemappedQueries(R.graphs(), Merged.merged());
    expectSameGraph(Merged.merged(), copyMerge(R.graphs()));
  }
  {
    // The same graph twice: every id collides, so point indices take the
    // second copy and execution chains concatenate.
    SCOPED_TRACE("one shard twice");
    std::vector<const ag::AsyncGraph *> Twice = {R.graphs()[0],
                                                 R.graphs()[0]};
    ag::ShardedGraph Merged;
    Merged.build(Twice);
    expectRemappedQueries(Twice, Merged.merged());
    expectSameGraph(Merged.merged(), copyMerge(Twice));
  }
  removeCluster(Dir, Paths);
}

TEST(IngestMerge, BuildLeavesInputsUnchanged) {
  std::string Dir = testhelpers::testTempPath("ingest_shards_const");
  std::vector<std::string> Paths = recordCluster(Dir, 2);
  for (bool Retire : {false, true}) {
    SCOPED_TRACE(Retire ? "retiring" : "full");
    ag::BuilderConfig Config;
    Config.Retire = Retire;
    ShardReplay R;
    replayShards(Paths, R, Config);
    std::vector<std::string> Before;
    for (const ag::AsyncGraph *G : R.graphs())
      Before.push_back(viz::toDot(*G) + viz::warningsReport(*G));
    ag::ShardedGraph Merged;
    Merged.build(R.graphs());
    for (size_t S = 0; S != Before.size(); ++S)
      EXPECT_EQ(viz::toDot(*R.graphs()[S]) +
                    viz::warningsReport(*R.graphs()[S]),
                Before[S])
          << "shard " << S;
  }
  removeCluster(Dir, Paths);
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
      EXPECT_EQ(Stats.Streams[0].Records, RStats.Records);
      EXPECT_EQ(Stats.Streams[0].RecordBytes, RStats.RecordBytes);
      EXPECT_EQ(Stats.Streams[0].DroppedTailBytes, RStats.DroppedTailBytes);
      EXPECT_GT(Stats.Streams[0].DroppedTailBytes, 0u);
    }
    std::remove(Torn.c_str());
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Record-byte accounting
//===----------------------------------------------------------------------===//

/// Replays \p Path through replayTrace() and the hub at jobs 1 and 2; each
/// must report \p WantBytes record bytes and \p WantRecords records.
void expectRecordBytes(const std::string &Path, uint64_t WantRecords,
                       uint64_t WantBytes, bool Torn) {
  ag::AsyncGBuilder Serial;
  std::string Err;
  instr::ReplayStats RStats;
  ASSERT_TRUE(instr::replayTrace(Path, Serial, &Err,
                                 instr::ReplayTransport::Auto, &RStats))
      << Err;
  EXPECT_EQ(RStats.Recovered, Torn);
  EXPECT_EQ(RStats.Records, WantRecords);
  EXPECT_EQ(RStats.RecordBytes, WantBytes);
  EXPECT_EQ(RStats.DroppedTailBytes, 0u);
  for (unsigned Jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    std::string Dot, Warn;
    ag::IngestStats Stats;
    hubResult({Path}, Jobs, Dot, Warn, &Stats);
    ASSERT_EQ(Stats.Streams.size(), 1u);
    EXPECT_EQ(Stats.Streams[0].Recovered, Torn);
    EXPECT_EQ(Stats.Streams[0].Records, WantRecords);
    EXPECT_EQ(Stats.Streams[0].RecordBytes, WantBytes);
  }
}

/// The finalized trace at \p Path, then a torn copy of it cut where a crash
/// after the last frame flush leaves it (no symbol section, header counts
/// still zero): both replay every record frame, so both report exactly
/// the recorder's record bytes — symbol checkpoints excluded.
void checkRecordBytes(const std::string &Path,
                      const instr::TraceRecorder &Rec) {
  {
    SCOPED_TRACE("finalized");
    expectRecordBytes(Path, Rec.recordCount(), Rec.recordBytes(), false);
  }
  std::vector<uint8_t> Image = slurpBytes(Path);
  trace::TraceFileHeader H;
  ASSERT_GE(Image.size(), sizeof(H));
  std::memcpy(&H, Image.data(), sizeof(H));
  ASSERT_LT(H.SymtabOffset, Image.size());
  Image.resize(static_cast<size_t>(H.SymtabOffset));
  for (size_t I = 16; I < 32; ++I)
    Image[I] = 0;
  std::string Torn = Path + ".torn";
  spitBytes(Torn, Image);
  {
    SCOPED_TRACE("torn");
    expectRecordBytes(Torn, Rec.recordCount(), Rec.recordBytes(), true);
  }
  std::remove(Torn.c_str());
}

TEST(RecordBytes, TableICaseCountsRecordFramesOnly) {
  const CaseDef *Def = nullptr;
  for (const CaseDef &D : allCases())
    if (D.Name == "SO-38140113")
      Def = &D;
  ASSERT_NE(Def, nullptr);
  std::string Path = tempPath("bytes_case");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  runCaseWith(*Def, /*Fixed=*/false, Rec);
  ASSERT_TRUE(Rec.finalize());
  checkRecordBytes(Path, Rec);
  std::remove(Path.c_str());
}

TEST(RecordBytes, AcmeAirCountsRecordFramesOnly) {
  using namespace asyncg::jsrt;
  using namespace asyncg::acmeair;
  std::string Path = tempPath("bytes_acmeair");
  instr::TraceRecorder Rec;
  ASSERT_TRUE(Rec.open(Path));
  {
    Runtime RT;
    AppConfig ACfg;
    AcmeAirApp App(RT, ACfg);
    WorkloadConfig WCfg;
    WCfg.TotalRequests = 800;
    WCfg.Clients = 8;
    WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Rec);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    ASSERT_TRUE(Rec.finalize());
    ASSERT_EQ(Driver.completed(), 800u);
  }
  // Several frames, so the checkpoints interleave rather than lead.
  ASSERT_GT(Rec.recordCount(), 2 * trace::FrameRecords);
  checkRecordBytes(Path, Rec);
  std::remove(Path.c_str());
}

} // namespace
