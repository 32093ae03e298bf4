//===- Rig.cpp - assembling the measured system from public pieces ------------===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Rig.h"

#include "ag/IngestHub.h"
#include "ag/ShardedGraph.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "sim/RealKernel.h"
#include "support/TraceFormat.h"
#include "viz/Dot.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace asyncg;

const char *const perfbench::EventKindNames[NumEventKinds] = {
    "enter",        "exit",    "api",  "object_create", "reaction",
    "promise_link", "release", "tick", "other"};
const char *const perfbench::ApiClassNames[NumApiClasses] = {
    "registration", "trigger", "combinator", "misc"};
const char *const perfbench::FamilyNames[NumFamilies] = {"scheduling",
                                                         "emitter", "promise"};

namespace {

ag::BuilderConfig builderConfig(bool Retire) {
  ag::BuilderConfig B;
  B.Retire = Retire;
  return B;
}

DetectorFamily familyOf(const detect::DetectorSuite &S,
                        const ag::GraphObserver *D) {
  if (D == &S.Recursive || D == &S.Mixed || D == &S.TimeoutOrder)
    return FScheduling;
  if (D == &S.Promises)
    return FPromise;
  return FEmitter;
}

} // namespace

AnalysisRig::AnalysisRig(const RigConfig &Config)
    : Config(Config), Builder(builderConfig(Config.Retire)) {
  switch (Config.Trace) {
  case Tracing::Off:
    Suite.attachTo(Builder);
    break;
  case Tracing::Suite:
    SuiteTimer = std::make_unique<ObserverTimer>(Suite, &Clock);
    Builder.addObserver(SuiteTimer.get());
    break;
  case Tracing::Members:
    // Each enabled detector on its own forwarder, in the suite's order.
    for (ag::GraphObserver *D : Suite.detectors()) {
      MemberTimers.push_back(std::make_unique<ObserverTimer>(*D, &Clock));
      MemberFamilies.push_back(familyOf(Suite, D));
      Builder.addObserver(MemberTimers.back().get());
    }
    break;
  }
  instr::AnalysisBase *Sink = &Builder;
  if (Config.Trace != Tracing::Off) {
    BuilderTimer = std::make_unique<BuilderSideTimer>(
        Builder, &Clock, Config.Pipeline ? &Board : nullptr);
    Sink = BuilderTimer.get();
  }
  if (!Config.Pipeline)
    return;
  ag::PipelineConfig PCfg; // default bounded ring, Block, Concurrent
  PCfg.RecordPath = Config.TeePath;
  Pipeline = std::make_unique<ag::AsyncPipeline>(*Sink, PCfg);
  if (Config.Trace != Tracing::Off)
    LoopTimer = std::make_unique<LoopSideTimer>(*Pipeline, &Board);
}

AnalysisRig::~AnalysisRig() {
  if (Pipeline)
    Pipeline->stop();
}

instr::AnalysisBase *AnalysisRig::hook() {
  if (LoopTimer)
    return LoopTimer.get();
  if (Pipeline)
    return Pipeline.get();
  if (BuilderTimer)
    return BuilderTimer.get();
  return &Builder;
}

void AnalysisRig::stop() {
  if (!Pipeline)
    return;
  uint64_t T0 = nowNs();
  Pipeline->stop();
  DrainTailNs = nowNs() - T0;
}

std::vector<std::string> AnalysisRig::warnings() const {
  return cluster::resolveWarnings(Builder.graph());
}

LiveRun perfbench::runLiveRep(uint64_t Seed, uint64_t Requests, int Clients,
                              bool Analysis, const RigConfig &Config) {
  LiveRun R;
  R.Requests = Requests;
  uint64_t T0 = nowNs();
  jsrt::Runtime RT;
  acmeair::AppConfig ACfg;
  acmeair::AcmeAirApp App(RT, ACfg);
  acmeair::WorkloadConfig WCfg;
  WCfg.Clients = Clients;
  WCfg.TotalRequests = Requests;
  WCfg.Seed = Seed;
  acmeair::WorkloadDriver Driver(RT, ACfg.Port, WCfg);
  if (Analysis) {
    R.Rig = std::make_unique<AnalysisRig>(Config);
    RT.hooks().attach(R.Rig->hook());
  }
  uint64_t First = 0;
  jsrt::Function Main =
      RT.makeBuiltin("main", [&](jsrt::Runtime &, const jsrt::CallArgs &) {
        App.start(JSLINE("bench.js", 1));
        First = nowNs();
        Driver.start();
        return jsrt::Completion::normal();
      });
  uint64_t Cpu0 = threadCpuNs();
  RT.main(Main);
  uint64_t Served = nowNs();
  R.LoopCpuNs = threadCpuNs() - Cpu0;
  if (R.Rig)
    R.Rig->stop();
  uint64_t End = nowNs();
  R.SetupNs = First - T0;
  R.LoopWallNs = Served - First;
  R.CompleteNs = End - First;
  R.Completed = Driver.completed();
  R.Errors = Driver.errors();
  R.Sys = RT.kernel().kernelStats();
  if (R.Rig) {
    RT.hooks().detach(R.Rig->hook());
    R.Warnings = R.Rig->warnings();
  }
  return R;
}

int perfbench::freePort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  int Port = 0;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0 &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    Port = ntohs(Addr.sin_port);
  ::close(Fd);
  return Port;
}

WireServer::WireServer(sim::KernelBackend Backend, RigConfig Config)
    : Backend(Backend), Config(std::move(Config)) {
  T0 = nowNs();
  Port = freePort();
  Loop = std::thread([this] { loopMain(); });
}

WireServer::~WireServer() {
  if (Loop.joinable())
    stop();
}

void WireServer::loopMain() {
  jsrt::RuntimeConfig RC;
  RC.Backend = Backend;
  jsrt::Runtime RT(RC);
  auto *RK = static_cast<sim::RealKernel *>(&RT.realKernel());
  acmeair::AppConfig ACfg;
  ACfg.Port = Port;
  // The mock database answers at once: its latency runs on real timers
  // here and would cap a few connections far below the server's rate.
  ACfg.Mongo.LatencyUs = 0;
  acmeair::AcmeAirApp App(RT, ACfg);
  Out.Rig = std::make_unique<AnalysisRig>(Config);
  RT.hooks().attach(Out.Rig->hook());
  jsrt::Function Main =
      RT.makeBuiltin("main", [&](jsrt::Runtime &, const jsrt::CallArgs &) {
        App.start(JSLINE("bench.js", 1));
        Kernel.store(RK, std::memory_order_release);
        State.store(1, std::memory_order_release);
        return jsrt::Completion::normal();
      });
  uint64_t Cpu0 = threadCpuNs();
  uint64_t Wall0 = nowNs();
  RT.main(Main);
  Out.LoopCpuNs = threadCpuNs() - Cpu0;
  Out.LoopWallNs = nowNs() - Wall0;
  Out.Rig->stop();
  PipelineDoneAt = nowNs();
  Out.Completed = App.served();
  Out.Sys = RT.kernel().kernelStats();
  RT.hooks().detach(Out.Rig->hook());
  Out.Warnings = Out.Rig->warnings();
  if (State.load(std::memory_order_acquire) == 0)
    State.store(2, std::memory_order_release);
  // requestStop() may still be running on the caller's thread after the
  // loop saw the stop flag; the kernel must outlive that call.
  while (!StopReturned.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

bool WireServer::waitReady(int TimeoutMs) {
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(TimeoutMs) * 1000000;
  while (State.load(std::memory_order_acquire) == 0 && nowNs() < Deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  ReadyAt = nowNs();
  Out.SetupNs = ReadyAt - T0;
  return State.load(std::memory_order_acquire) == 1;
}

LiveRun WireServer::stop() {
  if (auto *RK = static_cast<sim::RealKernel *>(
          Kernel.load(std::memory_order_acquire)))
    RK->requestStop();
  StopReturned.store(true, std::memory_order_release);
  Loop.join();
  Out.CompleteNs = PipelineDoneAt > ReadyAt ? PipelineDoneAt - ReadyAt : 0;
  return std::move(Out);
}

OfflineRun perfbench::runOffline(const std::vector<std::string> &Files,
                                 bool Scan) {
  OfflineRun R;
  if (Scan) {
    for (const std::string &F : Files) {
      trace::TraceMmapReader Reader;
      std::string Err;
      if (!Reader.open(F, &Err)) {
        R.Ok = false;
        R.Error = F + ": " + Err;
        return R;
      }
      std::vector<trace::TraceFrameRef> Frames;
      uint64_t T0 = nowNs();
      bool Ok = trace::scanV4Frames(Reader.recordData(), Reader.recordByteSize(),
                                    Reader.header().RecordCount, Frames, &Err);
      R.ScanNs += nowNs() - T0;
      if (!Ok) {
        R.Ok = false;
        R.Error = F + ": " + Err;
        return R;
      }
      R.Frames += Frames.size();
      uint64_t Decoded = 0;
      uint64_t Sink = 0;
      T0 = nowNs();
      for (const trace::TraceFrameRef &Fr : Frames) {
        size_t Consumed = 0;
        if (!trace::decodeV4Frame(
                Reader.recordData() + Fr.Offset, Fr.Bytes, Consumed,
                [&](const trace::TraceRecord &Rec) {
                  ++Decoded;
                  Sink += Rec.F64;
                },
                &Err)) {
          R.Ok = false;
          R.Error = F + ": " + Err;
          return R;
        }
      }
      R.DecodeNs += nowNs() - T0;
      R.DecodedRecords += Decoded;
      asm volatile("" : : "r"(Sink));
    }
  }

  std::vector<std::unique_ptr<ag::AsyncGBuilder>> Builders;
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  uint64_t T0 = nowNs();
  for (const std::string &F : Files) {
    Builders.push_back(std::make_unique<ag::AsyncGBuilder>(builderConfig(false)));
    Suites.push_back(std::make_unique<detect::DetectorSuite>());
    Suites.back()->attachTo(*Builders.back());
    instr::ReplayStats Stats;
    std::string Err;
    if (!instr::replayTrace(F, *Builders.back(), &Err,
                            instr::ReplayTransport::Auto, &Stats)) {
      R.Ok = false;
      R.Error = F + ": " + Err;
      return R;
    }
    R.Records += Stats.Records;
  }
  R.ReplayNs = nowNs() - T0;

  std::vector<const ag::AsyncGraph *> Graphs;
  for (auto &B : Builders)
    Graphs.push_back(&B->graph());
  ag::ShardedGraph Merged;
  T0 = nowNs();
  ag::MergeStats MS = Merged.build(Graphs);
  R.MergeNs = nowNs() - T0;
  R.CrossLoopEdges = MS.CrossLoopEdges;
  T0 = nowNs();
  R.Dot = viz::toDot(Merged.merged());
  R.DotNs = nowNs() - T0;
  R.Warnings = cluster::resolveWarnings(Merged.merged());
  return R;
}

IngestRun perfbench::runIngest(const std::vector<std::string> &Files,
                               unsigned Jobs, bool WantDot) {
  IngestRun R;
  uint64_t T0 = nowNs();
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Builder = builderConfig(false);
  ag::IngestHub Hub(Opts);
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  for (const std::string &F : Files) {
    size_t I = Hub.addFile(F);
    Suites.push_back(std::make_unique<detect::DetectorSuite>());
    Suites.back()->attachTo(Hub.builder(I));
  }
  if (!Hub.run(&R.Error))
    return R;
  uint64_t Wall = nowNs() - T0;
  R.WallNs = Wall;
  R.Records = Hub.stats().Records;
  R.Frames = Hub.stats().Frames;
  R.Windows = Hub.stats().Windows;
  for (const ag::IngestStreamStats &S : Hub.stats().Streams)
    R.BadRecords += S.BadRecords;
  R.RecordsPerSec = static_cast<double>(R.Records) /
                    (static_cast<double>(Wall) / 1e9);
  R.Warnings = cluster::resolveWarnings(Hub.graph());
  if (WantDot)
    R.Dot = viz::toDot(Hub.graph());
  R.Ok = true;
  return R;
}

TracedReplay perfbench::runTracedReplay(const std::vector<std::string> &Files,
                                        Tracing Trace) {
  TracedReplay R;
  uint64_t T0 = nowNs();
  for (const std::string &F : Files) {
    RigConfig C;
    C.Trace = Trace;
    C.Retire = false;
    C.Pipeline = false;
    R.Rigs.push_back(std::make_unique<AnalysisRig>(C));
    instr::ReplayStats Stats;
    std::string Err;
    if (!instr::replayTrace(F, *R.Rigs.back()->hook(), &Err,
                            instr::ReplayTransport::Auto, &Stats))
      R.Ok = false;
    R.Records += Stats.Records;
  }
  R.WallNs = nowNs() - T0;
  std::vector<const ag::AsyncGraph *> Graphs;
  for (auto &Rig : R.Rigs)
    Graphs.push_back(&Rig->Builder.graph());
  ag::ShardedGraph Merged;
  Merged.build(Graphs);
  R.Dot = viz::toDot(Merged.merged());
  R.Warnings = cluster::resolveWarnings(Merged.merged());
  return R;
}
