//===- Harness.cpp - N-loop AcmeAir cluster harness ---------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/cluster/Harness.h"

#include "ag/Builder.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "detect/Detectors.h"
#include "jsrt/Runtime.h"
#include "node/Cluster.h"

#ifdef __linux__
#include "sim/RealKernel.h"
#include "sim/RealNetwork.h"
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace asyncg;
using namespace asyncg::cluster;
using namespace asyncg::jsrt;

namespace {

/// Everything one shard owns. Created on the shard's thread (the runtime
/// and loop are single-threaded); kept alive by the harness until the
/// graphs have been merged.
struct ShardState {
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<acmeair::AcmeAirApp> App;
  std::unique_ptr<acmeair::WorkloadDriver> Driver;
  std::unique_ptr<ag::AsyncGBuilder> Builder;
  std::unique_ptr<detect::DetectorSuite> Detectors;
  std::unique_ptr<ag::AsyncPipeline> Pipeline;
  std::unique_ptr<instr::TraceRecorder> Recorder;
  std::unique_ptr<node::cluster::Worker> Worker;
  /// Set once the shard's listener is bound (epoll mode: the harness only
  /// starts wire load when every SO_REUSEPORT socket is in the group).
  std::atomic<bool> Ready{false};
#ifdef __linux__
  /// The shard's real kernel (wire mode only) — the harness's handle for
  /// requestStop() once the wire load completes.
  std::atomic<sim::RealKernel *> RK{nullptr};
#endif
  ShardResult Result;
};

void runShard(const ClusterConfig &Cfg, sim::ClusterKernel &Kernel,
              uint32_t S, int Clients, uint64_t Requests, ShardState &St) {
  RuntimeConfig RC;
  RC.Shard = S;
  RC.Backend = Cfg.Backend;
  RC.Faults = Cfg.Faults;
  // Per-shard injector seed: decision order inside one loop is
  // deterministic, so a derived seed per shard makes the whole cluster's
  // fault schedule a pure function of (spec, FaultSeed).
  RC.FaultSeed = Cfg.FaultSeed + static_cast<uint64_t>(S) * 7919;
  St.RT = std::make_unique<Runtime>(RC);
  Runtime &RT = *St.RT;

#ifdef __linux__
  if (Cfg.Backend != sim::KernelBackend::Sim) {
    // realKernel() unwraps a FaultKernel decorator when faults are on.
    auto *RK = static_cast<sim::RealKernel *>(&RT.realKernel());
    St.RK.store(RK, std::memory_order_release);
    // Cross-loop posts must reach a loop blocked in epoll_wait or
    // io_uring_enter, where the cluster condvar cannot; wakeup() writes
    // the kernel's eventfd.
    if (Cfg.Loops > 1)
      Kernel.setWakeHook(S, [RK] { RK->wakeup(); });
  }
#endif

  acmeair::AppConfig ACfg;
  ACfg.Port = Cfg.Port;
  ACfg.UsePromises = Cfg.UsePromises;
  St.App = std::make_unique<acmeair::AcmeAirApp>(RT, ACfg);

  if (Requests > 0 && Clients > 0) {
    acmeair::WorkloadConfig WCfg;
    WCfg.Clients = Clients;
    WCfg.TotalRequests = Requests;
    WCfg.Seed = Cfg.Seed + static_cast<uint64_t>(S) * 7919;
    St.Driver = std::make_unique<acmeair::WorkloadDriver>(RT, ACfg.Port,
                                                          WCfg);
  }

  if (Cfg.Instrument) {
    St.Builder = std::make_unique<ag::AsyncGBuilder>();
    St.Detectors = std::make_unique<detect::DetectorSuite>();
    St.Detectors->attachTo(*St.Builder);
    if (Cfg.Mode == ag::PipelineMode::Async) {
      ag::PipelineConfig PCfg;
      PCfg.Drain = ag::DrainMode::Deferred;
      PCfg.RingCapacity = Cfg.RingCapacity;
      PCfg.SampleBudgetPct = Cfg.SampleBudgetPct;
      PCfg.Policy = Cfg.Policy;
      St.Pipeline = std::make_unique<ag::AsyncPipeline>(*St.Builder, PCfg);
      RT.hooks().attach(St.Pipeline.get());
    } else {
      RT.hooks().attach(St.Builder.get());
    }
  }

  if (!Cfg.RecordDir.empty()) {
    St.Recorder = std::make_unique<instr::TraceRecorder>();
    std::string Path =
        Cfg.RecordDir + "/shard" + std::to_string(S) + ".agtrace";
    // Non-zero shards lead their stream with a ShardInfo record so an
    // offline ShardedGraph merge can reassemble the cluster.
    if (St.Recorder->open(Path, S))
      RT.hooks().attach(St.Recorder.get());
    else
      St.Recorder.reset();
  }

  if (Cfg.Loops > 1) {
    St.Worker = std::make_unique<node::cluster::Worker>(RT, Kernel);
    RT.setLoopPort(St.Worker.get());
  }

  // Harness-level registrations use stable "cluster.js" locations rather
  // than JSLOC: graph labels and warnings then name the simulated script,
  // and the 1-loop merged graph stays byte-identical to a classic
  // single-loop build that starts the app from the same location.
  Function Main = RT.makeBuiltin("main", [&](Runtime &R, const CallArgs &) {
    St.App->start(JSLINE("cluster.js", 1));
    St.Ready.store(true, std::memory_order_release);
    if (St.Driver)
      St.Driver->start();

    if (St.Worker && Cfg.Gossip) {
      // Worker-to-worker gossip: each loop broadcasts its served-count to
      // the next loop on a re-arming timer for as long as its own serving
      // window is open (bounded by GossipRounds). The listener keeps every
      // delivery's emit live.
      node::cluster::Worker *W = St.Worker.get();
      acmeair::AcmeAirApp *App = St.App.get();
      acmeair::WorkloadDriver *Driver = St.Driver.get();
      Function OnMsg = R.makeFunction(
          "onGossip", JSLINE("cluster.js", 10),
          [](Runtime &, const CallArgs &) { return Completion::normal(); });
      R.emitterOn(JSLINE("cluster.js", 11), W->channel(), "message", OnMsg);

      uint32_t Next = (S + 1) % Cfg.Loops;
      auto Rounds = std::make_shared<int>(Cfg.GossipRounds);
      auto Tick = std::make_shared<Function>();
      uint64_t Target = Requests;
      *Tick = R.makeFunction(
          "gossip", JSLINE("cluster.js", 12),
          [W, App, Driver, Rounds, Tick, Next, Target,
           Interval = Cfg.GossipIntervalMs](Runtime &R2, const CallArgs &) {
            W->send(JSLINE("cluster.js", 13), Next,
                    "served=" + std::to_string(App->served()));
            bool Serving = Driver && Driver->completed() < Target;
            if (--*Rounds > 0 && Serving)
              R2.setTimeout(JSLINE("cluster.js", 14), *Tick, Interval);
            return Completion::normal();
          });
      R.setTimeout(JSLINE("cluster.js", 15), *Tick, Cfg.GossipIntervalMs);
    }
    return Completion::normal();
  });

  RT.main(Main);

  if (St.Pipeline) {
    St.Pipeline->stop();
    St.Result.PushedRecords = St.Pipeline->pushedRecords();
    St.Result.Backpressure = St.Pipeline->backpressure();
    St.Result.Sampling = St.Pipeline->sampling();
    St.Result.Degradation = St.Pipeline->degradation();
  }
  if (St.Recorder) {
    St.Recorder->finalize();
    St.Result.RecordedBytes = St.Recorder->recordBytes();
  }

  St.Result.VirtualTimeUs = RT.clock().now();
  St.Result.Sys = RT.kernel().kernelStats();
  St.Result.Served = St.App->served();
  if (St.Driver) {
    St.Result.Issued = St.Driver->issued();
    St.Result.Completed = St.Driver->completed();
    St.Result.Errors = St.Driver->errors();
  }
  if (St.Worker) {
    St.Result.Sent = St.Worker->sent();
    St.Result.Received = St.Worker->received();
  }
  if (sim::FaultInjector *Inj = RT.faultInjector()) {
    St.Result.FaultDecisions = Inj->decisions();
    St.Result.FaultsInjected = Inj->totalInjected();
    St.Result.FaultDigest = Inj->scheduleDigest();
  }
#ifdef __linux__
  if (auto *RN = dynamic_cast<sim::RealNetwork *>(&RT.network()))
    St.Result.Net = RN->recoveryStats();
#endif
}

} // namespace

std::vector<std::string>
asyncg::cluster::resolveWarnings(const ag::AsyncGraph &G) {
  std::vector<std::string> Out;
  Out.reserve(G.warnings().size());
  for (const ag::Warning &W : G.warnings()) {
    std::string S(ag::bugCategoryName(W.Category));
    S += ": ";
    S += W.Message.view();
    S += " (";
    S += W.Loc.str();
    S += ")";
    Out.push_back(std::move(S));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

ClusterResult ClusterHarness::run() {
  ClusterResult R;
  const uint32_t N = Config.Loops;
  // Real backends (epoll, uring) serve wire traffic: every shard binds
  // Config.Port with SO_REUSEPORT and the in-process load generator drives
  // them from this thread. In-loop WorkloadDriver clients only exist on
  // the sim backend — over real SO_REUSEPORT their connections would be
  // cross-routed to sibling shards.
  const bool WireMode = Config.Backend != sim::KernelBackend::Sim;
  if (WireMode && !sim::kernelBackendSupported(Config.Backend))
    return R;
  sim::ClusterKernel Kernel(N);

  // The balancer partitions clients round-robin; each shard's request
  // budget is proportional to its client count, remainders to low shards.
  std::vector<int> Clients(N, 0);
  std::vector<uint64_t> Requests(N, 0);
  if (!WireMode) {
    for (int C = 0; C != Config.TotalClients; ++C)
      ++Clients[Kernel.shardForClient(static_cast<uint64_t>(C))];
    uint64_t Assigned = 0;
    for (uint32_t S = 0; S != N; ++S) {
      Requests[S] = Config.TotalRequests * static_cast<uint64_t>(Clients[S]) /
                    static_cast<uint64_t>(std::max(Config.TotalClients, 1));
      Assigned += Requests[S];
    }
    if (Config.TotalClients > 0)
      for (uint32_t S = 0; Assigned < Config.TotalRequests; S = (S + 1) % N)
        if (Clients[S] > 0) {
          ++Requests[S];
          ++Assigned;
        }
  }

  std::vector<ShardState> States(N);
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  if (N == 1 && !WireMode) {
    runShard(Config, Kernel, 0, Clients[0], Requests[0], States[0]);
  } else {
    Threads.reserve(N);
    for (uint32_t S = 0; S != N; ++S)
      Threads.emplace_back([&, S] {
        runShard(Config, Kernel, S, Clients[S], Requests[S], States[S]);
      });
  }

#ifdef __linux__
  if (WireMode) {
    // SO_REUSEPORT only balances across sockets already in the group, so
    // wait for every shard's listener before the first connect.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool AllReady = true;
    for (uint32_t S = 0; S != N && AllReady; ++S)
      while (!States[S].Ready.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() >= Deadline) {
          AllReady = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    if (AllReady && Config.ServeOnly) {
      // External traffic (tools/agload) drives the shards; hold the loops
      // open until stop().
      while (!StopServing.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else if (AllReady) {
      acmeair::LoadConfig LC;
      LC.Port = Config.Port;
      LC.Connections = Config.TotalClients;
      LC.TotalRequests = Config.TotalRequests;
      LC.Seed = Config.Seed;
      if (Config.Faults.any()) {
        // Under fault injection the server sheds connections (injected
        // resets) and stretches latencies; the driver needs deadlines and
        // a retry budget or faulted requests would hang the run.
        LC.RequestTimeoutMs = 2000;
        LC.MaxRetries = 3;
      }
      acmeair::runWireLoad(LC, R.Wire);
    }
    // Load done (or never started): stop every shard loop. requestStop is
    // sticky, so a shard that has not reached its first wait still stops.
    for (uint32_t S = 0; S != N; ++S)
      if (sim::RealKernel *RK = States[S].RK.load(std::memory_order_acquire))
        RK->requestStop();
  }
#endif

  for (std::thread &T : Threads)
    T.join();

  // The shard graphs are not read again: move them into the merge.
  uint32_t MergedShards = 0;
  for (uint32_t S = 0; S != N; ++S) {
    States[S].Result.Kernel = Kernel.shardStats(S);
    if (States[S].Builder)
      Merged.mergeShard(std::move(States[S].Builder->graph()),
                        MergedShards++);
  }
  if (MergedShards != 0)
    R.Merge = Merged.finishMerge();
  R.WallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  for (uint32_t S = 0; S != N; ++S) {
    ShardResult &SR = States[S].Result;
    R.Sys.merge(SR.Sys);
    R.Degradation.merge(SR.Degradation);
    R.Net.merge(SR.Net);
    R.FaultDecisions += SR.FaultDecisions;
    R.FaultsInjected += SR.FaultsInjected;
    R.TotalCompleted += SR.Completed;
    R.TotalErrors += SR.Errors;
    if (SR.VirtualTimeUs > R.MaxVirtualTimeUs)
      R.MaxVirtualTimeUs = SR.VirtualTimeUs;
    R.Shards.push_back(SR);
  }
  if (R.MaxVirtualTimeUs > 0)
    R.VirtualThroughput = static_cast<double>(R.TotalCompleted) /
                          (static_cast<double>(R.MaxVirtualTimeUs) / 1e6);
  if (MergedShards != 0)
    R.Warnings = resolveWarnings(Merged.merged());
  return R;
}
