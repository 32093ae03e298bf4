//===- Rig.h - assembling the measured system from public pieces -*- C++ -*-===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark assembles each workload from the repository's public API:
///
///  - AnalysisRig: AsyncGBuilder + DetectorSuite behind an AsyncPipeline
///    (Concurrent drain, default bounded ring, Block policy, optional v4
///    recording tee), with or without the timing forwarders.
///  - runLiveRep: AcmeAir on the sim kernel driven by in-process
///    WorkloadDriver clients (closed loop).
///  - WireServer: AcmeAir on a real reactor (epoll or io_uring) on its own
///    loop thread, for the open-loop wire generator to drive.
///  - runOffline: the offline layers over a set of recorded traces
///    (frame scan and decode, serial replay, IngestHub, merge, DOT).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RIG_H
#define PERFBENCH_RIG_H

#include "Forwarders.h"
#include "WireLoad.h"

#include "ag/AsyncPipeline.h"
#include "ag/Builder.h"
#include "detect/Detectors.h"
#include "sim/Kernel.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// How much timing instrumentation sits between the layers.
enum class Tracing {
  /// No forwarders: the end-to-end configuration.
  Off,
  /// Forwarders around the pipeline, the builder and the whole suite.
  Suite,
  /// As Suite, but each detector is wrapped on its own (the suite's
  /// dispatch is bypassed) to split detector time by family.
  Members,
};

/// Detector families of the paper's §VI.
enum DetectorFamily : unsigned { FScheduling, FEmitter, FPromise, NumFamilies };
extern const char *const FamilyNames[NumFamilies];

struct RigConfig {
  Tracing Trace = Tracing::Off;
  /// v4 recording tee written by the builder thread (empty = off).
  std::string TeePath;
  bool Retire = true;
  /// False drives the builder directly (offline replay); no pipeline.
  bool Pipeline = true;
};

/// The always-on analysis: builder + detectors behind the pipeline.
class AnalysisRig {
public:
  explicit AnalysisRig(const RigConfig &Config);
  ~AnalysisRig();
  // The pipeline's builder thread holds references into the rig.
  AnalysisRig(const AnalysisRig &) = delete;
  AnalysisRig &operator=(const AnalysisRig &) = delete;

  /// The analysis that receives every event: what the runtime's hooks or
  /// a trace replay drive.
  instr::AnalysisBase *hook();

  /// Stops the pipeline (drain + join), timing the call. Call from the
  /// loop thread.
  void stop();

  /// Resolved, sorted warnings of the final graph.
  std::vector<std::string> warnings() const;

  RigConfig Config;
  ag::AsyncGBuilder Builder;
  detect::DetectorSuite Suite;
  DetectorClock Clock;
  TickBoard Board;
  std::unique_ptr<ObserverTimer> SuiteTimer;
  std::vector<std::unique_ptr<ObserverTimer>> MemberTimers;
  std::vector<DetectorFamily> MemberFamilies;
  std::unique_ptr<BuilderSideTimer> BuilderTimer;
  std::unique_ptr<ag::AsyncPipeline> Pipeline;
  std::unique_ptr<LoopSideTimer> LoopTimer;
  uint64_t DrainTailNs = 0;
};

/// Outcome of one live run (sim kernel or wire server).
struct LiveRun {
  /// Construction until the first request could be issued.
  uint64_t SetupNs = 0;
  /// First request until AsyncPipeline::stop() returned: requests served
  /// and their graph and warnings final.
  uint64_t CompleteNs = 0;
  uint64_t Requests = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  /// Loop-thread CPU while the loop ran.
  uint64_t LoopCpuNs = 0;
  uint64_t LoopWallNs = 0;
  sim::KernelStats Sys;
  std::vector<std::string> Warnings;
  /// Null when the run had no analysis attached.
  std::unique_ptr<AnalysisRig> Rig;
};

/// AcmeAir (promise db interface) on the sim kernel with \p Clients
/// closed-loop WorkloadDriver clients issuing \p Requests requests.
/// \p Analysis false runs the bare runtime.
LiveRun runLiveRep(uint64_t Seed, uint64_t Requests, int Clients,
                   bool Analysis, const RigConfig &Config);

/// AcmeAir with the analysis attached on a real reactor, serving on its own
/// loop thread until stop(). The rig is built and stopped on the loop
/// thread.
class WireServer {
public:
  WireServer(sim::KernelBackend Backend, RigConfig Config);
  ~WireServer();
  // The loop thread holds this.
  WireServer(const WireServer &) = delete;
  WireServer &operator=(const WireServer &) = delete;

  /// Waits until the server listens. False on timeout or failure.
  bool waitReady(int TimeoutMs);
  int port() const { return Port; }
  /// When the server was constructed (the start of its set-up).
  uint64_t startedAt() const { return T0; }

  /// Asks the loop to drain, waits for it, and returns the run's outcome
  /// (CompleteNs is measured from waitReady's return).
  LiveRun stop();

private:
  void loopMain();

  sim::KernelBackend Backend;
  RigConfig Config;
  int Port = 0;
  uint64_t T0 = 0;
  uint64_t ReadyAt = 0;
  std::atomic<int> State{0}; // 0 starting, 1 ready, 2 failed
  std::atomic<void *> Kernel{nullptr};
  /// Set once stop()'s requestStop() call has returned; the loop thread
  /// keeps the runtime (and its kernel) alive until then.
  std::atomic<bool> StopReturned{false};
  /// Written by the loop thread, read after the join.
  uint64_t PipelineDoneAt = 0;
  LiveRun Out;
  std::thread Loop;
};

/// Results of the offline layers over a trace set.
struct OfflineRun {
  uint64_t Records = 0;
  uint64_t Frames = 0;
  uint64_t ScanNs = 0;
  uint64_t DecodeNs = 0;
  uint64_t DecodedRecords = 0;
  /// Serial replayTrace of every file into builder + detectors.
  uint64_t ReplayNs = 0;
  uint64_t MergeNs = 0;
  uint64_t CrossLoopEdges = 0;
  uint64_t DotNs = 0;
  std::string Dot;
  std::vector<std::string> Warnings;
  bool Ok = true;
  std::string Error;
};

/// Serial replay of \p Files (builder without retirement, full suite),
/// ShardedGraph merge and DOT. With \p Scan, also times scanV4Frames and
/// decodeV4Frame over every file.
OfflineRun runOffline(const std::vector<std::string> &Files, bool Scan);

/// One IngestHub pass over \p Files with live detector suites and the full
/// graph. Returns records / wall in records per second (0 on failure).
struct IngestRun {
  double RecordsPerSec = 0;
  uint64_t WallNs = 0;
  uint64_t Records = 0;
  uint64_t Frames = 0;
  uint64_t Windows = 0;
  uint64_t BadRecords = 0;
  std::vector<std::string> Warnings;
  std::string Dot;
  bool Ok = false;
  std::string Error;
};
IngestRun runIngest(const std::vector<std::string> &Files, unsigned Jobs,
                    bool WantDot);

/// Serial replay of \p Files through the timing forwarders (builder and
/// detector layers of the offline path).
struct TracedReplay {
  std::vector<std::unique_ptr<AnalysisRig>> Rigs;
  uint64_t WallNs = 0;
  uint64_t Records = 0;
  std::vector<std::string> Warnings;
  std::string Dot;
  bool Ok = true;
};
TracedReplay runTracedReplay(const std::vector<std::string> &Files,
                             Tracing Trace);

/// A free loopback TCP port.
int freePort();

} // namespace perfbench

#endif // PERFBENCH_RIG_H
