//===- agbench.cpp - the AsyncG benchmark program -----------------------------===//
//
// Part of the AsyncG benchmark. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints one JSON object on stdout:
//
//   agbench --workload live-sim|replay-ingest
//           --seed N --seconds S --trace 0|1 --workdir DIR
//           --param key=value ...
//   agbench --probe          (prints the kernel-backend probe as JSON)
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) switch the timing forwarders on and report the per-layer
// metrics. Inputs are a pure function of --seed. Every workload parameter
// comes from a --param (perfbench/spec.json holds them); a missing one
// stops the run. perfbench/run.py builds this program, passes the
// parameters, compares its warnings with the committed expected set,
// attaches the units from BENCHMARK.json and prints the final result line.
//
//===----------------------------------------------------------------------===//

#include "Rig.h"

#include "apps/cluster/Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <map>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace asyncg;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  std::map<std::string, std::string> Params;

  /// A frozen workload parameter; the run stops when it was not passed.
  double num(const std::string &Key) const {
    auto It = Params.find(Key);
    if (It == Params.end()) {
      std::fprintf(stderr, "agbench: missing --param %s=...\n", Key.c_str());
      std::exit(2);
    }
    return std::atof(It->second.c_str());
  }
};

std::string jsonString(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O + "\"";
}

/// Everything one run reports.
class Report {
public:
  void metric(const std::string &Name, double V) {
    Metrics.push_back({Name, std::isfinite(V) ? V : 0.0});
  }
  void problem(const std::string &P) {
    Problems.push_back(P);
    std::fprintf(stderr, "agbench: %s\n", P.c_str());
  }
  void info(const std::string &K, double V) { Info[K] = V; }

  /// Sets the run's warning set from the first source; counts a failed
  /// output check for every later source that disagrees.
  void warnings(const std::vector<std::string> &W, const char *What) {
    if (!HaveWarnings) {
      Warnings = W;
      HaveWarnings = true;
      return;
    }
    if (W != Warnings) {
      ++Failed;
      problem(std::string("warning set of ") + What + " differs");
    }
  }

  void print() const {
    std::string O = "{\"metrics\": {";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.10g", Metrics[I].Value);
      O += (I ? ", " : "") + jsonString(Metrics[I].Name) + ": " + Buf;
    }
    O += "}, \"warnings\": [";
    for (size_t I = 0; I != Warnings.size(); ++I)
      O += (I ? ", " : "") + jsonString(Warnings[I]);
    O += "], \"problems\": [";
    for (size_t I = 0; I != Problems.size(); ++I)
      O += (I ? ", " : "") + jsonString(Problems[I]);
    O += "], \"info\": {";
    bool FirstInfo = true;
    for (const auto &[K, V] : Info) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.10g", V);
      O += (FirstInfo ? "" : ", ") + jsonString(K) + ": " + Buf;
      FirstInfo = false;
    }
    O += "}, \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) + "}";
    std::printf("%s\n", O.c_str());
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  struct Metric {
    std::string Name;
    double Value;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Warnings;
  bool HaveWarnings = false;
  std::vector<std::string> Problems;
  std::map<std::string, double> Info;
};

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

/// Lowers the process's resident high-water mark to its current resident
/// set (freed heap handed back first), so that peak_rss_mb covers only what
/// runs after the call. False when the kernel offers no reset.
bool resetPeakRss() {
  malloc_trim(0);
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// The resident high-water mark (VmHWM) in MB; the process-lifetime
/// maximum where /proc is not there.
double peakRssMb() {
  if (FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (Kb < 0 && std::fgets(Line, sizeof(Line), F))
      if (std::strncmp(Line, "VmHWM:", 6) == 0)
        Kb = std::atol(Line + 6);
    std::fclose(F);
    if (Kb >= 0)
      return static_cast<double>(Kb) / 1024.0;
  }
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Counts a live run's requests into attempted/failed.
void account(Report &R, const LiveRun &L) {
  R.Attempted += L.Requests;
  R.Failed += L.Errors + (L.Requests - std::min(L.Requests, L.Completed));
  if (L.Errors || L.Completed != L.Requests)
    R.problem("live run: " + std::to_string(L.Completed) + "/" +
              std::to_string(L.Requests) + " completed, " +
              std::to_string(L.Errors) + " errors");
}

//===----------------------------------------------------------------------===//
// Per-layer metric assembly
//===----------------------------------------------------------------------===//

uint64_t nonSinkBuilderNs(const AnalysisRig &Rig) {
  const BuilderSideTimer &B = *Rig.BuilderTimer;
  uint64_t Cpu = B.CpuLastNs > B.CpuFirstNs ? B.CpuLastNs - B.CpuFirstNs : 0;
  return Cpu > B.SinkNs ? Cpu - B.SinkNs : 0;
}

/// jsrt, instr, pipeline and tee layers of a live run: \p A is the Suite
/// leg with the tee, \p B the Members leg without it, \p Bare the same
/// inputs with no analysis.
void liveLayerMetrics(Report &R, const LiveRun &A, const LiveRun &B,
                      const LiveRun &Bare) {
  const AnalysisRig &RA = *A.Rig;
  const LoopSideTimer &L = *RA.LoopTimer;
  const ag::AsyncPipeline &P = *RA.Pipeline;
  const BuilderSideTimer &BT = *RA.BuilderTimer;
  double Req = static_cast<double>(std::max<uint64_t>(A.Completed, 1));
  double Events = static_cast<double>(std::max<uint64_t>(L.Events, 1));
  R.metric("jsrt.bare_rps",
           ratio(static_cast<double>(Bare.Completed), Bare.CompleteNs / 1e9));
  R.metric("jsrt.loop_busy_frac", ratio(A.LoopCpuNs, A.LoopWallNs));
  R.metric("jsrt.hook_events_per_req", L.Events / Req);
  R.metric("instr.emit_ns_per_event", L.InnerNs / Events);
  R.metric("instr.records_per_event", P.pushedRecords() / Events);
  ag::BackpressureStats BP = P.backpressure();
  R.metric("pipeline.blocked_ns_per_req", BP.BlockedTimeNs / Req);
  R.metric("pipeline.blocked_pushes", static_cast<double>(BP.BlockedPushes));
  R.metric("pipeline.max_depth", static_cast<double>(BP.MaxQueueDepth));
  TailSummary Lag = summarize(BT.Lag);
  R.metric("pipeline.lag_p50_us", Lag.P50 / 1e3);
  R.metric("pipeline.lag_p99_us", Lag.Tail / 1e3);
  R.info("pipeline.lag_samples", static_cast<double>(Lag.Samples));
  R.info("pipeline.lag_tail_quantile", Lag.TailQ);
  R.metric("pipeline.drain_tail_ms", RA.DrainTailNs / 1e6);
  double Consumed = static_cast<double>(std::max<uint64_t>(P.consumedRecords(), 1));
  double ConsumeA = nonSinkBuilderNs(RA) / Consumed;
  R.metric("pipeline.consume_ns_per_record", ConsumeA);
  R.metric("pipeline.builder_busy_frac",
           ratio(BT.SinkNs, BT.WallLastNs - BT.WallFirstNs));
  const AnalysisRig &RB = *B.Rig;
  double ConsumeB =
      nonSinkBuilderNs(RB) /
      static_cast<double>(std::max<uint64_t>(RB.Pipeline->consumedRecords(), 1));
  R.metric("trace.tee_ns_per_record", ConsumeA - ConsumeB);
  R.metric("trace.tee_bytes_per_record",
           ratio(P.recordedBytes(), P.pushedRecords()));
  if (P.recordingFailed())
    R.problem("recording tee failed");
}

/// Builder and detector layers: \p SuiteRigs timed the whole suite,
/// \p MemberRigs each detector on its own. Sums over shards.
void builderDetectMetrics(Report &R,
                          const std::vector<const AnalysisRig *> &SuiteRigs,
                          const std::vector<const AnalysisRig *> &MemberRigs,
                          size_t Warnings) {
  uint64_t Self = 0, Events = 0, Sink = 0;
  uint64_t KindNs[NumEventKinds] = {}, KindN[NumEventKinds] = {};
  uint64_t ApiNs[NumApiClasses] = {}, ApiN[NumApiClasses] = {};
  uint64_t DetNs = 0, DetCalls = 0, EndNs = 0, Retired = 0;
  double Footprint = 0;
  for (const AnalysisRig *Rig : SuiteRigs) {
    const BuilderSideTimer &B = *Rig->BuilderTimer;
    Self += B.selfNs();
    Events += B.events();
    Sink += B.SinkNs;
    for (unsigned K = 0; K != NumEventKinds; ++K) {
      KindNs[K] += B.SelfNs[K];
      KindN[K] += B.Count[K];
    }
    for (unsigned C = 0; C != NumApiClasses; ++C) {
      ApiNs[C] += B.ApiNs[C];
      ApiN[C] += B.ApiCount[C];
    }
    Footprint += static_cast<double>(B.FootprintPeak);
    DetNs += Rig->SuiteTimer->Ns;
    DetCalls += Rig->SuiteTimer->Calls;
    EndNs += Rig->SuiteTimer->EndNs;
    Retired += Rig->SuiteTimer->RegionsRetired;
  }
  double Ev = static_cast<double>(std::max<uint64_t>(Events, 1));
  R.metric("builder.apply_ns_per_event", Self / Ev);
  for (unsigned K = 0; K != NumEventKinds; ++K)
    if (K != KOther)
      R.metric(std::string("builder.apply_ns.") + EventKindNames[K],
               ratio(KindNs[K], KindN[K]));
  for (unsigned C = 0; C != NumApiClasses; ++C)
    R.metric(std::string("builder.api_ns.") + ApiClassNames[C],
             ratio(ApiNs[C], ApiN[C]));
  R.metric("builder.footprint_peak_mb", Footprint / (1024.0 * 1024.0));
  R.metric("builder.regions_retired", static_cast<double>(Retired));
  R.metric("detect.ns_per_event", DetNs / Ev);

  uint64_t FamNs[NumFamilies] = {};
  uint64_t MemberEvents = 0;
  for (const AnalysisRig *Rig : MemberRigs) {
    MemberEvents += Rig->BuilderTimer->events();
    for (size_t I = 0; I != Rig->MemberTimers.size(); ++I)
      FamNs[Rig->MemberFamilies[I]] += Rig->MemberTimers[I]->Ns;
  }
  for (unsigned F = 0; F != NumFamilies; ++F)
    R.metric(std::string("detect.ns.") + FamilyNames[F],
             ratio(FamNs[F], MemberEvents));
  R.metric("detect.end_ms", EndNs / 1e6);
  R.metric("detect.callbacks_per_event", DetCalls / Ev);
  R.metric("detect.warnings", static_cast<double>(Warnings));
  R.info("builder.events", static_cast<double>(Events));
  R.info("builder.sink_ns", static_cast<double>(Sink));
}

/// Offline layers: frame scan/decode, serial replay, IngestHub at 1 and N
/// jobs, merge and DOT.
void offlineMetrics(Report &R, const OfflineRun &O, const IngestRun &I1,
                    const IngestRun &IN) {
  R.metric("trace.scan_ns_per_frame", ratio(O.ScanNs, O.Frames));
  R.metric("trace.decode_ns_per_record", ratio(O.DecodeNs, O.DecodedRecords));
  R.metric("ingest.jobs1_krec_per_s", I1.RecordsPerSec / 1e3);
  R.metric("ingest.speedup_vs_jobs1", ratio(IN.RecordsPerSec, I1.RecordsPerSec));
  R.metric("ingest.replay_ns_per_record", ratio(O.ReplayNs, O.Records));
  R.metric("ingest.frames", static_cast<double>(IN.Frames));
  R.metric("ingest.windows", static_cast<double>(IN.Windows));
  R.metric("merge.ms", O.MergeNs / 1e6);
  R.metric("merge.xloop_edges", static_cast<double>(O.CrossLoopEdges));
  R.metric("viz.dot_ms", O.DotNs / 1e6);
  R.metric("viz.dot_bytes", static_cast<double>(O.Dot.size()));
  if (!O.Ok || !I1.Ok || !IN.Ok)
    R.problem("offline layers failed: " + O.Error + I1.Error + IN.Error);
}

struct Trial {
  WireLoadResult Load;
  LiveRun Server;
  bool Ok = false;
};

Trial wireTrial(sim::KernelBackend Backend, const WireLoadConfig &LC) {
  Trial T;
  WireServer S(Backend, {Tracing::Off, ""});
  if (S.waitReady(5000)) {
    WireLoadConfig C = LC;
    C.Port = S.port();
    T.Ok = runOpenLoop(C, T.Load);
  }
  T.Server = S.stop();
  return T;
}

void accountWire(Report &R, const Trial &T, const std::string &What) {
  R.Attempted += std::max<uint64_t>(T.Load.Due, 1);
  uint64_t F = T.Ok ? T.Load.failed() : std::max<uint64_t>(T.Load.Due, 1);
  R.Failed += F;
  if (F)
    R.problem(What + ": " + std::to_string(F) + " failed requests (non-200 " +
              std::to_string(T.Load.Non200) + ", timeouts " +
              std::to_string(T.Load.Timeouts) + ", dropped " +
              std::to_string(T.Load.DroppedConns) + ", abandoned " +
              std::to_string(T.Load.Abandoned) + ")");
  R.warnings(T.Server.Warnings, What.c_str());
}

/// The real reactors and the wire client: a short open-loop leg against an
/// analysed AcmeAir server on epoll, then the same leg on io_uring when the
/// host's probe passes (its metrics read 0 otherwise). Reports kernel
/// syscalls per request and the generator's own lateness and load.
void wireProbe(Report &R, const Args &A) {
  WireLoadConfig LC;
  LC.Connections = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  LC.RatePerSec = A.num("wire_rate");
  LC.Seconds = A.Seconds * A.num("wire_share");
  LC.WarmupSeconds = 0.2;
  LC.Seed = A.Seed;
  for (sim::KernelBackend B :
       {sim::KernelBackend::Epoll, sim::KernelBackend::Uring}) {
    bool Uring = B == sim::KernelBackend::Uring;
    std::string Name = sim::kernelBackendName(B), Why;
    Trial T;
    bool Available = sim::kernelBackendAvailable(B, &Why);
    R.info(Name + "_available", Available);
    if (Available) {
      T = wireTrial(B, LC);
      accountWire(R, T, "the " + Name + " wire leg");
    } else if (!Uring) {
      R.problem("epoll backend unavailable: " + Why);
    }
    double Syscalls =
        ratio(T.Server.Sys.Syscalls, std::max<uint64_t>(T.Load.Completed, 1));
    double LateUs = summarize(T.Load.Late).Tail / 1e3;
    R.info(Name + "_wire_p50_us", summarize(T.Load.Latency).P50 / 1e3);
    if (Uring) {
      R.metric("sim.uring_syscalls_per_req", Syscalls);
      R.metric("client.uring_late_p99_us", LateUs);
      continue;
    }
    R.metric("sim.syscalls_per_req", Syscalls);
    R.metric("client.late_p99_us", LateUs);
    R.metric("client.busy_frac", ratio(T.Load.CpuSeconds, T.Load.WallSeconds));
    R.metric("client.samples", static_cast<double>(T.Load.Latency.count()));
  }
}

/// Runs the untraced reps of a workload for \p Seconds (at least three).
/// \p Rep runs one rep and returns its wall time until the graph and
/// warnings are final, or 0 when it failed. A calibration run
/// (calibrationNs) precedes the first rep and follows every rep; each rep's
/// time is reported in multiples of the mean of the calibration times on
/// either side of it, which takes the host's speed at that moment out of
/// the figure without tying it to any part of the measured program.
template <typename RepFn>
void finalTimeMetrics(Report &R, double Seconds,
                      const std::vector<double> &Setup, RepFn Rep) {
  std::vector<double> Norm, Cal;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  double Before = static_cast<double>(calibrationNs());
  for (unsigned I = 0; I < 3 || nowNs() < Deadline; ++I) {
    double Ns = static_cast<double>(Rep(I));
    double After = static_cast<double>(calibrationNs());
    if (Ns > 0)
      Norm.push_back(Ns / ((Before + After) / 2));
    Cal.push_back(After);
    Before = After;
  }
  std::sort(Norm.begin(), Norm.end());
  double TailQ = tailQuantileFor(Norm.size());
  R.metric("final_time_p50", quantileSorted(Norm, 0.5));
  R.metric("final_time_tail", quantileSorted(Norm, TailQ));
  R.metric("peak_rss_mb", peakRssMb());
  R.metric("setup_s", median(Setup));
  R.info("reps", static_cast<double>(Norm.size()));
  R.info("final_time_tail_quantile", TailQ);
  R.info("calibration_ms", median(Cal) / 1e6);
}

//===----------------------------------------------------------------------===//
// live-sim
//===----------------------------------------------------------------------===//

/// The traced legs every live workload shares: Suite leg with tee, Members
/// leg without, the bare runtime, and an untraced leg for the overhead.
struct LiveLegs {
  LiveRun A, B, Bare, U;
};

LiveLegs runLiveLegs(Report &R, uint64_t Seed, uint64_t Requests, int Clients,
                     const std::string &TeeA, const std::string &TeeU) {
  LiveLegs L;
  L.U = runLiveRep(Seed, Requests, Clients, true, {Tracing::Off, TeeU});
  L.A = runLiveRep(Seed, Requests, Clients, true, {Tracing::Suite, TeeA});
  L.B = runLiveRep(Seed, Requests, Clients, true, {Tracing::Members, ""});
  L.Bare = runLiveRep(Seed, Requests, Clients, false, {});
  for (const LiveRun *Run : {&L.U, &L.A, &L.B, &L.Bare})
    account(R, *Run);
  return L;
}

int runLiveSim(const Args &A, Report &R) {
  uint64_t N = static_cast<uint64_t>(A.num("requests"));
  int Clients = static_cast<int>(A.num("clients"));
  std::string TeeA = A.WorkDir + "/live-sim.traced.agtrace";
  std::string TeeU = A.WorkDir + "/live-sim.agtrace";
  R.info("threads", 2);
  R.info("clients", Clients);
  if (!A.Trace) {
    // Each rep builds the runtime, app and analysis (set-up), serves the
    // requests and stops the pipeline.
    std::vector<double> Setup, Rps;
    if (!resetPeakRss())
      R.info("peak_rss_reset_failed", 1);
    finalTimeMetrics(R, A.Seconds, Setup, [&](unsigned Rep) -> uint64_t {
      LiveRun L = runLiveRep(A.Seed * 1000 + Rep, N, Clients, true,
                             {Tracing::Off, TeeU});
      account(R, L);
      R.warnings(L.Warnings, "a live-sim rep");
      Setup.push_back(L.SetupNs / 1e9);
      Rps.push_back(ratio(static_cast<double>(L.Completed), L.CompleteNs / 1e9));
      return L.CompleteNs;
    });
    R.info("complete_rps", median(Rps));
    return 0;
  }

  uint64_t Nt = static_cast<uint64_t>(A.num("trace_requests"));
  LiveLegs L = runLiveLegs(R, A.Seed, Nt, Clients, TeeA, TeeU);
  R.warnings(L.U.Warnings, "the untraced leg");
  R.warnings(L.A.Warnings, "the suite-traced leg");
  R.warnings(L.B.Warnings, "the member-traced leg");
  liveLayerMetrics(R, L.A, L.B, L.Bare);
  builderDetectMetrics(R, {L.A.Rig.get()}, {L.B.Rig.get()},
                       L.U.Warnings.size());
  OfflineRun O = runOffline({TeeA}, true);
  IngestRun I1 = runIngest({TeeA}, 1, false);
  IngestRun I2 = runIngest({TeeA}, 2, false);
  offlineMetrics(R, O, I1, I2);
  wireProbe(R, A);
  R.metric("bench.trace_overhead", ratio(L.A.CompleteNs, L.U.CompleteNs));
  R.metric("bench.slowdown_vs_bare", ratio(L.U.CompleteNs, L.Bare.CompleteNs));
  return 0;
}

//===----------------------------------------------------------------------===//
// replay-ingest
//===----------------------------------------------------------------------===//

int runReplayIngest(const Args &A, Report &R) {
  uint64_t Req = static_cast<uint64_t>(A.num("record_requests"));
  unsigned Jobs = static_cast<unsigned>(A.num("jobs"));
  int SetupReps = static_cast<int>(A.num("setup_reps"));
  std::string Dir = A.WorkDir + "/replay-ingest";
  ::mkdir(Dir.c_str(), 0755);
  R.info("threads", Jobs);
  R.info("record_loops", 2);

  // Set-up: record a 2-loop cluster run with gossip on, several times.
  std::vector<double> Setup;
  for (int I = 0; I < SetupReps; ++I) {
    uint64_t T0 = nowNs();
    cluster::ClusterConfig C;
    C.Loops = 2;
    C.TotalRequests = Req;
    C.Seed = A.Seed;
    C.Gossip = true;
    C.Instrument = false;
    C.RecordDir = Dir;
    cluster::ClusterHarness H(C);
    cluster::ClusterResult CR = H.run();
    Setup.push_back((nowNs() - T0) / 1e9);
    if (CR.TotalCompleted != Req || CR.TotalErrors != 0)
      R.problem("recording run: " + std::to_string(CR.TotalCompleted) + "/" +
                std::to_string(Req) + " completed");
  }
  std::vector<std::string> Files = {Dir + "/shard0.agtrace",
                                    Dir + "/shard1.agtrace"};
  // The reference: serial replayTrace + ShardedGraph::build.
  OfflineRun Ref = runOffline(Files, A.Trace);
  if (!Ref.Ok) {
    R.problem("reference replay failed: " + Ref.Error);
    R.Failed += 1;
    R.Attempted += 1;
    return 1;
  }
  R.warnings(Ref.Warnings, "the serial replay reference");
  R.info("records", static_cast<double>(Ref.Records));

  if (!A.Trace) {
    // Each pass ingests both traces until the merged graph and warnings are
    // final. The reference and the recordings are released before the
    // high-water mark is reset, so peak_rss_mb covers the ingest alone.
    std::string RefDot = std::move(Ref.Dot);
    Ref = OfflineRun();
    if (!resetPeakRss())
      R.info("peak_rss_reset_failed", 1);
    std::vector<double> Rate;
    finalTimeMetrics(R, A.Seconds, Setup, [&](unsigned Rep) -> uint64_t {
      IngestRun I = runIngest(Files, Jobs, Rep == 0);
      R.Attempted += std::max<uint64_t>(I.Records, 1);
      if (!I.Ok) {
        R.Failed += 1;
        R.problem("ingest failed: " + I.Error);
        return 0;
      }
      R.Failed += I.BadRecords;
      R.warnings(I.Warnings, "an ingest rep");
      if (Rep == 0 && I.Dot != RefDot) {
        R.Failed += 1;
        R.problem("merged DOT differs from the serial replay reference");
      }
      Rate.push_back(I.RecordsPerSec);
      return I.WallNs;
    });
    R.info("ingest_krec_per_s", Rate.empty() ? 0 : median(Rate) / 1e3);
    return 0;
  }

  // Builder and detector layers on the offline path, through forwarders.
  TracedReplay TA = runTracedReplay(Files, Tracing::Suite);
  TracedReplay TB = runTracedReplay(Files, Tracing::Members);
  for (const TracedReplay *T : {&TA, &TB}) {
    R.Attempted += T->Records;
    R.warnings(T->Warnings, "a traced replay");
    if (!T->Ok || T->Dot != Ref.Dot) {
      R.Failed += 1;
      R.problem("traced replay DOT differs from the untraced reference");
    }
  }
  std::vector<const AnalysisRig *> SA, SB;
  for (auto &Rig : TA.Rigs)
    SA.push_back(Rig.get());
  for (auto &Rig : TB.Rigs)
    SB.push_back(Rig.get());
  builderDetectMetrics(R, SA, SB, Ref.Warnings.size());
  IngestRun I1 = runIngest(Files, 1, false);
  IngestRun IN = runIngest(Files, Jobs, false);
  R.warnings(I1.Warnings, "the jobs=1 ingest");
  R.warnings(IN.Warnings, "the parallel ingest");
  offlineMetrics(R, Ref, I1, IN);
  R.metric("bench.trace_overhead", ratio(TA.WallNs, Ref.ReplayNs));

  // The live layers that produce such a trace: the same AcmeAir inputs on
  // one loop behind the pipeline with the recording tee.
  uint64_t Nt = static_cast<uint64_t>(A.num("trace_requests"));
  Report Live;
  LiveLegs L = runLiveLegs(Live, A.Seed, Nt, 8, Dir + "/live.traced.agtrace",
                           Dir + "/live.agtrace");
  R.Attempted += Live.Attempted;
  R.Failed += Live.Failed;
  liveLayerMetrics(R, L.A, L.B, L.Bare);
  R.metric("bench.slowdown_vs_bare", ratio(L.U.CompleteNs, L.Bare.CompleteNs));
  wireProbe(R, A);
  return 0;
}

int probe() {
  std::string O = "{";
  bool First = true;
  for (sim::KernelBackend B :
       {sim::KernelBackend::Epoll, sim::KernelBackend::Uring}) {
    std::string Why;
    bool Ok = sim::kernelBackendAvailable(B, &Why);
    O += (First ? "" : ", ") + jsonString(sim::kernelBackendName(B)) +
         ": {\"available\": " + (Ok ? "true" : "false") +
         ", \"detail\": " + jsonString(Why) + "}";
    First = false;
  }
  std::printf("%s}\n", O.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (K == "--probe")
      return probe();
    if (I + 1 >= argc) {
      std::fprintf(stderr, "agbench: missing value for %s\n", K.c_str());
      return 2;
    }
    std::string V = argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--workdir")
      A.WorkDir = V;
    else if (K == "--param" && V.find('=') != std::string::npos)
      A.Params[V.substr(0, V.find('='))] = V.substr(V.find('=') + 1);
    else {
      std::fprintf(stderr, "agbench: unknown argument %s\n", K.c_str());
      return 2;
    }
  }
  ::mkdir(A.WorkDir.c_str(), 0755);
  clockReadNs(); // calibrate outside any timed region
  Report R;
  R.info("clock_read_ns", static_cast<double>(clockReadNs()));
  int Rc;
  if (A.Workload == "live-sim")
    Rc = runLiveSim(A, R);
  else if (A.Workload == "replay-ingest")
    Rc = runReplayIngest(A, R);
  else {
    std::fprintf(stderr, "agbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  R.print();
  return Rc;
}
