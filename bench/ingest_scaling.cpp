//===- ingest_scaling.cpp - parallel trace ingestion benchmark -----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the parallel ingest hub (ag/IngestHub.h) against the classic
// serial replay on the Fig. 6(a) AcmeAir workload:
//
//   decode stage — the gated contest, following micro_codec's precedent:
//                both sides run the builder at BuildGraph=false (the
//                repo's documented ablation baseline: shadow stack +
//                tick accounting, no graph materialization), so the
//                numbers isolate the stage the hub actually changes —
//                frame scan, record decode, event dispatch. Serial is
//                the record-at-a-time mmap loop replay used before it
//                moved onto instr::TraceStream (kept here, unchanged, as
//                the baseline: TraceMmapReader + decodeV4Frame +
//                TraceDecoder::decodeOne per record); pipelined is
//                IngestHub at --jobs 1 (frame pre-scan, batch-scoped
//                function memo, exact decoder/tick pre-sizing,
//                decode-ahead prefetch). Gated: >= 1.25x. The jobs=4
//                decode leg gates >= 2x only on hosts with >= 4 hardware
//                threads. replayTrace() itself now runs the hub's jobs=1
//                engine; its time is reported, not gated.
//   full build — the same serial-vs-hub contest with the graph on.
//                Reported, not gated: ~80% of a full build is addNode/
//                intern/edge work that is byte-identical on both sides
//                (the ordered-commit contract demands it), so the
//                end-to-end ratio is structurally capped near 1.15x on
//                one core no matter how fast the decode stage gets.
//   jobs sweep — full-build IngestHub at 2 and 4 decode threads.
//                Reported for the record: on single-core containers
//                thread handoff overhead without parallel hardware
//                makes the sweep *slower*, which is exactly why Jobs
//                defaults to 1.
//   merge      — two cluster shard streams, serial (replay each + batch
//                ShardedGraph::build) vs the hub's streaming merge.
//                Reported; gated on parity only.
//   detect     — full pipeline with the detector suite attached (live
//                observers ride the same ordered commit). Reported, not
//                gated: detector work dominates and is identical.
//
// Every hub leg checks byte-identical DOT output (and, for the detect leg,
// an identical warnings report) against its serial reference — the
// ordered-commit contract is the point of the design, so the bench fails
// hard on any divergence at any job count.
//
// With --parity-only (the bench_smoke.sh sanitizer leg) the workload
// shrinks and the exit code gates on parity alone: timing under
// sanitizers is meaningless, but every decode pool/commit/merge path
// still runs race-checked.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "ag/Builder.h"
#include "ag/IngestHub.h"
#include "ag/ShardedGraph.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace asyncg::acmeair;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// The serial baseline: record-at-a-time replay straight out of the
/// mapping, one onBatchBoundary() per frame, no frame pre-scan, memo or
/// pre-sizing.
bool recordAtATimeReplay(const std::string &Path, instr::AnalysisBase &Sink,
                         std::string *Err) {
  trace::TraceMmapReader Map;
  if (!Map.open(Path, Err))
    return false;
  instr::TraceDecoder Decoder;
  Decoder.setSymbolRemap(Map.symbolRemap());
  const uint8_t *P = Map.recordData();
  uint64_t Avail = Map.recordByteSize();
  uint64_t Records = 0;
  while (Records < Map.header().RecordCount) {
    size_t Skip = 0;
    if (trace::skipSymFrame(P, static_cast<size_t>(Avail), Skip)) {
      P += Skip;
      Avail -= Skip;
      continue;
    }
    size_t Consumed = 0;
    if (!trace::decodeV4Frame(
            P, static_cast<size_t>(Avail), Consumed,
            [&](const trace::TraceRecord &R) {
              Decoder.decodeOne(R, Sink);
              ++Records;
            },
            Err))
      return false;
    P += Consumed;
    Avail -= Consumed;
    Sink.onBatchBoundary();
  }
  return true;
}

/// One serial pass into a fresh builder: the baseline loop, or with
/// \p Engine the replayTrace() engine. \p BuildGraph false runs the
/// decode-stage ablation configuration.
double serialOnce(const std::string &Path, bool Detect, bool BuildGraph,
                  std::string *Dot, std::string *Warnings,
                  bool Engine = false) {
  ag::BuilderConfig Cfg;
  Cfg.BuildGraph = BuildGraph;
  ag::AsyncGBuilder Builder(Cfg);
  std::unique_ptr<detect::DetectorSuite> Suite;
  if (Detect) {
    Suite.reset(new detect::DetectorSuite());
    Suite->attachTo(Builder);
  }
  std::string Err;
  auto T0 = std::chrono::steady_clock::now();
  if (Engine ? !instr::replayTrace(Path, Builder, &Err)
             : !recordAtATimeReplay(Path, Builder, &Err)) {
    std::fprintf(stderr, "serial replay of %s failed: %s\n", Path.c_str(),
                 Err.c_str());
    std::exit(1);
  }
  double Secs = secondsSince(T0);
  if (Dot)
    *Dot = viz::toDot(Builder.graph());
  if (Warnings)
    *Warnings = viz::warningsReport(Builder.graph());
  return Secs;
}

/// One hub pass over \p Paths at \p Jobs decode threads.
double hubOnce(const std::vector<std::string> &Paths, unsigned Jobs,
               bool Detect, bool BuildGraph, std::string *Dot,
               std::string *Warnings) {
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Builder.BuildGraph = BuildGraph;
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
  auto T0 = std::chrono::steady_clock::now();
  if (!Hub.run(&Err)) {
    std::fprintf(stderr, "hub ingest failed (jobs=%u): %s\n", Jobs,
                 Err.c_str());
    std::exit(1);
  }
  double Secs = secondsSince(T0);
  if (Dot)
    *Dot = viz::toDot(Hub.graph());
  if (Warnings)
    *Warnings = viz::warningsReport(Hub.graph());
  return Secs;
}

template <typename Fn> double bestOf(int Reps, Fn &&F) {
  double Best = 1e30;
  for (int I = 0; I < Reps; ++I) {
    double S = F(I);
    if (S < Best)
      Best = S;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonPath(argc, argv);
  bool ParityOnly = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--parity-only")
      ParityOnly = true;
  const uint64_t Requests = ParityOnly ? 800 : 3000;
  const int Reps = ParityOnly ? 2 : 5;
  const unsigned HwThreads = std::thread::hardware_concurrency();

  std::printf("==========================================================="
              "=====================\n");
  std::printf("INGEST: serial replay vs work-stealing frame-decode "
              "pipeline\n");
  std::printf("==========================================================="
              "=====================\n");
  std::printf("workload: AcmeAir, %llu requests, 8 closed-loop clients; "
              "%u hardware thread(s)\n\n",
              static_cast<unsigned long long>(Requests), HwThreads);

  std::string TmpDir = "/tmp";
  if (const char *T = std::getenv("TMPDIR"); T && *T)
    TmpDir = T;
  std::string TracePath = TmpDir + "/ingest_scaling.agtrace";
  std::string ShardDir = TmpDir + "/ingest_scaling_shards";

  // Record the single-stream workload trace.
  instr::TraceRecorder Rec;
  if (!Rec.open(TracePath)) {
    std::fprintf(stderr, "cannot open %s\n", TracePath.c_str());
    return 1;
  }
  {
    Runtime RT;
    AppConfig ACfg;
    AcmeAirApp App(RT, ACfg);
    WorkloadConfig WCfg;
    WCfg.TotalRequests = Requests;
    WCfg.Clients = 8;
    WorkloadDriver Driver(RT, ACfg.Port, WCfg);
    RT.hooks().attach(&Rec);
    Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
      App.start(JSLOC);
      Driver.start();
      return Completion::normal();
    });
    RT.main(Main);
    if (!Rec.finalize()) {
      std::fprintf(stderr, "trace finalize failed\n");
      return 1;
    }
    if (Driver.completed() != Requests || Driver.errors() != 0) {
      std::fprintf(stderr, "RUN FAILED: completed=%llu errors=%llu\n",
                   static_cast<unsigned long long>(Driver.completed()),
                   static_cast<unsigned long long>(Driver.errors()));
      return 1;
    }
  }
  uint64_t Records = Rec.recordCount();

  // Record the two-shard cluster trace for the merge leg.
  if (::system(("mkdir -p " + ShardDir).c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", ShardDir.c_str());
    return 1;
  }
  {
    cluster::ClusterConfig CCfg;
    CCfg.Loops = 2;
    CCfg.TotalRequests = ParityOnly ? 200 : 1000;
    CCfg.TotalClients = 4;
    CCfg.RecordDir = ShardDir;
    cluster::ClusterHarness Harness(CCfg);
    Harness.run();
  }
  std::vector<std::string> ShardPaths = {ShardDir + "/shard0.agtrace",
                                         ShardDir + "/shard1.agtrace"};

  // --- Decode-stage legs: the gated contest (BuildGraph off both sides,
  // so only the stage the hub changes is on the clock). Parity is proven
  // by the full-build legs below — there is no graph to diff here. The
  // contestants alternate within each rep so slow drift (page cache,
  // frequency scaling) hits both sides equally instead of biasing the
  // ratio.
  double DecodeSerial = 1e30, DecodePipelined = 1e30, DecodeJobs4 = 1e30;
  double DecodeEngine = 1e30;
  for (int I = 0; I < Reps + 2; ++I) {
    DecodeSerial = std::min(
        DecodeSerial, serialOnce(TracePath, false, false, nullptr, nullptr));
    DecodeEngine =
        std::min(DecodeEngine, serialOnce(TracePath, false, false, nullptr,
                                          nullptr, /*Engine=*/true));
    DecodePipelined = std::min(
        DecodePipelined, hubOnce({TracePath}, 1, false, false, nullptr,
                                 nullptr));
    DecodeJobs4 = std::min(
        DecodeJobs4, hubOnce({TracePath}, 4, false, false, nullptr, nullptr));
  }
  double SpeedupPipelined =
      DecodePipelined > 0 ? DecodeSerial / DecodePipelined : 0;
  double SpeedupJobs4 = DecodeJobs4 > 0 ? DecodeSerial / DecodeJobs4 : 0;

  // --- Full-build legs: reported end-to-end, parity-checked -------------
  std::string DotSerial, DotPipelined, DotJ2, DotJ4;
  double Serial = bestOf(Reps, [&](int I) {
    return serialOnce(TracePath, false, true, I == 0 ? &DotSerial : nullptr,
                      nullptr);
  });
  std::string DotEngine;
  double Engine = bestOf(Reps, [&](int I) {
    return serialOnce(TracePath, false, true, I == 0 ? &DotEngine : nullptr,
                      nullptr, /*Engine=*/true);
  });
  double Pipelined = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 1, false, true,
                   I == 0 ? &DotPipelined : nullptr, nullptr);
  });
  double Jobs2 = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 2, false, true, I == 0 ? &DotJ2 : nullptr,
                   nullptr);
  });
  double Jobs4 = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 4, false, true, I == 0 ? &DotJ4 : nullptr,
                   nullptr);
  });
  double SpeedupFull = Pipelined > 0 ? Serial / Pipelined : 0;
  bool ParitySingle = DotSerial == DotPipelined && DotSerial == DotJ2 &&
                      DotSerial == DotJ4 && DotSerial == DotEngine;

  // --- Detect leg: full pipeline with live observers --------------------
  std::string WarnSerial, WarnPipelined;
  double DetectSerial = bestOf(Reps, [&](int I) {
    return serialOnce(TracePath, true, true, nullptr,
                      I == 0 ? &WarnSerial : nullptr);
  });
  double DetectPipelined = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 1, true, true, nullptr,
                   I == 0 ? &WarnPipelined : nullptr);
  });
  bool ParityWarnings = WarnSerial == WarnPipelined;

  // --- Merge leg: two shard streams --------------------------------------
  std::string DotMergeSerial, DotMergeHub, WarnMergeSerial, WarnMergeHub;
  double MergeSerial = bestOf(Reps, [&](int I) {
    std::string *Dot = I == 0 ? &DotMergeSerial : nullptr;
    std::vector<std::unique_ptr<ag::AsyncGBuilder>> Builders;
    std::string Err;
    auto T0 = std::chrono::steady_clock::now();
    for (const std::string &P : ShardPaths) {
      Builders.emplace_back(new ag::AsyncGBuilder());
      if (!instr::replayTrace(P, *Builders.back(), &Err)) {
        std::fprintf(stderr, "shard replay of %s failed: %s\n", P.c_str(),
                     Err.c_str());
        std::exit(1);
      }
    }
    ag::ShardedGraph Merged;
    std::vector<const ag::AsyncGraph *> Shards;
    for (auto &B : Builders)
      Shards.push_back(&B->graph());
    Merged.build(Shards);
    double Secs = secondsSince(T0);
    if (Dot) {
      *Dot = viz::toDot(Merged.merged());
      WarnMergeSerial = viz::warningsReport(Merged.merged());
    }
    return Secs;
  });
  double MergeHub = bestOf(Reps, [&](int I) {
    double S = hubOnce(ShardPaths, 1, false, true,
                       I == 0 ? &DotMergeHub : nullptr,
                       I == 0 ? &WarnMergeHub : nullptr);
    return S;
  });
  bool ParityMerge =
      DotMergeSerial == DotMergeHub && WarnMergeSerial == WarnMergeHub;

  bool Parity = ParitySingle && ParityWarnings && ParityMerge;
  bool Jobs4GateArmed = HwThreads >= 4;

  std::printf("%-30s %14llu records\n", "event stream",
              static_cast<unsigned long long>(Records));
  std::printf("-- decode stage (BuildGraph off; the gated contest) --\n");
  std::printf("%-30s %11.2f ms  (record-at-a-time baseline, best of %d)\n",
              "decode serial", DecodeSerial * 1e3, Reps);
  std::printf("%-30s %11.2f ms  (reported, not gated)\n",
              "decode replayTrace", DecodeEngine * 1e3);
  std::printf("%-30s %11.2f ms  (%.2fx; acceptance: >= 1.25x)\n",
              "decode pipelined (jobs=1)", DecodePipelined * 1e3,
              SpeedupPipelined);
  std::printf("%-30s %11.2f ms  (%.2fx; gate %s: %u hw thread(s))\n",
              "decode parallel (jobs=4)", DecodeJobs4 * 1e3, SpeedupJobs4,
              Jobs4GateArmed ? "armed >= 2x" : "not armed", HwThreads);
  std::printf("-- full build (reported, not gated; shared graph work "
              "dominates) --\n");
  std::printf("%-30s %11.2f ms  (record-at-a-time baseline, best of %d)\n",
              "serial replay", Serial * 1e3, Reps);
  std::printf("%-30s %11.2f ms  (reported, not gated)\n", "replayTrace",
              Engine * 1e3);
  std::printf("%-30s %11.2f ms  (%.2fx)\n", "pipelined ingest (jobs=1)",
              Pipelined * 1e3, SpeedupFull);
  std::printf("%-30s %11.2f ms\n", "parallel ingest (jobs=2)", Jobs2 * 1e3);
  std::printf("%-30s %11.2f ms\n", "parallel ingest (jobs=4)", Jobs4 * 1e3);
  std::printf("%-30s %11.2f ms  (reported, not gated)\n",
              "serial replay + detectors", DetectSerial * 1e3);
  std::printf("%-30s %11.2f ms  (%.2fx)\n", "pipelined + detectors",
              DetectPipelined * 1e3,
              DetectPipelined > 0 ? DetectSerial / DetectPipelined : 0);
  std::printf("%-30s %11.2f ms  (2 shards, batch merge)\n",
              "merge serial", MergeSerial * 1e3);
  std::printf("%-30s %11.2f ms  (streaming merge)\n", "merge hub",
              MergeHub * 1e3);
  std::printf("%-30s %14s\n", "DOT parity (all job counts)",
              ParitySingle ? "identical" : "DIVERGED");
  std::printf("%-30s %14s\n", "warnings parity",
              ParityWarnings ? "identical" : "DIVERGED");
  std::printf("%-30s %14s\n\n", "merge parity",
              ParityMerge ? "identical" : "DIVERGED");

  std::remove(TracePath.c_str());
  for (const std::string &P : ShardPaths)
    std::remove(P.c_str());

  if (!JsonPath.empty()) {
    benchjson::BenchReport Report("ingest_scaling");
    // Real elapsed time on whatever host runs the bench; judged against
    // the looser wall-clock tolerance in bench_compare.py, like
    // wire_throughput. The hard >=1.25x decode gate lives in this bench's
    // own exit code, not in the cross-run diff.
    Report.config("timing", "wall-clock");
    Report.config("requests", static_cast<double>(Requests));
    Report.config("clients", 8.0);
    Report.config("reps", static_cast<double>(Reps));
    Report.config("hw_threads", static_cast<double>(HwThreads));
    Report.metric("trace_records", static_cast<double>(Records), "records");
    Report.metric("ingest_decode_serial_ms", DecodeSerial * 1e3, "ms");
    Report.metric("ingest_decode_pipelined_ms", DecodePipelined * 1e3, "ms");
    Report.metric("ingest_decode_jobs4_ms", DecodeJobs4 * 1e3, "ms");
    Report.metric("ingest_decode_replaytrace_ms", DecodeEngine * 1e3, "ms");
    Report.metric("ingest_replaytrace_ms", Engine * 1e3, "ms");
    Report.metric("ingest_serial_ms", Serial * 1e3, "ms");
    Report.metric("ingest_pipelined_ms", Pipelined * 1e3, "ms");
    Report.metric("ingest_jobs2_ms", Jobs2 * 1e3, "ms");
    Report.metric("ingest_jobs4_ms", Jobs4 * 1e3, "ms");
    Report.metric("ingest_speedup_pipelined", SpeedupPipelined, "ratio");
    Report.metric("ingest_speedup_jobs4", SpeedupJobs4, "ratio");
    Report.metric("ingest_speedup_full", SpeedupFull, "ratio");
    Report.metric("ingest_detect_serial_ms", DetectSerial * 1e3, "ms");
    Report.metric("ingest_detect_pipelined_ms", DetectPipelined * 1e3, "ms");
    Report.metric("ingest_merge_serial_ms", MergeSerial * 1e3, "ms");
    Report.metric("ingest_merge_hub_ms", MergeHub * 1e3, "ms");
    Report.metric("ingest_parity", Parity ? 1 : 0, "bool");
    Report.metric("pipelined_gate_1_25x", SpeedupPipelined >= 1.25 ? 1 : 0,
                  "bool");
    // Armed only with real parallel hardware; reported as pass otherwise
    // so single-core CI doesn't gate on thread handoff overhead.
    Report.metric("jobs4_gate_2x",
                  !Jobs4GateArmed || SpeedupJobs4 >= 2.0 ? 1 : 0, "bool");
    if (!Report.write(JsonPath))
      return 1;
  }
  if (ParityOnly)
    return Parity ? 0 : 1;
  bool Pass = Parity && SpeedupPipelined >= 1.25 &&
              (!Jobs4GateArmed || SpeedupJobs4 >= 2.0);
  return Pass ? 0 : 1;
}
